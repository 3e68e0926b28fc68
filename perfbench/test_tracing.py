"""Span bookkeeping of the tracer: parent links, self and total time."""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("kernels.attend_single", lambda: time.sleep(0.02))

    def outer_body():
        inner()
        inner()
        time.sleep(0.01)

    outer = tracer.wrap("model.forward_decode", outer_body)
    tracer.wrap("op", outer)()

    (op_parent, *_), (outer_parent, *_), (inner_parent, *_) = tracer.spans[:3]
    assert (op_parent, outer_parent, inner_parent) == (-1, 0, 1)
    layers = tracer.layer_metrics(passes=1)
    assert layers["kernels.attend_single.calls"][0] == 2
    assert layers["model.forward_decode.calls"][0] == 1
    assert 0.008 < layers["model.forward_decode.self_ms"][0] / 1e3 < 0.03
    assert layers["model.forward_decode.total_ms"][0] > layers["kernels.attend_single.self_ms"][0]


def test_install_and_uninstall_restore_every_lookup_site():
    import laco.ild
    import laco.kernels

    before = (laco.kernels.attend_single, laco.ild.forward_decode)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert laco.kernels.attend_single is not before[0]
        assert laco.ild.forward_decode is not before[1]
    finally:
        tracer.uninstall()
    assert (laco.kernels.attend_single, laco.ild.forward_decode) == before
