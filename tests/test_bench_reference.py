"""Every benchmark op still reproduces its digest in ``perfbench/reference.json``.

The digests take each metric value with its type (``_canon`` writes an int
and a float apart), so a value that turns from ``0`` into ``0.0`` fails here
even though the ``.9g`` golden CSVs print both as ``0``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layouts  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["matrix", "deep_latent", "telemetry_io"])
def test_every_op_matches_its_reference_digest(workload, tmp_path):
    refs = workloads.load_references(workload, layouts.DEFAULT_SEED)
    digests = {}
    for op in workloads.build(workload, layouts.DEFAULT_SEED, tmp_path):
        digests[op.key] = op.check(op.run()).digest  # in order: a CLI op reads what the last wrote
    assert digests.keys() == refs.keys()
    assert [key for key in refs if digests[key] != refs[key]] == []
