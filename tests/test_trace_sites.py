"""The benchmark's tracer still finds every layer it names.

``perfbench/tracing.py`` wraps each layer under the name its caller looks it
up by and skips a lookup site that no longer exists, and its per-call
statistics read attributes of the layers' arguments and results.  A renamed
function or attribute, or a caller that holds a function instead of looking
it up, would otherwise show only in a full benchmark run, as a layer with zero
calls or as a failed op.
"""

import sys
from pathlib import Path

from laco import cli
from laco import scenario as sc

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

# The layers of the dead lookup sites below: no call reaches them.
DEAD_LAYERS = ["chsa.build_chsa_cache", "telemetry.trace_record_to_trace"]


def test_every_laco_layer_is_traced_and_its_statistic_computes(tmp_path):
    """A LACO and a Language episode on occluded_1, then ``laco run --telemetry
    --payload-dir``, ``laco analyze`` and ``laco dump-payload`` through ``cli.main``,
    call every traced layer but the dead ones."""
    path = sc.builtin_scenario_path("occluded_1")
    spec = sc.load_scenario(path)
    stream, payloads = tmp_path / "t.bin", tmp_path / "payloads"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sc.run_episode(spec, "LACO")  # a per-call statistic that raises fails here
        laco_spans = len(tracer.spans)
        sc.run_episode(spec, "Language")
        assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "m.csv"),
                         "--telemetry", str(stream), "--payload-dir", str(payloads)]) == 0
        assert cli.main(["analyze", "--in", str(stream), "--out", str(tmp_path / "diag")]) == 0
        assert cli.main(["dump-payload", *map(str, sorted(payloads.iterdir()))]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(passes=1)
    assert [layer for layer in tracing.LAYERS if metrics[f"{layer}.calls"][0] < 1] == DEAD_LAYERS
    stats = {layer: stat for layer, (_, stat) in tracing.LAYERS.items()}
    for _, layer, _, _, value in tracer.spans:
        assert (value is None) == (stats[layer] is None), layer
    # Every prefill of the LACO episode runs all T observation positions, so the kernel
    # work the tracer computes from the queries' shape covers the whole T x T block.
    causal = [value[0] for _, layer, _, _, value in tracer.spans[:laco_spans]
              if layer == "kernels.attend_causal"]
    assert causal and set(causal) == {spec.observation_len}
    assert metrics["fusion.attach_payload.foreign_positions_mean"][0] > 0


# Lookup sites that name nothing today: the tracer skips them, so their layers read
# zero calls.  Both go when the benchmark drops them; this list must shrink with them.
DEAD_SITES = ["laco.cli:trace_record_to_trace", "laco.scenario:build_chsa_cache"]


def test_every_lookup_site_resolves():
    """Every site in ``tracing.LAYERS`` but the dead ones names a function where its
    caller looks it up, so a renamed import in ``src`` fails here rather than as a
    layer with zero calls in a benchmark run."""
    unresolved = []
    for sites, _ in tracing.LAYERS.values():
        for site in sites:
            try:
                owner, name = tracing._resolve(site)
                assert callable(vars(owner)[name]), site
            except (ImportError, AttributeError, KeyError):
                unresolved.append(site)
    assert sorted(unresolved) == DEAD_SITES
