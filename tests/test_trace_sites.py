"""The benchmark's tracer still finds every layer of a LACO episode.

``perfbench/tracing.py`` wraps each layer under the name its caller looks it
up by and skips a lookup site that no longer exists, and its per-call
statistics read attributes of the layers' arguments and results.  A renamed
function or attribute would otherwise show only in a full benchmark run, as
a layer with zero calls or as a failed op.
"""

import sys
from pathlib import Path

from laco import scenario as sc

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

LACO_LAYERS = (
    "scenario.observe", "model.prefill", "model.forward_decode", "model.project_to_logits",
    "kernels.attend_causal", "kernels.attend_single", "ild.compute_alignment",
    "ild.deliberate", "chsa.saliency_scores", "chsa.select_topk", "wire.distill",
    "wire.serialize", "wire.channel_send", "fusion.attach_payload",
    "fusion.collaborative_decode",
)


def test_every_laco_layer_is_traced_and_its_statistic_computes():
    spec = sc.load_scenario(sc.builtin_scenario_path("occluded_1"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sc.run_episode(spec, "LACO")  # a per-call statistic that raises fails here
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(passes=1)
    assert [layer for layer in LACO_LAYERS if metrics[f"{layer}.calls"][0] < 1] == []
    stats = {layer: stat for layer, (_, stat) in tracing.LAYERS.items()}
    for _, layer, _, _, value in tracer.spans:
        assert (value is None) == (stats[layer] is None), layer
    assert metrics["fusion.attach_payload.foreign_positions_mean"][0] > 0
