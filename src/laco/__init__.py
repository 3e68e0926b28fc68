"""Latent KV-cache communication between toy transformer agents.

Pipeline: prefill -> iterative latent deliberation -> saliency pruning ->
shallow-layer truncation -> simulated V2V channel -> asymmetric fusion at the
receiver, embedded in a deterministic multi-agent gridworld with
benchmark-style scoring and attention diagnostics.
"""

from .chsa import SaliencyVector, saliency_scores, select_topk
from .fusion import FusedContext, attach_payload, collaborative_decode
from .ild import DeliberationResult, compute_alignment, deliberate
from .kernels import backend_name
from .model import (
    AttentionTrace,
    KVCache,
    Model,
    ModelConfig,
    make_hazard_model,
    prefill,
    project_to_logits,
)
from .scenario import (
    ScenarioSpec,
    Simulation,
    builtin_scenario_names,
    builtin_scenario_path,
    load_scenario,
    observe,
    parse_scenario,
    run_episode,
    run_tick,
    sweep,
)
from .telemetry import (
    SparsityCurve,
    confusion_index,
    emit,
    sparsity_curve,
    trace_entropy,
)
from .wire import (
    ChannelConfig,
    ChannelResult,
    Payload,
    channel_send,
    deserialize,
    distill,
    payload_size_bytes,
    serialize,
)

__version__ = "0.1.0"
