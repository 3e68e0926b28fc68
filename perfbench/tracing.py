"""Span tracing of laco's public functions, from outside the package.

Each traced function is replaced, for the duration of one op, by a wrapper
under the name its caller looks it up by (``laco.scenario.prefill``,
``laco.kernels.attend_single``, ``forward_decode`` as imported into
``laco.ild`` and ``laco.fusion``, ...).  The wrapper records a span -- parent
span, layer name, start, end and an optional per-call statistic -- in memory.
Nothing in ``src/laco`` knows about it.

A layer's total time is its span time; its self time is that minus the time
of its direct child spans.  Kernel work (flop, bytes) is computed from tensor shapes, not measured:
flop counts a multiply and an add separately plus 4 per softmax element, and
bytes count every float32 operand read or written once.
"""

import functools
import importlib
import statistics
from time import perf_counter


def _attend_single_work(args, out):
    keys = args[0]
    H, n, dh = keys.shape
    flop = H * n * (4 * dh + 4)
    nbytes = 4 * H * (2 * n * dh + 2 * dh + n)
    return (n, flop, nbytes)


def _attend_causal_work(args, out):
    H, T, dh = args[0].shape
    pairs = T * (T + 1) // 2
    flop = H * pairs * (4 * dh + 4)
    nbytes = 4 * H * (4 * T * dh + T * T)
    return (T, flop, nbytes)


# layer name -> (where callers look it up, per-call statistic or None).
# A lookup site that no longer exists is skipped, so the table survives
# refactors that drop a call path; that layer then reports zero calls.
LAYERS = {
    "scenario.observe": (["laco.scenario:observe"], None),
    "model.prefill": (["laco.scenario:prefill"], None),
    "model.forward_decode": (
        ["laco.model:forward_decode", "laco.ild:forward_decode", "laco.fusion:forward_decode"],
        lambda args, out: (out[1][0].shape[1],),
    ),
    "model.project_to_logits": (
        ["laco.scenario:project_to_logits", "laco.fusion:project_to_logits"], None),
    "kernels.attend_causal": (["laco.kernels:attend_causal"], _attend_causal_work),
    "kernels.attend_single": (["laco.kernels:attend_single"], _attend_single_work),
    "ild.compute_alignment": (["laco.scenario:compute_alignment"], None),
    "ild.deliberate": (["laco.scenario:deliberate"], lambda args, out: (out.steps,)),
    "chsa.saliency_scores": (["laco.scenario:saliency_scores"], None),
    "chsa.select_topk": (
        ["laco.scenario:select_topk"],
        lambda args, out: (len(out) / args[0].scores.shape[0],),
    ),
    "chsa.build_chsa_cache": (["laco.scenario:build_chsa_cache"], None),
    "wire.distill": (["laco.scenario:distill"], None),
    "wire.serialize": (["laco.scenario:serialize"], lambda args, out: (len(out),)),
    "wire.deserialize": (["laco.cli:deserialize"], lambda args, out: (len(args[0]),)),
    "wire.channel_send": (
        ["laco.scenario:channel_send"], lambda args, out: (1.0 if out.delivered else 0.0,)),
    "fusion.attach_payload": (
        ["laco.scenario:attach_payload"],
        lambda args, out: (sum(seg.keys.shape[2] for seg in out.segments),),
    ),
    "fusion.collaborative_decode": (["laco.scenario:collaborative_decode"], None),
    "telemetry.write_trace": (["laco.telemetry:TelemetryWriter.write_trace"], None),
    "telemetry.write_decision": (
        ["laco.telemetry:TelemetryWriter.write_decision"],
        lambda args, out: (sum(4 * r.size for r in args[3]) + sum(t.size for t in args[4]),),
    ),
    "telemetry.read_telemetry": (["laco.cli:read_telemetry"], None),
    "telemetry.trace_record_to_trace": (["laco.cli:trace_record_to_trace"], None),
    "telemetry.trace_entropy": (["laco.cli:trace_entropy"], None),
    "telemetry.sparsity_curve": (["laco.cli:sparsity_curve"], None),
    "telemetry.confusion_index": (["laco.cli:confusion_index"], None),
    "cli.run": (["laco.cli:_cmd_run"], None),
    "cli.analyze": (["laco.cli:_cmd_analyze"], None),
    "cli.dump_payload": (["laco.cli:_cmd_dump_payload"], None),
}

# Extra per-layer statistics: (layer, index into the per-call tuple, metric
# suffix, aggregation, scale, unit).  "sum" is per traced pass, "mean" per call.
EXTRA_STATS = [
    ("model.forward_decode", 0, "ctx_len_mean", "mean", 1.0, "positions"),
    ("kernels.attend_causal", 1, "mflop", "sum", 1e-6, "Mflop"),
    ("kernels.attend_causal", 2, "mbytes", "sum", 1e-6, "MB"),
    ("kernels.attend_single", 1, "mflop", "sum", 1e-6, "Mflop"),
    ("kernels.attend_single", 2, "mbytes", "sum", 1e-6, "MB"),
    ("kernels.attend_single", 0, "ctx_len_mean", "mean", 1.0, "positions"),
    ("ild.deliberate", 0, "steps", "sum", 1.0, "count"),
    ("chsa.select_topk", 0, "kept_ratio", "mean", 1.0, "ratio"),
    ("wire.serialize", 0, "bytes", "sum", 1.0, "bytes"),
    ("wire.deserialize", 0, "bytes", "sum", 1.0, "bytes"),
    ("wire.channel_send", 0, "delivered_ratio", "mean", 1.0, "ratio"),
    ("fusion.attach_payload", 0, "foreign_positions_mean", "mean", 1.0, "positions"),
    ("telemetry.write_decision", 0, "bytes", "sum", 1.0, "bytes"),
]
P50_LAYERS = ("cli.run", "cli.analyze", "cli.dump_payload")


def _resolve(site):
    module, _, attr = site.partition(":")
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory span recorder; spans are (parent, name, start, end, stat)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        for layer, (sites, stat) in LAYERS.items():
            for site in sites:
                try:
                    owner, name = _resolve(site)
                    original = vars(owner)[name]
                except (ImportError, AttributeError, KeyError):
                    continue
                self._patches.append((owner, name, original, self.wrap(layer, original, stat)))

    def wrap(self, layer, fn, stat=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (parent, layer, t0, perf_counter(), None)
                stack.pop()
                raise
            t1 = perf_counter()
            stack.pop()
            spans[sid] = (parent, layer, t0, t1, stat(args, out) if stat else None)
            return out

        return traced

    def install(self):
        for owner, name, _, traced in self._patches:
            setattr(owner, name, traced)

    def uninstall(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def write(self, path):
        """Write every span as CSV: id, parent, layer, start_us, end_us, stat."""
        lines = ["id,parent,layer,start_us,end_us,stat"]
        for sid, (parent, layer, t0, t1, stat) in enumerate(self.spans):
            extra = " ".join(map(str, stat)) if stat else ""
            lines.append(f"{sid},{parent},{layer},{t0 * 1e6:.1f},{t1 * 1e6:.1f},{extra}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer calls, self and total time per traced pass, plus the extra stats."""
        child = [0.0] * len(self.spans)
        for parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = {layer: 0 for layer in LAYERS}
        self_s = {layer: 0.0 for layer in LAYERS}
        total_s = {layer: 0.0 for layer in LAYERS}
        stats = {layer: [] for layer in LAYERS}
        durations = {layer: [] for layer in P50_LAYERS}
        for sid, (_, layer, t0, t1, stat) in enumerate(self.spans):
            if layer not in LAYERS:
                continue
            calls[layer] += 1
            self_s[layer] += (t1 - t0) - child[sid]
            total_s[layer] += t1 - t0
            if stat is not None:
                stats[layer].append(stat)
            if layer in durations:
                durations[layer].append(t1 - t0)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer] / passes, "count")
            out[f"{layer}.self_ms"] = (1e3 * self_s[layer] / passes, "ms")
            out[f"{layer}.total_ms"] = (1e3 * total_s[layer] / passes, "ms")
        for layer, idx, suffix, how, scale, unit in EXTRA_STATS:
            values = [s[idx] for s in stats[layer]]
            if how == "sum":
                value = scale * sum(values) / passes
            else:
                value = scale * statistics.fmean(values) if values else 0.0
            out[f"{layer}.{suffix}"] = (value, unit)
        for layer in P50_LAYERS:
            d = durations[layer]
            out[f"{layer}.ms_p50"] = (1e3 * statistics.median(d) if d else 0.0, "ms")
        return out
