"""The benchmark's three workloads: their ops, their inputs and the output checks.

An op is one episode (``matrix``, ``deep_latent``) or one CLI command
(``telemetry_io``).  Every op's output is reduced to a digest and checked:

* against ``reference.json`` where a reference exists (every ``matrix`` op;
  the seeded workloads at ``layouts.DEFAULT_SEED``),
* against the digest the same op gave earlier in the run (all seeds),
* against the behaviour the paper's evaluation depends on: lane-A driving
  scores and, on ``occluded_1``, the exact bytes each paradigm sends.
"""

import contextlib
import csv
import hashlib
import io
import json
import numbers
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import laco
from laco import cli
from laco.scenario import PARADIGMS, metrics_rows
from laco.telemetry import TelemetryWriter, TraceRecord, trace_record_to_trace

import layouts

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# (rows, cols, agents, m) of each generated layout in one pass.
DEEP_LATENT_SHAPES = ((5, 10, 3, 40), (5, 13, 3, 40), (6, 12, 3, 40), (6, 16, 3, 40))
DEEP_LATENT_PARADIGMS = ("LACO", "NaiveLatent")
TELEMETRY_IO_SHAPES = ((4, 10, 2, 20), (4, 14, 2, 30), (5, 12, 3, 40), (6, 16, 2, 40))

# Behaviour baseline of the shipped layouts (see ROADMAP "Recent").
OCCLUDED_LANE_A_SCORE = {"NonCollab": 50.0, "Visual": 100.0, "NaiveLatent": 100.0, "LACO": 100.0}
OCCLUDED_1_BYTES = {"LACO": 72_534, "Visual": 658_346, "Language": 1_232}


class CheckFailed(Exception):
    """An op's output differs from its reference or expected behaviour."""


@dataclass
class Outcome:
    """What one op produced: its digest plus the paper's costs it incurred."""

    digest: str
    decisions: int = 0
    comm_bytes: int = 0
    comm_latency_s: float = 0.0
    forward_passes: int = 0
    decoded_tokens: int = 0
    driving_scores: tuple = ()
    telemetry_bytes: int = 0


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def load_references(workload: str, seed: int) -> dict:
    refs = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    if workload == "matrix" or seed == refs["seed"]:
        return refs["digests"][workload]
    return {}


def _canon(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return repr(float(value))


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _expect(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _lane_a_score(rows) -> float:
    return next(float(r["driving_score"]) for r in rows if r["lane"] == "A")


# -- episode workloads: matrix, deep_latent ---------------------------------

def _episode_op(spec, paradigm: str, work: Path, want_lane_a=None, want_bytes=None) -> Op:
    def check(result) -> Outcome:
        rows = metrics_rows(result)
        # The stream `laco run --telemetry` would write for this episode.
        stream_path = work / "check_telemetry.bin"
        with TelemetryWriter(stream_path) as writer:
            for rec in result.telemetry:
                if isinstance(rec, TraceRecord):
                    writer.write_trace(rec.tick, rec.agent, trace_record_to_trace(rec))
                else:
                    writer.write_decision(rec.tick, rec.agent, rec.rows, rec.tags)
        stream = stream_path.read_bytes()
        text = "\n".join(",".join(map(_canon, row)) for row in rows)
        payloads = [f"{t},{s}".encode() + blob for t, s, blob in result.payload_bytes]
        agents = [result.agents[aid] for aid in sorted(result.agents)]
        if want_lane_a is not None:
            score = next(a.driving_score for a in agents if a.lane == "A")
            _expect(score == want_lane_a, f"lane-A driving score {score}, expected {want_lane_a}")
        if want_bytes is not None:
            _expect(result.comm_bytes_total == want_bytes,
                    f"sent {result.comm_bytes_total} bytes, expected {want_bytes}")
        return Outcome(
            digest=_digest(text.encode(), *payloads, stream),
            decisions=len(result.actions),
            comm_bytes=result.comm_bytes_total,
            comm_latency_s=result.comm_latency_total_s,
            forward_passes=sum(a.forward_passes for a in agents),
            decoded_tokens=sum(a.decoded_tokens for a in agents),
            driving_scores=tuple(a.driving_score for a in agents),
            telemetry_bytes=len(stream),
        )

    return Op(f"{spec.name}/{paradigm}", lambda: laco.run_episode(spec, paradigm), check)


def _matrix_ops(seed: int, work: Path) -> list:
    ops = []
    for name in laco.builtin_scenario_names():
        spec = laco.load_scenario(laco.builtin_scenario_path(name))
        for paradigm in PARADIGMS:
            want_lane_a = OCCLUDED_LANE_A_SCORE.get(paradigm) if name.startswith("occluded_") else None
            want_bytes = OCCLUDED_1_BYTES.get(paradigm) if name == "occluded_1" else None
            ops.append(_episode_op(spec, paradigm, work, want_lane_a, want_bytes))
    return ops


def _deep_latent_ops(seed: int, work: Path) -> list:
    ops = []
    for _, text in layouts.generate(seed, DEEP_LATENT_SHAPES):
        spec = laco.parse_scenario(text)
        for paradigm in DEEP_LATENT_PARADIGMS:
            ops.append(_episode_op(spec, paradigm, work, want_lane_a=100.0))
    return ops


# -- telemetry_io: laco run -> laco analyze -> laco dump-payload --------------

def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _read_csv(path: Path) -> list:
    with path.open(newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _round_trip_ops(name: str, text: str, d: Path) -> list:
    """laco run, analyze and dump-payload on one layout, outputs under ``d``."""
    d.mkdir()
    scenario = d / "scenario.laco"
    scenario.write_text(text, encoding="utf-8")
    metrics, stream, payloads, diag = d / "metrics.csv", d / "telemetry.bin", d / "payloads", d / "diag"

    def stdout_bytes(stdout):
        return stdout.replace(str(d), "<dir>").encode()

    def payload_files():
        return sorted(payloads.glob("*.bin"))

    def check_run(out):
        code, stdout = out
        _expect(code == 0, f"laco run exited {code}")
        rows = _read_csv(metrics)
        _expect(_lane_a_score(rows) == 100.0, "lane-A agent not saved under LACO")
        blobs = [p.name.encode() + p.read_bytes() for p in payload_files()]
        data = stream.read_bytes()
        return Outcome(
            digest=_digest(metrics.read_bytes(), data, *blobs, stdout_bytes(stdout)),
            comm_bytes=int(rows[0]["comm_bytes_total"]),
            comm_latency_s=float(rows[0]["comm_latency_total_s"]),
            forward_passes=sum(int(r["forward_passes"]) for r in rows),
            decoded_tokens=sum(int(r["decoded_tokens"]) for r in rows),
            driving_scores=tuple(float(r["driving_score"]) for r in rows),
            telemetry_bytes=len(data),
        )

    def check_analyze(out):
        code, stdout = out
        _expect(code == 0, f"laco analyze exited {code}")
        csvs = [(diag / f).read_bytes() for f in ("entropy.csv", "sparsity.csv", "confusion.csv")]
        _expect(all(c.count(b"\n") > 1 for c in csvs), "analyze wrote an empty CSV")
        decisions = {(r["tick"], r["agent"]) for r in _read_csv(diag / "confusion.csv")}
        return Outcome(digest=_digest(*csvs, stdout_bytes(stdout)), decisions=len(decisions))

    def check_dump(out):
        code, stdout = out
        _expect(code == 0, f"laco dump-payload exited {code}")
        _expect(stdout.count("size_bytes") == len(payload_files()), "dump-payload skipped a payload")
        return Outcome(digest=_digest(stdout_bytes(stdout)))

    run_argv = ["run", "--scenario", str(scenario), "--out", str(metrics),
                "--telemetry", str(stream), "--payload-dir", str(payloads)]
    analyze_argv = ["analyze", "--in", str(stream), "--out", str(diag)]
    return [
        Op(f"{name}/run", lambda: _cli(run_argv), check_run),
        Op(f"{name}/analyze", lambda: _cli(analyze_argv), check_analyze),
        Op(f"{name}/dump-payload",
           lambda: _cli(["dump-payload", *map(str, payload_files())]), check_dump),
    ]


def _telemetry_io_ops(seed: int, work: Path) -> list:
    return [op for name, text in layouts.generate(seed, TELEMETRY_IO_SHAPES)
            for op in _round_trip_ops(name, text, work / name)]


_BUILDERS = {"matrix": _matrix_ops, "deep_latent": _deep_latent_ops, "telemetry_io": _telemetry_io_ops}


def build(workload: str, seed: int, work: Path) -> list:
    """The ops of one pass, in execution order; inputs are made from ``seed``."""
    return _BUILDERS[workload](seed, work)


def warmup_count(workload: str) -> int:
    """Ops run once before timing starts: one episode, or one CLI round trip."""
    return 3 if workload == "telemetry_io" else 1
