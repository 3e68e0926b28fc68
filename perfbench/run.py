"""End-to-end and per-layer benchmark of the laco pipeline.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics):

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 30 --trace 0

Every workload, each in its own process, untraced and traced, with the
results collected into one file:

    python3 perfbench/run.py --seed 1 --seconds 30 --out result.json

A single-workload run prints a JSON line with every metric and the recorded
environment, then, as its last line, the summary
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import layouts  # sibling module; imports nothing from laco or numpy

# Pin every BLAS/OpenMP pool to one thread before numpy is first imported,
# which happens in load_program().
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
WORKLOADS = ("matrix", "deep_latent", "telemetry_io")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170


def load_program():
    """Import laco from this checkout's sources, or exit with an error."""
    src = ROOT / "src"
    if not (src / "laco" / "__init__.py").is_file():
        sys.exit(f"error: no laco sources under {src}")
    sys.path.insert(0, str(src))
    import laco
    import workloads

    if Path(laco.__file__).resolve().parent != src / "laco":
        sys.exit(f"error: imported laco from {laco.__file__}, not from {src}")
    return laco, workloads


def environment(laco) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": laco.backend_name(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup_sample(args, speed) -> tuple:
    """Seconds from the start of a fresh process to its first timed op, as
    (wall, scaled); the calibration kernel brackets the process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    before = speed.measure()
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up process exited {code} before it was ready")
    return elapsed, speed.scale(elapsed, before, speed.measure())


class Run:
    """Timed passes over a workload's ops, with every output checked.

    Every op time is kept twice: as measured (wall) and scaled to the
    reference machine speed by the calibration kernel timed just before and
    just after the op (see calibration.py).  The end-to-end timings are the
    scaled ones."""

    def __init__(self, ops, references, tracer=None):
        self.ops = ops
        self.references = references
        self.tracer = tracer
        self.times = {(traced, scaled): {op.key: [] for op in ops}
                      for traced in (False, True) for scaled in (False, True)}
        self.passes = {key: [] for key in self.times}  # op times of each pass
        self.outcomes = {}
        self.attempted = 0
        self.failed = 0
        self.speed = self.last_speed = None

    def start_timing(self, speed):
        """Calibrate with ``speed`` (a calibration.Calibration) from now on."""
        self.speed = speed
        self.last_speed = speed.measure()

    def run_op(self, op, traced: bool):
        """The op's output, its wall time and its scaled time."""
        fn = self.tracer.wrap("op", op.run) if traced else op.run
        before = self.last_speed
        if traced:
            self.tracer.install()
        try:
            t0 = perf_counter()
            out = fn()
            elapsed = perf_counter() - t0
        finally:
            if traced:
                self.tracer.uninstall()
            self.last_speed = self.speed.measure()
        return out, elapsed, self.speed.scale(elapsed, before, self.last_speed)

    def check(self, op, out):
        """The op's own check, then its digest against the reference or,
        without references, against the digest it gave earlier in the run."""
        outcome = op.check(out)
        if self.references:
            want = self.references.get(op.key, "(none)")
        else:
            want = self.outcomes[op.key].digest if op.key in self.outcomes else outcome.digest
        if outcome.digest != want:
            raise AssertionError(f"{op.key}: output digest {outcome.digest[:12]}, expected {want[:12]}")
        self.outcomes[op.key] = outcome

    def one_pass(self, traced: bool):
        """Every op once; the pass time is the sum of the op times."""
        op_times = {False: [], True: []}
        for op in self.ops:
            self.attempted += 1
            try:
                out, *elapsed = self.run_op(op, traced)
                self.check(op, out)
            except Exception:
                self.failed += 1
                print(f"op {op.key} failed:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            for scaled in (False, True):
                self.times[traced, scaled][op.key].append(elapsed[scaled])
                op_times[scaled].append(elapsed[scaled])
        for scaled in (False, True):
            self.passes[traced, scaled].append(op_times[scaled])

    def op_stats(self, traced: bool, scaled: bool = True):
        """Op-time median and 90th percentile, and decisions per second.

        The median is the median over passes of each pass's median op time.
        Pooled over every sample it would, with an even number of ops per
        pass, fall between the times of two different ops and follow the
        slowest sample of one and the fastest of the other.  The 90th
        percentile is over every timed sample."""
        passes = [p for p in self.passes[traced, scaled] if p]
        samples = [t for p in passes for t in p]
        if len(samples) < 2:
            raise RuntimeError("too few successful ops to report latency")
        decisions = sum(o.decisions for o in self.outcomes.values())
        return {
            "op_ms_p50": 1e3 * statistics.median(statistics.median(p) for p in passes),
            "op_ms_p90": 1e3 * statistics.quantiles(samples, n=10, method="inclusive")[8],
            "decisions_per_s": decisions / statistics.median(sum(p) for p in passes),
            "samples": len(samples),
        }


def end_to_end(run: Run, setup: list) -> dict:
    """Every end-to-end metric; the timings scaled, and as measured under *_wall."""
    ops, wall = run.op_stats(False), run.op_stats(False, scaled=False)
    outcomes = run.outcomes.values()
    scores = [s for o in outcomes for s in o.driving_scores]
    wall_times, scaled_times = run.times[False, False], run.times[False, True]
    speeds = [s / w for key in wall_times for w, s in zip(wall_times[key], scaled_times[key])]
    return {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "op_ms_p50": (ops["op_ms_p50"], "ms"),
        "op_ms_p90": (ops["op_ms_p90"], "ms"),
        "decisions_per_s": (ops["decisions_per_s"], "1/s"),
        "setup_s_wall": (statistics.median(w for w, _ in setup), "s"),
        "op_ms_p50_wall": (wall["op_ms_p50"], "ms"),
        "op_ms_p90_wall": (wall["op_ms_p90"], "ms"),
        "decisions_per_s_wall": (wall["decisions_per_s"], "1/s"),
        "machine_speed": (statistics.median(speeds), "ratio"),
        "failed_ops_ratio": (run.failed / run.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "comm_bytes": (sum(o.comm_bytes for o in outcomes), "bytes"),
        "comm_latency_s": (sum(o.comm_latency_s for o in outcomes), "sim_s"),
        "forward_passes": (sum(o.forward_passes for o in outcomes), "count"),
        "decoded_tokens": (sum(o.decoded_tokens for o in outcomes), "count"),
        "driving_score_mean": (statistics.fmean(scores), "score"),
        "telemetry_bytes": (sum(o.telemetry_bytes for o in outcomes), "bytes"),
    }


def run_workload(args) -> int:
    laco, workloads = load_program()
    import calibration
    import tracing

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        ops = workloads.build(args.workload, args.seed, work)
        tracer = tracing.Tracer() if args.trace else None
        run = Run(ops, workloads.load_references(args.workload, args.seed), tracer)
        for op in ops[: workloads.warmup_count(args.workload)]:
            run.check(op, op.run())
        if args.setup_only:
            print("ready", flush=True)
            return 0
        speed = calibration.Calibration()
        run.start_timing(speed)

        loadavg_start = os.getloadavg()
        # Untraced runs interleave set-up samples with the passes, so that a
        # slow spell of the machine does not hit all of them at once.
        setup = []
        measured = 0.0
        traced = False
        while True:
            start = perf_counter()
            run.one_pass(traced)
            measured += perf_counter() - start
            if not args.trace and len(setup) < SETUP_SAMPLES:
                setup.append(setup_sample(args, speed))
            if measured >= args.seconds and (not args.trace or run.passes[True, True]):
                break
            traced = bool(args.trace) and not traced
        while not args.trace and len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(args, speed))

        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": environment(laco) | {"loadavg_start": loadavg_start, "loadavg_end": os.getloadavg()},
            "ops_per_pass": len(ops),
            "passes": {"untraced": len(run.passes[False, True]),
                       "traced": len(run.passes[True, True])},
            "attempted": run.attempted,
            "failed": run.failed,
        }
        if args.trace:
            layers = tracer.layer_metrics(len(run.passes[True, True]))
            untraced, traced_ops = run.op_stats(False), run.op_stats(True)
            overhead = 100.0 * (traced_ops["op_ms_p50"] / untraced["op_ms_p50"] - 1.0)
            layers["trace.overhead_pct"] = (overhead, "%")
            tracer.write(WORK_ROOT / f"spans-{args.workload}.csv")
            metrics = layers
        else:
            metrics = end_to_end(run, setup)
            report["op_samples"] = run.op_stats(False)["samples"]
            report["op_times_ms"] = {
                kind: {k: [round(1e3 * t, 3) for t in v] for k, v in run.times[False, scaled].items()}
                for kind, scaled in (("wall", False), ("scaled", True))}
            report["setup_samples_s"] = {"wall": [w for w, _ in setup],
                                         "scaled": [s for _, s in setup]}
        report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        print(json.dumps({"report": report}))
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
        print(json.dumps({
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: report["metrics"][name] for name in names},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced."""
    results = {}
    code = 0
    for workload in WORKLOADS:
        for traced in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(traced)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=args.seconds + CHILD_TIMEOUT_S)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2 or not json.loads(lines[-1])["correct"]:
                print(f"{workload} (trace {traced}) failed with exit code {proc.returncode}")
                code = 1
                continue
            report = json.loads(lines[-2])["report"]
            results.setdefault(workload, {})["trace" if traced else "e2e"] = report
            for name, m in report["metrics"].items():
                print(f"{workload:13s} {name:45s} {m['value']:14.6g} {m['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                                              "workloads": results}, indent=1) + "\n")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=layouts.DEFAULT_SEED,
                        help=f"input seed (default {layouts.DEFAULT_SEED})")
    parser.add_argument("--seconds", type=int, default=30, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file of a run over every workload")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
