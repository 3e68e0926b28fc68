"""Command-line interface: run, sweep, analyze, dump-payload."""

import argparse
import sys
from pathlib import Path

from .errors import LacoError
from .scenario import (
    METRIC_COLUMNS,
    SWEEP_PARAMS,
    load_scenario,
    metrics_rows,
    run_episode,
    sweep,
)
from .telemetry import (
    DecisionRecord,
    TelemetryWriter,
    TraceRecord,
    confusion_index,
    emit,
    read_telemetry,
    sparsity_curve,
    trace_entropy,
    write_csv,
)
from .wire import deserialize


def _cmd_run(args) -> int:
    spec = load_scenario(args.scenario)
    result = run_episode(spec, args.paradigm)
    write_csv(Path(args.out), METRIC_COLUMNS, metrics_rows(result))
    if args.telemetry:
        with TelemetryWriter(args.telemetry) as writer:
            for rec in result.telemetry:
                if isinstance(rec, TraceRecord):
                    writer.write_trace(rec.tick, rec.agent, rec.trace)
                else:
                    writer.write_decision(rec.tick, rec.agent, rec.rows, rec.tags)
    if args.payload_dir:
        out = Path(args.payload_dir)
        out.mkdir(parents=True, exist_ok=True)
        for tick, sender, blob in result.payload_bytes:
            (out / f"tick{tick:04d}_agent{sender}.bin").write_bytes(blob)
    print(f"wrote {args.out} ({len(result.agents)} agents, {result.ticks} ticks)")
    return 0


def _cmd_sweep(args) -> int:
    specs = [load_scenario(p) for p in args.scenario]
    values = [v for v in args.values.split(",") if v]
    rows = sweep(args.param, values, specs, args.paradigm)
    write_csv(Path(args.out), ("param", "value") + METRIC_COLUMNS, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_analyze(args) -> int:
    records = read_telemetry(args.infile)
    entropy_rows = []
    sparsity_rows = []
    confusion_rows = []
    for rec in records:
        tick, agent = rec.tick, rec.agent
        if isinstance(rec, TraceRecord):
            entropies = trace_entropy(rec.trace).tolist()
            entropy_rows += [(tick, agent, layer, e)
                             for layer, e in enumerate(entropies, start=1)]
            curve = sparsity_curve(rec.trace)
            n = curve.cumulative.shape[0]
            f80 = curve.fraction_for_80
            sparsity_rows += [(tick, agent, rank, rank / n, mass, f80)
                              for rank, mass in enumerate(curve.cumulative.tolist(), start=1)]
        elif isinstance(rec, DecisionRecord):
            fractions = confusion_index(rec.rows, rec.tags).tolist()
            confusion_rows += [(tick, agent, layer, frac)
                               for layer, frac in enumerate(fractions, start=1)]
    emit(args.out, entropy_rows, sparsity_rows, confusion_rows)
    print(f"wrote entropy.csv, sparsity.csv, confusion.csv under {args.out}")
    return 0


def _cmd_dump_payload(args) -> int:
    for path in args.payload:
        p = deserialize(Path(path).read_bytes())
        print(f"{path}:")
        for name in ("sender_id", "frame_id", "l_comm", "num_heads", "head_dim",
                     "salient_count", "latent_count"):
            print(f"  {name:<14} {getattr(p, name)}")
        print(f"  dtype          {'f32' if p.dtype_flag == 0 else 'f16'}")
        print(f"  source_indices {list(p.source_indices)}")
        print(f"  size_bytes     {p.size_bytes()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="laco", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one episode and write metrics CSV")
    run_p.add_argument("--scenario", required=True, help="scenario file path")
    run_p.add_argument("--paradigm", default=None, help="override the file's paradigm")
    run_p.add_argument("--out", required=True, help="metrics CSV output path")
    run_p.add_argument("--telemetry", default=None, help="optional telemetry.bin output")
    run_p.add_argument("--payload-dir", default=None, help="dump per-tick payloads here")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a parameter grid and write CSV")
    sweep_p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument("--scenario", required=True, action="append",
                         help="scenario file (repeatable)")
    sweep_p.add_argument("--paradigm", default=None)
    sweep_p.add_argument("--out", required=True)
    sweep_p.set_defaults(func=_cmd_sweep)

    an_p = sub.add_parser("analyze", help="diagnostics CSVs from a telemetry stream")
    an_p.add_argument("--in", dest="infile", required=True, help="telemetry.bin path")
    an_p.add_argument("--out", required=True, help="output directory")
    an_p.set_defaults(func=_cmd_analyze)

    dump_p = sub.add_parser("dump-payload", help="print a parsed payload header")
    dump_p.add_argument("payload", nargs="+", help="payload .bin file(s)")
    dump_p.set_defaults(func=_cmd_dump_payload)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LacoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
