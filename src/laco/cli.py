"""Command-line interface: run, sweep, analyze, dump-payload."""

import argparse
import functools
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
    entropy, sparsity, confusion = [], [], []
    for group in read_telemetry(args.infile):
        columns = (group.offsets, group.ticks, group.agents)
        if group.tags is None:
            curve = sparsity_curve(group.trace)
            entropy.append((*columns, trace_entropy(group.trace)))
            sparsity.append((*columns, curve.cumulative, curve.fraction_for_80))
        else:
            confusion.append((*columns, confusion_index(group.rows, group.tags)))
    emit(args.out, entropy, sparsity, confusion)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it as it was.  It names the
    command; :func:`main` picks its ``_cmd_*`` function at each call."""
    parser = argparse.ArgumentParser(prog="laco", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one episode and write metrics CSV")
    run_p.add_argument("--scenario", required=True, help="scenario file path")
    run_p.add_argument("--paradigm", default=None, help="override the file's paradigm")
    run_p.add_argument("--out", required=True, help="metrics CSV output path")
    run_p.add_argument("--telemetry", default=None, help="optional telemetry.bin output")
    run_p.add_argument("--payload-dir", default=None, help="dump per-tick payloads here")

    sweep_p = sub.add_parser("sweep", help="run a parameter grid and write CSV")
    sweep_p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument("--scenario", required=True, nargs="+", action="extend",
                         help="scenario file(s); repeatable")
    sweep_p.add_argument("--paradigm", default=None)
    sweep_p.add_argument("--out", required=True)

    an_p = sub.add_parser("analyze", help="diagnostics CSVs from a telemetry stream")
    an_p.add_argument("--in", dest="infile", required=True, help="telemetry.bin path")
    an_p.add_argument("--out", required=True, help="output directory")

    dump_p = sub.add_parser("dump-payload", help="print a parsed payload header")
    dump_p.add_argument("payload", nargs="+", help="payload .bin file(s)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"run": _cmd_run, "sweep": _cmd_sweep, "analyze": _cmd_analyze,
                "dump-payload": _cmd_dump_payload}  # read per call: a replaced one takes effect
    try:
        return commands[args.command](args)
    except (LacoError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
