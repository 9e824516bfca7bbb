"""Command-line interface.

Subcommands:
    simulate  config -> per-second trace CSVs
    keyrate   trace CSV + strategy flags -> key length, with each block's
              finite-key diagnostics (sampling deviation mu, EC leakage)
    optimize  trace CSV -> threshold/sampling sweep CSV
    compare   trace CSV -> blockwise vs non-blockwise + improvement
    sweep     full experiment -> results CSV + plot data

Everything is deterministic; identical inputs produce byte-identical files.
Exit codes: 0 success, 2 config/validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import harness
from .config import ConfigError, ExperimentConfig, load_config
from .strategy import BlockingPolicy, evaluate_block, improvement

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def _add_common(parser: argparse.ArgumentParser, trace: bool = False, out: bool = True):
    parser.add_argument("--config", help="JSON config file (defaults built in)")
    if out:
        parser.add_argument("--out", default=".", help="output directory")
    if trace:
        parser.add_argument("--trace", required=True, help="trace CSV to analyze")
    else:
        parser.add_argument(
            "--altitude", type=float, action="append",
            help="altitude in meters (repeatable; default: config altitudes)",
        )
        parser.add_argument(
            "--pair", action="append", metavar="A:B",
            help="station pair as NameA:NameB (repeatable; default: config pairs)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satqkd",
        description="Satellite entanglement-QKD trace simulation and "
        "blockwise post-processing optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate per-second fidelity trace CSVs")
    _add_common(p)

    p = sub.add_parser("keyrate", help="key length of a trace under one strategy")
    _add_common(p, trace=True, out=False)
    p.add_argument(
        "--boundaries", default="",
        help="comma-separated block boundaries, e.g. 0.90,0.98 (empty: non-blockwise)",
    )

    p = sub.add_parser("optimize", help="threshold/sampling sweep over a trace")
    _add_common(p, trace=True)

    p = sub.add_parser("compare", help="blockwise vs non-blockwise on a trace")
    _add_common(p, trace=True, out=False)

    p = sub.add_parser("sweep", help="full pairs x altitudes experiment")
    _add_common(p)
    return parser


def _resolve(args) -> ExperimentConfig:
    config = load_config(args.config)
    if getattr(args, "altitude", None):
        config = replace(config, altitudes=tuple(args.altitude))
    if getattr(args, "pair", None):
        pairs = []
        for spec in args.pair:
            parts = spec.split(":")
            if len(parts) != 2:
                raise ConfigError(f"--pair must look like NameA:NameB, got {spec!r}")
            pairs.append((parts[0], parts[1]))
        config = replace(config, pairs=tuple(pairs))
    return config


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc
    return out


def cmd_simulate(args) -> int:
    config = _resolve(args)
    out = _outdir(args)
    meta = {"config_sha256": config.hash()}
    for pair in config.pairs:
        for altitude in config.altitudes:
            trace = harness.run_trace(config, pair, altitude)
            name = f"trace_{harness.pair_name(pair)}_{int(altitude)}.csv"
            cell_meta = {**meta, "altitude_m": int(altitude)}
            harness.emit_trace_csv(trace, out / name, meta=cell_meta)
            harness.emit_plotdata(trace, out / f"plotdata_{name}", meta=cell_meta)
            print(f"wrote {out / name}")
            del trace  # before the next cell's run_trace builds its work arrays
    return EXIT_OK


def _parse_boundaries(text: str) -> BlockingPolicy:
    if not text.strip():
        return BlockingPolicy(())
    try:
        return BlockingPolicy(tuple(float(b) for b in text.split(",")))
    except ValueError as exc:
        raise ConfigError(f"bad --boundaries {text!r}: {exc}") from exc


def cmd_keyrate(args) -> int:
    config = _resolve(args)
    policy = _parse_boundaries(args.boundaries)
    trace, _ = harness.read_trace_csv(args.trace)
    outcome = evaluate_block(trace, policy, config.grids, config.security)
    print(f"pair={trace.pair} strategy={outcome.label} secret_bits={outcome.secret_bits}")
    for b in outcome.per_block:
        theta = harness.format_threshold(b.threshold)
        rate = "none" if b.sampling_rate is None else f"{b.sampling_rate:.6g}"
        print(
            f"  block [{b.fidelity_lo:g},{b.fidelity_hi:g}) bits={b.block_bits} "
            f"m={b.test_bits} qber={b.qber:.6f} threshold={theta} rate={rate} "
            f"secret_bits={b.secret_bits} mu={b.mu:.6g} leak={b.ec_leakage:.6g}"
        )
    return EXIT_OK


def cmd_optimize(args) -> int:
    config = _resolve(args)
    trace, _ = harness.read_trace_csv(args.trace)
    out = _outdir(args)
    sweep = harness.threshold_sweep(trace, config)
    path = out / f"optimize_{trace.pair}.csv"
    with harness._open_out(path, {"config_sha256": config.hash(), "pair": trace.pair}) as fh:
        fh.write("threshold,sampling_rate,secret_bits\n")
        for theta, rate, bits in sweep:
            rate_s = "" if rate is None else f"{rate:.6g}"
            fh.write(f"{theta:g},{rate_s},{bits}\n")
    best = max(sweep, key=lambda row: row[2])
    print(f"wrote {path}")
    print(f"best threshold={best[0]:g} secret_bits={best[2]}")
    return EXIT_OK


def cmd_compare(args) -> int:
    config = _resolve(args)
    trace, _ = harness.read_trace_csv(args.trace)
    outcomes = harness.strategy_outcomes(trace, config)
    best = outcomes.pop("best-block", None)
    # non-blockwise (one block) first, then the policies by block count
    for outcome in sorted(outcomes.values(), key=lambda o: len(o.per_block)):
        print(f"{outcome.label} secret_bits={outcome.secret_bits}")
    if best is not None:  # with no policies there is nothing to choose, as in `sweep`
        imp = improvement(best.secret_bits, outcomes["non-blockwise"].secret_bits)
        print(f"best={best.label} improvement={harness.format_improvement(imp)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _resolve(args)
    out = _outdir(args)
    rows = harness.run_experiment(config)
    meta = {"config_sha256": config.hash()}
    harness.emit_results_csv(rows, out / "results.csv", meta=meta)
    harness.emit_plotdata(rows, out / "plotdata_results.csv", meta=meta)
    print(f"wrote {out / 'results.csv'}")
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "keyrate": cmd_keyrate,
    "optimize": cmd_optimize,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
