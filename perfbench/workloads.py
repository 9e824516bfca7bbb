"""The benchmark's three workloads and their correctness checks.

Each workload runs in-process CLI commands (`satqkd.cli.main`) in passes.
A pass is one timed section: the whole command set over the workload's
input.  An op is one trace through one command.  Everything a pass writes
goes to its own directory, and every check runs after the timed passes.

  sweep_day         `sweep` over one-day Toronto-DC traces at 500 km and
                    1300 km; 2 ops per pass (one per cell).
  simulate_write    `simulate` of the three default pairs at 800 km over
                    eight hours, writing trace and plotdata CSVs; 3 ops.
  postprocess_read  `compare` and `optimize` on each seeded synthetic
                    trace; 2 ops per trace.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import synth
from keyoracle import KeyOracle
from satqkd import channel, cli, harness
from satqkd.config import load_config
from satqkd.strategy import evaluate_nonblock

SPOT_CHECKS = 64  # seeded seconds per simulated cell checked against link_sample
TOLERANCE_BITS = 2  # allowed key-length difference from the independent oracle

# Geometry and link-budget functions; post-processing must call none of
# them.  channel.fidelity_to_qber is the QBER mapping strategy uses.
SIMULATION_FUNCTIONS = (
    "orbit.station_ecef",
    "orbit.propagate_positions",
    "orbit.elevation_deg",
    "orbit.slant_range_from_elevation",
    "orbit.visible_sats",
    "channel.arm_transmissivity",
    "channel.background_click_prob",
    "channel.accidental_prob",
    "channel.delivered_fidelity",
    "channel.pair_delivery_prob",
    "channel.select_best_satellite",
    "channel.link_sample",
)

STRATEGY_FUNCTIONS = (
    "strategy.evaluate_nonblock",
    "strategy.evaluate_block",
    "strategy.optimize_threshold",
    "strategy.optimize_sampling",
    "strategy.partition",
    "strategy.aggregate_qber",
    "strategy.apply_threshold",
    "finite_key.key_length_nonblock",
)

TRACE_FUNCTIONS = (
    "orbit.propagate_positions",
    "orbit.elevation_deg",
    "orbit.slant_range_from_elevation",
    "channel.arm_transmissivity",
    "channel.background_click_prob",
    "channel.accidental_prob",
    "channel.delivered_fidelity",
    "harness.run_trace",
)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one in-process `satqkd` command; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def complain(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


@dataclass
class Op:
    label: str
    pair_seconds: float
    seconds: float | None = None
    failed: bool = False


@dataclass
class PassRecord:
    index: int
    out: Path
    wall: float = 0.0
    ops: list[Op] = field(default_factory=list)
    code: int | None = None
    error: BaseException | None = None
    detail: dict = field(default_factory=dict)

    def fail(self, op: Op, reason: str) -> None:
        if not op.failed:
            complain(f"pass {self.index} op {op.label}: {reason}")
        op.failed = True


class Workload:
    name = ""
    expected_calls: tuple[str, ...] = ()
    forbidden_calls: tuple[str, ...] = ()

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.config = None

    def _load(self, doc: dict, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1))
        return load_config(str(path))

    def setup(self) -> None:
        """Config write and load, input generation and warm-up; repeatable."""
        raise NotImplementedError

    def run_pass(self, index: int, keep_traces: bool) -> PassRecord:
        raise NotImplementedError

    def check(self, record: PassRecord) -> None:
        """Mark every op of the pass whose output is wrong as failed."""
        raise NotImplementedError

    def roundtrip_mismatch_cells(self, record: PassRecord) -> int:
        return 0


# -- simulation workloads -----------------------------------------------------


@dataclass
class Cell:
    pair: tuple[str, str]
    altitude: float
    config: object
    spots: dict
    trace: object | None


class CellProbe:
    """Wraps `harness.run_trace` for one pass.

    Records when each cell starts, which marks the op boundaries, and keeps
    the samples at the seeded spot-check seconds (the whole trace only when
    asked).  `harness.run_experiment` and `cli.cmd_simulate` both look the
    function up as `harness.run_trace`.
    """

    def __init__(self, spot_times, keep_traces: bool):
        self.spot_times = spot_times
        self.keep_traces = keep_traces
        self.entries: list[float] = []
        self.cells: list[Cell] = []

    def __enter__(self):
        self._original = original = harness.run_trace

        def probe(config, pair, altitude):
            self.entries.append(time.perf_counter())
            trace = original(config, pair, altitude)
            spots = {
                t: trace.samples[int(round(t / config.time_step))] for t in self.spot_times
            }
            self.cells.append(
                Cell(pair, altitude, config, spots, trace if self.keep_traces else None)
            )
            return trace

        harness.run_trace = probe
        return self

    def __exit__(self, *exc):
        harness.run_trace = self._original


def _same_sample(got, want) -> bool:
    if got.time != want.time or got.sat != want.sat:
        return False
    if (got.fidelity is None) != (want.fidelity is None):
        return False
    if got.fidelity is not None and not math.isclose(got.fidelity, want.fidelity, rel_tol=1e-9):
        return False
    return math.isclose(got.sifted_bits, want.sifted_bits, rel_tol=1e-9, abs_tol=1e-12)


def spot_mismatches(cell: Cell) -> int:
    """Seeded seconds of a cell that disagree with the scalar `link_sample`."""
    cfg = cell.config
    stations = (cfg.station(cell.pair[0]), cfg.station(cell.pair[1]))
    const = cfg.constellation_at(cell.altitude)
    return sum(
        not _same_sample(
            got, channel.link_sample(float(t), stations, const, cfg.channel, cfg.min_elevation)
        )
        for t, got in cell.spots.items()
    )


class SimulationWorkload(Workload):
    command: str
    doc: dict
    pinned: dict[str, str]  # output file name -> sha256 at the seed commit

    def expected_cells(self) -> list[tuple[tuple[str, str], float]]:
        return [(tuple(p), a) for p in self.doc["pairs"] for a in self.doc["altitudes_m"]]

    def setup(self) -> None:
        self.config_path = self.work / "config.json"
        self.config = self._load(self.doc, self.config_path)
        warm_path = self.work / "warmup" / "config.json"
        self._load({**self.doc, "horizon_s": 300.0}, warm_path)
        code, _ = run_cli(
            [self.command, "--config", str(warm_path), "--out", str(warm_path.parent)]
        )
        if code != 0:
            raise RuntimeError(f"warm-up {self.command} exited with {code}")
        rng = np.random.default_rng([self.seed, 1])
        horizon = int(self.doc["horizon_s"])
        self.spot_times = sorted(int(t) for t in rng.choice(horizon, SPOT_CHECKS, replace=False))

    def run_pass(self, index: int, keep_traces: bool) -> PassRecord:
        record = PassRecord(index, self.work / f"pass{index}")
        horizon = float(self.doc["horizon_s"])
        record.ops = [Op(f"{a}-{b}@{int(alt)}", horizon) for (a, b), alt in self.expected_cells()]
        argv = [self.command, "--config", str(self.config_path), "--out", str(record.out)]
        with CellProbe(self.spot_times, keep_traces) as probe:
            start = time.perf_counter()
            try:
                record.code, _ = run_cli(argv)
            except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
                record.error = exc
            end = time.perf_counter()
        record.wall = end - start
        record.detail["cells"] = probe.cells
        if len(probe.entries) == len(record.ops):
            bounds = [start, *probe.entries[1:], end]
            for op, t0, t1 in zip(record.ops, bounds, bounds[1:]):
                op.seconds = t1 - t0
        return record

    def check(self, record: PassRecord) -> None:
        if record.error is not None or record.code != 0:
            for op in record.ops:
                record.fail(op, f"{self.command} raised {record.error!r} / exit {record.code}")
            return
        cells = record.detail["cells"]
        expected = self.expected_cells()
        if [(tuple(c.pair), c.altitude) for c in cells] != expected:
            for op in record.ops:
                record.fail(op, f"cells run {[(c.pair, c.altitude) for c in cells]}")
            return
        for op, cell in zip(record.ops, cells):
            bad = spot_mismatches(cell)
            if bad:
                record.fail(op, f"{bad} of {len(cell.spots)} seconds differ from link_sample")
            for name in self.files_of(cell):
                path = record.out / name
                got = sha256(path) if path.is_file() else "missing"
                if got != self.pinned.get(name):
                    record.fail(op, f"{name} sha256 {got} != pinned {self.pinned.get(name)}")
        self.check_rows(record, cells)

    def files_of(self, cell: Cell) -> list[str]:
        raise NotImplementedError

    def check_rows(self, record: PassRecord, cells: list[Cell]) -> None:
        pass


class SweepDay(SimulationWorkload):
    """`sweep` over one-day Toronto-DC traces at the lowest and highest altitude."""

    name = "sweep_day"
    command = "sweep"
    doc = {
        "pairs": [["Toronto", "DC"]],
        "altitudes_m": [500000.0, 1300000.0],
        "horizon_s": 86400.0,
    }
    pinned = {
        "results.csv": "6dcd3d15e2e2f398a7451362dc99d29190489e2cc233e71e1e5fe9eff600ee2a",
        "plotdata_results.csv": "57d636545fdc0ad3cd9c16f6652b040c29ae2be7b695ccc582254a23055a751b",
    }
    expected_calls = (
        *TRACE_FUNCTIONS,
        *STRATEGY_FUNCTIONS,
        "harness.run_experiment",
        "harness.emit_results_csv",
        "harness.emit_plotdata",
        "config.load_config",
        "config.hash",
    )

    def files_of(self, cell: Cell) -> list[str]:
        return list(self.pinned)

    def check_rows(self, record: PassRecord, cells: list[Cell]) -> None:
        path = record.out / "results.csv"
        if not path.is_file():
            return
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        for op, cell in zip(record.ops, cells):
            pair = f"{cell.pair[0]}-{cell.pair[1]}"
            mine = [r for r in rows if r["pair"] == pair and float(r["altitude_m"]) == cell.altitude]
            if not mine or any(r["strategy"] == "NA" for r in mine):
                record.fail(op, f"results.csv has no key rows for {pair} @ {cell.altitude:g}")


class SimulateWrite(SimulationWorkload):
    """`simulate` for all three default pairs at one altitude over eight hours."""

    name = "simulate_write"
    command = "simulate"
    doc = {
        "pairs": [["Toronto", "DC"], ["DC", "Houston"], ["Toronto", "Houston"]],
        "altitudes_m": [800000.0],
        "horizon_s": 28800.0,
    }
    pinned = {
        "trace_Toronto-DC_800000.csv":
            "67320a0fdb81e5343e8ac76b8db5c89bd5ff0c935e7cd17d47e62ee13a6f8480",
        "plotdata_trace_Toronto-DC_800000.csv":
            "6bda567670eadf4b36ec78a1f3c81de6e15e926cb846a214987bc44638119714",
        "trace_DC-Houston_800000.csv":
            "0559e7818f8904d3adbfc4ed9325ae88ef1504529fe096fadf9aee75c731d5be",
        "plotdata_trace_DC-Houston_800000.csv":
            "e5c6d0f49b3eafbb174db70e02c86e55bbb88c8d0eb9b0f3357bd3b25e05238b",
        "trace_Toronto-Houston_800000.csv":
            "96562ebfe4c47ed6ecdddaee31e07838e2692c329d32ff4c1f7216ae931ec000",
        "plotdata_trace_Toronto-Houston_800000.csv":
            "20a1257185f6ad42bc5d2deb20d678f248cbf80dbac09046986677f2a53063f0",
    }
    expected_calls = (
        *TRACE_FUNCTIONS,
        "harness.emit_trace_csv",
        "harness.emit_plotdata",
        "config.load_config",
        "config.hash",
    )

    def files_of(self, cell: Cell) -> list[str]:
        name = f"trace_{cell.pair[0]}-{cell.pair[1]}_{int(cell.altitude)}.csv"
        return [name, f"plotdata_{name}"]

    def roundtrip_mismatch_cells(self, record: PassRecord) -> int:
        """Cells whose non-blockwise key changes when read back from the CSV."""
        grids, security = self.config.grids, self.config.security
        mismatched = 0
        for cell in record.detail["cells"]:
            written, _ = harness.read_trace_csv(record.out / self.files_of(cell)[0])
            before = evaluate_nonblock(cell.trace, grids, security).secret_bits
            after = evaluate_nonblock(written, grids, security).secret_bits
            mismatched += before != after
        return mismatched


# -- post-processing workload -------------------------------------------------


def _grid_doc() -> dict:
    rates = [float(r) for r in np.geomspace(1e-5, 0.05, 50)]
    thresholds = [round(0.70 + 0.02 * i, 2) for i in range(11)]
    return {
        "grids": {"sampling_rates": rates, "thresholds": thresholds},
        "security": {"eps_sec": 1e-9, "eps_cor": 1e-15},
        "policies": [[0.98], [0.90, 0.98]],
    }


def _bits(line: str, prefix: str) -> int | None:
    if not line.startswith(prefix):
        return None
    try:
        return int(line[len(prefix):])
    except ValueError:
        return None


class PostprocessRead(Workload):
    """`compare` and `optimize` on seeded synthetic trace CSVs."""

    name = "postprocess_read"
    commands = ("compare", "optimize")
    expected_calls = (
        *STRATEGY_FUNCTIONS,
        "harness.read_trace_csv",
        "harness.threshold_sweep",
        "config.load_config",
        "config.hash",
    )
    forbidden_calls = SIMULATION_FUNCTIONS

    def setup(self) -> None:
        self.doc = _grid_doc()
        self.config_path = self.work / "config.json"
        self.config = self._load(self.doc, self.config_path)
        inputs = self.work / "inputs"
        self.traces = synth.write_ladder(inputs, self.seed)
        warm = synth.write_warmup(inputs, self.seed)
        for argv in self._argvs(warm, self.work / "warmup"):
            code, _ = run_cli(argv)
            if code != 0:
                raise RuntimeError(f"warm-up {argv[0]} exited with {code}")
        grids, security = self.doc["grids"], self.doc["security"]
        self.oracle = KeyOracle(
            grids["sampling_rates"], grids["thresholds"], self.doc["policies"],
            security["eps_sec"], security["eps_cor"],
        )
        self._expected = {}

    def _argvs(self, trace, out: Path):
        common = ["--config", str(self.config_path), "--trace", str(trace.path)]
        return [["compare", *common], ["optimize", *common, "--out", str(out)]]

    def run_pass(self, index: int, keep_traces: bool) -> PassRecord:
        record = PassRecord(index, self.work / f"pass{index}")
        start = time.perf_counter()
        for i, trace in enumerate(self.traces):
            for argv in self._argvs(trace, record.out):
                op = Op(f"{argv[0]}:{trace.pair}", float(trace.horizon))
                record.ops.append(op)
                t0 = time.perf_counter()
                try:
                    code, text = run_cli(argv)
                except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
                    code, text = None, repr(exc)
                op.seconds = time.perf_counter() - t0
                record.detail[(i, argv[0])] = (code, text)
        record.wall = time.perf_counter() - start
        return record

    def expected(self, i: int) -> dict:
        if i not in self._expected:
            t = self.traces[i]
            self._expected[i] = {
                "non-blockwise": self.oracle.nonblock(t.fidelity, t.sifted_bits),
                **{
                    f"{len(b) + 1}-block": self.oracle.block(t.fidelity, t.sifted_bits, b)
                    for b in self.oracle.policies
                },
                "sweep": self.oracle.threshold_sweep(t.fidelity, t.sifted_bits),
            }
        return self._expected[i]

    def check(self, record: PassRecord) -> None:
        ops = iter(record.ops)
        for i, trace in enumerate(self.traces):
            for command in self.commands:
                op = next(ops)
                code, text = record.detail[(i, command)]
                if code != 0:
                    record.fail(op, f"exit {code}: {text.strip()[-200:]}")
                    continue
                checker = self._check_compare if command == "compare" else self._check_optimize
                reason = checker(self.expected(i), text, record.out, trace)
                if reason:
                    record.fail(op, reason)

    @staticmethod
    def _close(got: int, want: int) -> bool:
        return abs(got - want) <= TOLERANCE_BITS

    def _check_compare(self, want: dict, text: str, out: Path, trace) -> str | None:
        lines = text.splitlines()
        labels = ["non-blockwise"] + [f"{len(b) + 1}-block" for b in self.oracle.policies]
        if len(lines) != len(labels) + 1:
            return f"unexpected compare output {text!r}"
        got = {}
        for label, line in zip(labels, lines):
            bits = _bits(line, f"{label} secret_bits=")
            if bits is None or not self._close(bits, want[label]):
                return f"{line!r} but the oracle gives {want[label]}"
            got[label] = bits
        best = max(labels[1:], key=lambda label: got[label])  # first max: fewer blocks
        nonblock = got["non-blockwise"]
        if nonblock == 0:
            return "non-blockwise key is 0, so the improvement is NA"
        imp = 100.0 * (got[best] - nonblock) / nonblock
        if lines[-1] != f"best={best} improvement={imp:.6f}":
            return f"{lines[-1]!r} does not follow from the key lengths printed"
        return None

    def _check_optimize(self, want: dict, text: str, out: Path, trace) -> str | None:
        path = out / f"optimize_{trace.pair}.csv"
        if not path.is_file():
            return f"{path.name} missing"
        with open(path, newline="") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        if rows[0] != ["threshold", "sampling_rate", "secret_bits"]:
            return f"{path.name}: bad header {rows[0]}"
        rows = rows[1:]
        if [r[0] for r in rows] != [f"{theta:g}" for theta, _ in want["sweep"]]:
            return f"{path.name}: thresholds {[r[0] for r in rows]}"
        for row, (theta, bits) in zip(rows, want["sweep"]):
            if not self._close(int(row[2]), bits):
                return f"{path.name}: threshold {theta:g} gives {row[2]}, oracle {bits}"
        best = max(rows, key=lambda r: int(r[2]))
        line = text.splitlines()[-1] if text else ""
        if line != f"best threshold={best[0]} secret_bits={best[2]}":
            return f"{line!r} does not match {path.name}"
        return None


WORKLOADS = {w.name: w for w in (SweepDay, SimulateWrite, PostprocessRead)}
