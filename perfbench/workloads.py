"""The benchmark's workloads: scenario definitions and one unit of work each.

A unit is what ``wall_s`` times: one ``run_simulation`` for ``reference``
and ``dense``, the whole two-fraction ``replicate`` sweep for ``sweep``.  A
unit returns its timings, its output digest and the failures of its output
checks; every log it produced is dropped before it returns, so repeated
units do not stack their memory.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from . import checks

#: The paper's quarter-lifetime channel rates (1,9) -> (2,8) -> (3,7) -> (1,9).
PAPER_RATES = ((1.0, 9.0), (2.0, 8.0), (3.0, 7.0), (1.0, 9.0))

REFERENCE_INI = "configs/default.ini"

DENSE_DEVICES = 400
DENSE_SIDE_M = 200.0
DENSE_ROUNDS = 100

SWEEP_FRACTIONS = (0.1, 0.5)
SWEEP_REPLICAS = 4
SWEEP_WORKERS = 2
SWEEP_ROUNDS = 300


def quarter_schedule(max_rounds: int) -> list[tuple[int, float, float]]:
    quarter = max(max_rounds // 4, 1)
    return [(i * quarter, a0, a1) for i, (a0, a1) in enumerate(PAPER_RATES)]


def ini_schedule(path: Path) -> list[tuple[int, float, float]]:
    """The ``[channel] phases`` of a scenario file, read by the benchmark."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(path)
    out = []
    for chunk in parser["channel"]["phases"].replace("\n", ",").split(","):
        if chunk.strip():
            start, a0, a1 = chunk.strip().split(":")
            out.append((int(start), float(a0), float(a1)))
    return sorted(out)


def scenario(tc, root: Path, schedule, **overrides):
    """``default.ini`` with the given channel schedule and overrides."""
    base = tc.config.load_config(str(root / REFERENCE_INI))
    phases = tuple(tc.medium.ChannelPhase(a0, a1, start_round=s)
                   for s, a0, a1 in schedule)
    return tc.config.with_overrides(base, phases=phases, **overrides)


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class UnitResult:
    #: durations that add up to the unit's wall time, in order
    segments: list[float]
    #: ``segments[loop_from:]`` is the round loop, anything before is set-up
    loop_from: int
    rounds: int
    device_rounds: int
    digest: str
    errors: list[str]
    #: simulated statistics, for the record
    stats: dict = field(default_factory=dict)
    #: tracer snapshots taken in worker processes
    traces: list[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.segments)


class RoundProbe:
    """Stamps the start of every ``run_round`` call; the first ends set-up."""

    def __init__(self, engine):
        self.starts: list[float] = []
        original = engine.run_round

        @functools.wraps(original)
        def probe(*args, **kwargs):
            self.starts.append(perf_counter())
            return original(*args, **kwargs)

        engine.run_round = probe


def _sim_stats(metrics: dict, rows) -> dict:
    return {
        "network_lifetime": metrics["network_lifetime"],
        "lifetime_censored": bool(metrics["lifetime_censored"]),
        "timely_rate": metrics["timely_rate"],
        "decision_accuracy": metrics["decision_accuracy"],
        "total_attacks": metrics["total_attacks"],
        "rounds": len(rows),
    }


class SingleRun:
    """One ``run_simulation`` of a fixed scenario per unit."""

    def __init__(self, tc, root: Path, name: str, seed: int):
        self.tc = tc
        self.probe = RoundProbe(tc.engine)
        if name == "reference":
            self.schedule = ini_schedule(root / REFERENCE_INI)
            overrides = {}
        else:
            self.schedule = quarter_schedule(DENSE_ROUNDS)
            overrides = dict(device_count=DENSE_DEVICES, area_width=DENSE_SIDE_M,
                             area_height=DENSE_SIDE_M, max_rounds=DENSE_ROUNDS)
        self.cfg = scenario(tc, root, self.schedule, seed=seed, **overrides)

    def setup_cfgs(self):
        return [self.cfg]

    def final_errors(self) -> list[str]:
        return []

    def run_unit(self) -> UnitResult:
        engine = self.tc.engine
        self.probe.starts.clear()
        t0 = perf_counter()
        log = engine.run_simulation(self.cfg)
        t1 = perf_counter()
        marks = [t0, *self.probe.starts, t1]
        rows = checks.rows_of(log)
        metrics = engine.run_metrics(log)
        errors = (
            checks.check_rounds(rows, self.schedule)
            + checks.check_training(log.training)
            + checks.check_accuracy(rows)
            + checks.check_malicious_trend(rows, self.cfg.rounds_per_cycle)
        )
        i_alive = checks.ROW_FIELDS.index("alive")
        return UnitResult(
            segments=[b - a for a, b in zip(marks, marks[1:])],
            loop_from=1,
            rounds=len(rows),
            device_rounds=sum(row[i_alive] for row in rows),
            digest=digest({"rows": rows, "metrics": metrics}),
            errors=errors,
            stats=_sim_stats(metrics, rows),
        )


class Sweep:
    """Two malicious fractions, each replicated on a worker pool, per unit.

    Workers report each replica's per-round rows, and with a tracer set its
    snapshot, through one JSON file per replica; the parent checks them after
    the timed region.
    """

    def __init__(self, tc, root: Path, seed: int):
        self.tc = tc
        self.probe = RoundProbe(tc.engine)
        #: set by the caller once the program is patched for tracing
        self.tracer = None
        self.schedule = quarter_schedule(SWEEP_ROUNDS)
        self.cfgs = [
            scenario(tc, root, self.schedule, seed=seed, max_rounds=SWEEP_ROUNDS,
                     malicious_fraction=f)
            for f in SWEEP_FRACTIONS
        ]
        self.channel = root / "perfbench" / "out" / f"sweep-{os.getpid()}"

    def setup_cfgs(self):
        """Every replica's scenario: the sweep sets up each of them once."""
        engine, config = self.tc.engine, self.tc.config
        return [config.with_overrides(c, seed=engine.derive_seed(c.seed, i))
                for i in range(SWEEP_REPLICAS) for c in self.cfgs]

    def _reporting(self, original):
        parent, channel, tracer = os.getpid(), self.channel, self.tracer

        @functools.wraps(original)
        def reporting(cfg, *args, **kwargs):
            if os.getpid() == parent:
                return original(cfg, *args, **kwargs)
            if tracer is not None:
                tracer.reset()
            log = original(cfg, *args, **kwargs)
            record = {
                "fraction": cfg.malicious_fraction,
                "seed": cfg.seed,
                "rows": checks.rows_of(log),
                "training_errors": checks.check_training(log.training),
                "trace": tracer.snapshot() if tracer is not None else None,
            }
            path = channel / f"{cfg.malicious_fraction}-{cfg.seed}.json"
            path.write_text(json.dumps(record))
            return log

        return reporting

    def run_unit(self) -> UnitResult:
        engine = self.tc.engine
        shutil.rmtree(self.channel, ignore_errors=True)
        self.channel.mkdir(parents=True)
        original = engine.run_simulation
        engine.run_simulation = self._reporting(original)
        summaries, segments = [], []
        try:
            for cfg in self.cfgs:
                t0 = perf_counter()
                summaries.append(
                    engine.replicate(cfg, SWEEP_REPLICAS, workers=SWEEP_WORKERS))
                segments.append(perf_counter() - t0)
        finally:
            engine.run_simulation = original
        records = sorted(
            (json.loads(p.read_text()) for p in self.channel.glob("*.json")),
            key=lambda rec: (rec["fraction"], rec["seed"]),
        )
        shutil.rmtree(self.channel, ignore_errors=True)
        self.summaries = summaries
        return self._finish(segments, summaries, records)

    def _finish(self, segments, summaries, records) -> UnitResult:
        errors = []
        if len(records) != len(SWEEP_FRACTIONS) * SWEEP_REPLICAS:
            errors.append(f"sweep: {len(records)} replica reports, expected "
                          f"{len(SWEEP_FRACTIONS) * SWEEP_REPLICAS}")
        rounds = device_rounds = 0
        i_alive = checks.ROW_FIELDS.index("alive")
        for rec in records:
            label = f"fraction {rec['fraction']} seed {rec['seed']}: "
            rows = [tuple(row) for row in rec["rows"]]
            errors += rec["training_errors"]
            errors += checks.check_rounds(rows, self.schedule, label)
            errors += checks.check_accuracy(rows, label)
            errors += checks.check_malicious_trend(
                rows, self.cfgs[0].rounds_per_cycle, label)
            rounds += len(rows)
            device_rounds += sum(row[i_alive] for row in rows)
        errors += checks.check_sweep_order(*summaries)
        stats = {}
        for cfg, summary in zip(self.cfgs, summaries):
            errors += checks.check_confidence(
                summary, f"fraction {cfg.malicious_fraction}: ")
            stats[str(cfg.malicious_fraction)] = {
                m: s.mean for m, s in summary.scalars.items()}
        payload = {
            "rows": [[rec["fraction"], rec["seed"], rec["rows"]] for rec in records],
            "summaries": [
                {
                    "scalars": {m: [s.mean, s.ci_low, s.ci_high, s.values]
                                for m, s in summary.scalars.items()},
                    "series": summary.malicious_clusters_series,
                    "censored": summary.censored_lifetimes,
                }
                for summary in summaries
            ],
        }
        return UnitResult(
            segments=segments,
            loop_from=0,
            rounds=rounds,
            device_rounds=device_rounds,
            digest=digest(payload),
            errors=errors,
            stats=stats,
            traces=[rec["trace"] for rec in records if rec["trace"] is not None],
        )


    def final_errors(self) -> list[str]:
        """Replica 0 of each fraction again, serially in this process.

        Runs once per benchmark run, after the timed units; the units are
        identical, so the last unit's pooled result stands for all.
        """
        engine, config = self.tc.engine, self.tc.config
        errors = []
        for cfg, summary in zip(self.cfgs, self.summaries):
            log = engine.run_simulation(
                config.with_overrides(cfg, seed=engine.derive_seed(cfg.seed, 0)))
            serial = engine.run_metrics(log)
            del log
            pooled = {m: s.values[0] for m, s in summary.scalars.items()}
            errors += checks.check_replica(
                pooled, serial, f"fraction {cfg.malicious_fraction} replica 0: ")
        return errors


def make(tc, root: Path, name: str, seed: int):
    if name == "sweep":
        return Sweep(tc, root, seed)
    return SingleRun(tc, root, name, seed)


WORKLOADS = ("reference", "dense", "sweep")
