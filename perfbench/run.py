"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 55 --trace 0

The program under test is the ``trustcloudsim`` package in ``src/`` of the
checkout this file sits in; without it the benchmark exits with status 1.
Units of work repeat until the next one would end past ``--seconds``
(at least one runs).  Every unit runs the same seeded inputs, so every unit
must print the same output digest.

``--trace 0`` reports the end-to-end metrics, measured with no tracing.
``--trace 1`` runs one untraced unit, then traced units, and reports the
per-layer metrics; its spans and counters go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Set-up-only runs after each timed unit, so that the set-up samples of a
#: run spread over its whole length, and the fewest samples a run takes.
SETUP_PER_UNIT = 3
SETUP_SAMPLES = 9

MODULES = ("config", "engine", "medium", "protocol", "runtime", "training")


def load_program() -> SimpleNamespace:
    src = ROOT / "src"
    if not (src / "trustcloudsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {src / 'trustcloudsim'} is missing")
    sys.path.insert(0, str(src))
    mods = {m: importlib.import_module(f"trustcloudsim.{m}") for m in MODULES}
    where = Path(mods["engine"].__file__).resolve()
    if src.resolve() not in where.parents:
        sys.exit(f"perfbench: imported trustcloudsim from {where}, not from {src}")
    return SimpleNamespace(**mods)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_units(workload, seconds: float, after_unit=None):
    """Whole units, at least one, until the next would end past ``seconds``.

    ``after_unit`` is called after each unit, inside the run's time.
    Returns the results of the units that completed and the number that
    raised.
    """
    units, failed = [], 0
    start = perf_counter()
    while True:
        t0 = perf_counter()
        try:
            units.append(workload.run_unit())
        except Exception:
            traceback.print_exc()
            failed += 1
        if after_unit is not None:
            after_unit()
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            return units, failed


class SetupSampler:
    """Times set-up-only runs: the workload's scenarios, in turn, cut to one
    round, so each pays exactly what ``run_simulation`` does before its
    first round.
    """

    def __init__(self, tc, workload):
        self.tc, self.workload = tc, workload
        self.cfgs = [tc.config.with_overrides(c, max_rounds=1)
                     for c in workload.setup_cfgs()]
        self.samples: list[float] = []

    def take(self, count: int = SETUP_PER_UNIT) -> None:
        for _ in range(count):
            cfg = self.cfgs[len(self.samples) % len(self.cfgs)]
            self.workload.probe.starts.clear()
            t0 = perf_counter()
            self.tc.engine.run_simulation(cfg)
            self.samples.append(self.workload.probe.starts[0] - t0)


def end_to_end(units, setups) -> dict:
    """Metrics of the median unit, taken segment by segment.

    The units of a run do identical work, so the median of each segment
    (set-up, then each round) over the units keeps a burst of load from
    outside that slowed one unit's stretch of rounds out of the figures.
    """
    segments = [statistics.median(seg) for seg in zip(*(u.segments for u in units))]
    loop = sum(segments[units[0].loop_from:])
    return {
        "wall_s": (sum(segments), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "rounds_per_s": (units[0].rounds / loop, "rounds/s"),
        "device_rounds_per_s": (units[0].device_rounds / loop, "device-rounds/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def measure_traced(tc, workload, args):
    """One untraced unit, then traced units; per-layer metrics per unit."""
    from perfbench import layers, workloads
    from perfbench.tracing import Tracer

    start = perf_counter()
    plain, failed = run_units(workload, 0.0)
    tracer = Tracer()
    for name in layers.install(tracer, tc):
        print(f"perfbench: hook {name} not found, its metric reads 0", file=sys.stderr)
    workload.tracer = tracer
    try:
        traced, traced_failed = run_units(
            workload, max(args.seconds - (perf_counter() - start), 0.0))
    finally:
        tracer.unpatch()
    units = plain + traced
    if not (plain and traced):
        return units, failed + traced_failed, {}
    merged = Tracer()
    for snap in [s for u in traced for s in u.traces] or [tracer.snapshot()]:
        merged.merge(snap)
    overhead = (statistics.median(u.wall_s for u in traced)
                - statistics.median(u.wall_s for u in plain))
    workers = workloads.SWEEP_WORKERS if args.workload == "sweep" else 1
    layer = layers.metrics(merged, len(traced), sum(u.wall_s for u in traced),
                           workers, overhead)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
        {"units": len(traced), "layer": layer, **merged.snapshot()}))
    unit_of = {name: unit for name, unit, _ in layers.METRICS}
    return units, failed + traced_failed, {n: (v, unit_of[n]) for n, v in layer.items()}


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    tc = load_program()
    workload = workloads.make(tc, ROOT, args.workload, args.seed)
    if args.trace:
        units, failed, values = measure_traced(tc, workload, args)
    else:
        setup = SetupSampler(tc, workload)
        units, failed = run_units(workload, args.seconds, setup.take)
        setup.take(SETUP_SAMPLES - len(setup.samples))
        values = end_to_end(units, setup.samples) if units else {}

    print("perfbench: unit wall_s " + " ".join(f"{u.wall_s:.3f}" for u in units),
          file=sys.stderr)
    errors = [e for u in units for e in u.errors]
    digests = sorted({u.digest for u in units})
    if units:
        errors += workload.final_errors()
        print(f"digest {args.workload} seed={args.seed} sha256={digests[0]}")
        print(f"stats {args.workload} seed={args.seed} "
              f"{json.dumps(units[0].stats, sort_keys=True)}")
    if len(digests) > 1:
        errors.append(f"units of one run printed {len(digests)} different digests")
    for line in dict.fromkeys(errors):
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    result = {
        "correct": bool(units) and not errors,
        "attempted": len(units) + failed,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"digest": digests[0] if digests else None,
                    "stats": units[0].stats if units else None,
                    "units": len(units), **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
