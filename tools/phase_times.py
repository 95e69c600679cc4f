"""Seconds per section of one default run, timed by wrapping from outside.

Wraps, in the ``protocol`` module, each phase function a round runs in
order: election (``elect_heads``), reception (``receive_announcements``),
joining (``join_clusters``), the data phase (``run_data_phase``),
monitoring (``monitor``), inference (``infer_head_trust``), the
recommendation exchange (``exchange_recommendations``), classification
(``classify_written``) and the standard-cloud update (``update_standards``);
``engine.run_round`` for the whole round loop, ``engine.build_scenario`` and
``engine.run_training_phase`` ("set-up" and "training", outside the round
loop).  "The rest" is the round loop minus its phases: ``run_round``'s own
glue.  "Engine bookkeeping" is the run minus set-up, training and the round
loop: the per-round statistics.

Some sections lie inside others and are not subtracted again: the
classifier (``classify_pairs``: "join classification" inside joining,
"post classification" inside classification); "similarities", the
classifier's drop sampling (``runtime.similarities``: its normals and the
memberships of the rows the margin rules leave open); "individual clouds",
the time spent in ``runtime.TrustState.clouds``, rebuilding stale
individual clouds and reading them; and inside training,
"training rounds", the labeling rounds (``engine.run_training_round``), and
"standard clouds", the standard clouds built from their drops
(``training.backward_cloud``).  Usage, from the root of the tree to time::

    PYTHONPATH=src python tools/phase_times.py [--config configs/default.ini]
        [--seed 1] [--repeat 3]

Prints one JSON object: the median over the repeats of every section.
"""

from __future__ import annotations

import argparse
import json
import statistics
from time import perf_counter

from trustcloudsim import engine, protocol, runtime, training
from trustcloudsim.config import load_config, with_overrides

#: sections outside the round loop
SETUP = ("set-up", "training", "engine bookkeeping")

#: the round's phases, in order, and the protocol functions that run them
PHASES = (
    ("election", "elect_heads"),
    ("reception", "receive_announcements"),
    ("joining", "join_clusters"),
    ("data phase", "run_data_phase"),
    ("monitoring", "monitor"),
    ("inference", "infer_head_trust"),
    ("exchange", "exchange_recommendations"),
    ("classification", "classify_written"),
    ("update", "update_standards"),
)

#: sections timed inside other sections, each with the sections it lies in
NESTED = {
    "join classification": ("joining",),
    "post classification": ("classification",),
    "similarities": ("join classification", "post classification"),
    "individual clouds": ("join classification", "post classification"),
    "training rounds": ("training",),
    "standard clouds": ("training",),
}


def time_sections(cfg) -> dict[str, float]:
    spent: dict[str, float] = {}
    calls_this_round = [0]

    def wrap(module, name, label):
        original = getattr(module, name)

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                key = label() if callable(label) else label
                spent[key] = spent.get(key, 0.0) + perf_counter() - start

        setattr(module, name, timed)
        return original

    def classification():
        calls_this_round[0] += 1
        return ("join classification", "post classification")[
            min(calls_this_round[0], 2) - 1
        ]

    def round_loop():
        calls_this_round[0] = 0
        return "round loop"

    patched = [
        *((protocol, name, label) for label, name in PHASES),
        (protocol, "classify_pairs", classification),
        (runtime, "similarities", "similarities"),
        (runtime.TrustState, "clouds", "individual clouds"),
        (engine, "build_scenario", "set-up"),
        (engine, "run_training_phase", "training"),
        (engine, "run_training_round", "training rounds"),
        (training, "backward_cloud", "standard clouds"),
    ]
    originals = [(m, n, wrap(m, n, label)) for m, n, label in patched]
    originals.append((engine, "run_round", wrap(engine, "run_round", round_loop)))
    try:
        start = perf_counter()
        engine.run_simulation(cfg)
        spent["run"] = perf_counter() - start
    finally:
        for module, name, original in originals:
            setattr(module, name, original)
    spent["rest"] = spent["round loop"] - sum(
        spent.get(label, 0.0) for label, _ in PHASES
    )
    spent["engine bookkeeping"] = spent["run"] - spent["round loop"] - sum(
        spent[k] for k in ("set-up", "training")
    )
    return spent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default="configs/default.ini")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    cfg = with_overrides(load_config(args.config), seed=args.seed)
    runs = [time_sections(cfg) for _ in range(args.repeat)]
    print(json.dumps({k: round(statistics.median(r.get(k, 0.0) for r in runs), 4)
                      for k in runs[0]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
