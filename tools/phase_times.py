"""Seconds per section of one default run, timed by wrapping from outside.

Wraps ``engine.run_training_phase`` ("training": the set-up's training of
the standard clouds, outside the round loop) and, in the ``protocol``
module, the names a round calls: the data phase (``run_data_phase``),
broadcast reception (``receive_announcements``, where the tree has it;
otherwise reception counts as the rest) and the classifier
(``classify_pairs``: a round's first call is join classification, its second
post classification), and ``engine.run_round`` for the whole round loop.
"The rest" is the round loop minus those sections.  Where the tree has
``normals.ClassifierNormals``, "classifier normals" is the time the
classifier spends obtaining its standard normals (waiting on and copying
from the helper, or drawing them locally); it lies inside the two
classification sections and is not subtracted again; run the tool under
``taskset -c 0`` to time the in-process path.  Where the tree has
``runtime.TrustState``, "individual clouds" is the time spent in
``TrustState.clouds``, rebuilding stale individual clouds and reading them;
it too lies inside the two classification sections.  Usage, from the root
of the tree to time::

    PYTHONPATH=src python tools/phase_times.py [--config configs/default.ini]
        [--seed 1] [--repeat 3]

Prints one JSON object: the median over the repeats of every section.
"""

from __future__ import annotations

import argparse
import json
import statistics
from time import perf_counter

from trustcloudsim import engine, protocol, runtime
from trustcloudsim.config import load_config, with_overrides

try:
    from trustcloudsim import normals
except ImportError:  # a tree from before the classifier had its own normals
    normals = None

#: sections outside the round loop
SETUP = ("training",)

#: sections timed inside other sections, each with the sections it lies in
NESTED = {
    "classifier normals": ("join classification", "post classification"),
    "individual clouds": ("join classification", "post classification"),
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

    patched = [(protocol, "run_data_phase", "data phase"),
               (protocol, "classify_pairs", classification)]
    if hasattr(protocol, "receive_announcements"):
        patched.append((protocol, "receive_announcements", "reception"))
    if normals is not None:
        patched.append((normals.ClassifierNormals, "standard_normal",
                        "classifier normals"))
    if hasattr(runtime, "TrustState"):
        patched.append((runtime.TrustState, "clouds", "individual clouds"))
    patched.append((engine, "run_training_phase", "training"))
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
        v for k, v in spent.items()
        if k not in ("round loop", "run", *SETUP, *NESTED)
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
    print(json.dumps({k: round(statistics.median(r[k] for r in runs), 4)
                      for k in runs[0]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
