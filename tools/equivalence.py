"""Statistical-equivalence gate: a base commit against a candidate tree.

A change that alters the random stream on purpose cannot keep the golden
outputs, so this gate compares behaviour instead.  It runs the reference
scenario (``configs/default.ini``) of both trees on fresh seeds at
malicious fractions 0.1, 0.2 and 0.5 and compares, per fraction, five
evaluation metrics:

- the four scalar metrics of ``engine.SCALAR_METRICS`` (network lifetime,
  timely rate, decision accuracy, total attacks);
- the malicious-cluster series (the per-cycle mean number of clusters with
  a malicious head), taken as three block means: over the first quarter,
  the middle half and the last quarter of its cycles.

That is seven comparisons a fraction, 21 in all.  Each comparison is the
difference of means, candidate minus base, with a Welch confidence
interval.  The intervals are Bonferroni-corrected over all comparisons of
one gate run: each has level 1 - 0.05 / 21, so that all of them hold
together with probability at least 95 %.

Tolerance, fixed before the gate was first run: a comparison passes when
its interval contains 0, or when the whole interval lies within ±1 % of
the base mean (``RELATIVE_BAND``).  The gate passes when every comparison
passes.  The band is never widened to let a change through; a negative
control that passes calls for more seeds instead.

The two arms run on disjoint seed sets (the base on ``derive_seed(base
master, i)``, the candidate on ``derive_seed(candidate master, i)``), so
the samples are independent, as Welch's interval assumes, and a base
compared with an unchanged copy of itself is a true null comparison.

The base commit is extracted with ``git archive`` into a temporary
directory, and each arm runs in its own subprocess whose ``PYTHONPATH``
points at that tree's ``src``.  Usage, from the repository root::

    python tools/equivalence.py                     # HEAD against the working tree
    python tools/equivalence.py --base HEAD~1       # a committed change
    python tools/equivalence.py --base REV --candidate DIR --seeds 20
    python tools/equivalence.py --save-dir out/     # keep both arms' samples
    python tools/equivalence.py --base-samples out/base.json ...  # reuse an arm

Exit status 0 when every comparison passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FRACTIONS = (0.1, 0.2, 0.5)
SCALARS = ("network_lifetime", "timely_rate", "decision_accuracy", "total_attacks")
BLOCKS = ("malicious_clusters_first_quarter", "malicious_clusters_middle_half",
          "malicious_clusters_last_quarter")
METRICS = SCALARS + BLOCKS
#: Family-wise error rate of one gate run.
ALPHA = 0.05
#: A comparison whose interval lies within this fraction of the base mean
#: passes even when the interval excludes 0.
RELATIVE_BAND = 0.01

REPO = Path(__file__).resolve().parent.parent


# --- statistics ---------------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for aa in (
            m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _betai(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t: float, df: float) -> float:
    """Student's t distribution function with ``df`` degrees of freedom."""
    tail = 0.5 * _betai(df / 2.0, 0.5, df / (df + t * t))
    return 1.0 - tail if t > 0 else tail


def t_quantile(p: float, df: float) -> float:
    """The t with ``t_cdf(t, df) == p``, for 0.5 <= p < 1, by bisection."""
    lo, hi = 0.0, 1.0
    while t_cdf(hi, df) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bonferroni_level(comparisons: int, alpha: float = ALPHA) -> float:
    """Two-sided confidence level of each of ``comparisons`` intervals."""
    return 1.0 - alpha / comparisons


def welch_ci(base: list[float], cand: list[float], level: float):
    """(mean difference cand - base, low, high) of a Welch interval."""
    nb, nc = len(base), len(cand)
    if nb < 2 or nc < 2:
        raise ValueError("each sample needs at least 2 values")
    mb, mc = sum(base) / nb, sum(cand) / nc
    vb = sum((v - mb) ** 2 for v in base) / (nb - 1) / nb
    vc = sum((v - mc) ** 2 for v in cand) / (nc - 1) / nc
    diff = mc - mb
    se = math.sqrt(vb + vc)
    if se == 0.0:
        return diff, diff, diff
    df = (vb + vc) ** 2 / (vb**2 / (nb - 1) + vc**2 / (nc - 1))
    half = t_quantile(1.0 - (1.0 - level) / 2.0, df) * se
    return diff, diff - half, diff + half


def passes(low: float, high: float, base_mean: float) -> bool:
    """The interval contains 0, or lies within the band around the base mean."""
    limit = RELATIVE_BAND * abs(base_mean)
    return low <= 0.0 <= high or (-limit <= low and high <= limit)


def block_means(series: list[float]) -> list[float]:
    """Means over the first quarter, middle half and last quarter of a series."""
    quarter = max(len(series) // 4, 1)
    parts = (series[:quarter], series[quarter : len(series) - quarter],
             series[len(series) - quarter :])
    return [sum(p) / len(p) if p else math.nan for p in parts]


def compare(base: dict, cand: dict) -> list[dict]:
    """Every comparison of two arms' samples, as table rows."""
    keys = [(f, m) for f in FRACTIONS for m in METRICS]
    level = bonferroni_level(len(keys))
    rows = []
    for fraction, metric in keys:
        b = [v for v in base[str(fraction)][metric] if math.isfinite(v)]
        c = [v for v in cand[str(fraction)][metric] if math.isfinite(v)]
        base_mean = sum(b) / len(b) if b else math.nan
        try:
            diff, low, high = welch_ci(b, c, level)
            ok = passes(low, high, base_mean)
        except ValueError:
            diff = low = high = math.nan
            ok = False
        rows.append(dict(
            fraction=fraction, metric=metric, base_mean=base_mean,
            candidate_mean=sum(c) / len(c) if c else math.nan,
            diff=diff, low=low, high=high, n_base=len(b), n_candidate=len(c),
            level=level, passed=ok,
        ))
    return rows


def format_table(rows: list[dict]) -> str:
    lines = [
        f"{'fraction':>8} {'metric':<34} {'base':>10} {'candidate':>10} "
        f"{'diff':>10} {'CI low':>10} {'CI high':>10}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['fraction']:>8} {r['metric']:<34} {r['base_mean']:>10.4f} "
            f"{r['candidate_mean']:>10.4f} {r['diff']:>10.4f} {r['low']:>10.4f} "
            f"{r['high']:>10.4f}  {'pass' if r['passed'] else 'FAIL'}"
        )
    return "\n".join(lines)


# --- collecting one arm ---------------------------------------------------------


def _one_run(root: str, fraction: float, seed: int) -> dict:
    """The five metrics of one reference run, in the tree on sys.path."""
    from trustcloudsim.config import load_config, with_overrides
    from trustcloudsim.engine import (
        metric_malicious_clusters,
        run_metrics,
        run_simulation,
    )

    cfg = with_overrides(
        load_config(os.path.join(root, "configs", "default.ini")),
        malicious_fraction=fraction, seed=seed,
    )
    log = run_simulation(cfg)
    metrics = run_metrics(log)
    out = {m: float(metrics[m]) for m in SCALARS}
    out.update(zip(BLOCKS, block_means(metric_malicious_clusters(log))))
    return out


def collect(root: str, master: int, seeds: int, workers: int) -> dict:
    """{fraction: {metric: [value per seed]}} of the tree on sys.path."""
    import multiprocessing

    from trustcloudsim.engine import derive_seed

    tasks = [(root, f, derive_seed(master, i)) for f in FRACTIONS for i in range(seeds)]
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        results = pool.starmap(_one_run, tasks)
    samples = {str(f): {m: [] for m in METRICS} for f in FRACTIONS}
    for (_, fraction, _), result in zip(tasks, results):
        for m in METRICS:
            samples[str(fraction)][m].append(result[m])
    return samples


def _collect_arm(tree: Path, master: int, seeds: int, workers: int, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "collect", "--tree", str(tree),
         "--master", str(master), "--seeds", str(seeds), "--workers", str(workers),
         "--out", str(out)],
        env=env, check=True,
    )
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    col = sub.add_parser("collect", help="run one arm in the tree on PYTHONPATH")
    col.add_argument("--tree", required=True)
    col.add_argument("--master", type=int, required=True)
    col.add_argument("--seeds", type=int, required=True)
    col.add_argument("--workers", type=int, default=2)
    col.add_argument("--out", required=True)
    parser.add_argument("--base", default="HEAD", help="base commit (default HEAD)")
    parser.add_argument("--candidate", default=str(REPO),
                        help="candidate tree (default: this working tree)")
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--base-master", type=int, default=701)
    parser.add_argument("--candidate-master", type=int, default=702)
    parser.add_argument("--base-samples", help="reuse a saved base arm")
    parser.add_argument("--candidate-samples", help="reuse a saved candidate arm")
    parser.add_argument("--save-dir",
                        help="write both arms' samples and the table here")
    args = parser.parse_args(argv)

    if args.command == "collect":
        samples = collect(args.tree, args.master, args.seeds, args.workers)
        Path(args.out).write_text(json.dumps(samples))
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save = Path(args.save_dir) if args.save_dir else tmp
        save.mkdir(parents=True, exist_ok=True)
        if args.base_samples:
            base = json.loads(Path(args.base_samples).read_text())
        else:
            tree = tmp / "base"
            tree.mkdir()
            archive = subprocess.run(["git", "-C", str(REPO), "archive", args.base],
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
            base = _collect_arm(tree, args.base_master, args.seeds, args.workers,
                                save / "base.json")
        if args.candidate_samples:
            cand = json.loads(Path(args.candidate_samples).read_text())
        else:
            cand = _collect_arm(Path(args.candidate).resolve(), args.candidate_master,
                                args.seeds, args.workers, save / "candidate.json")
        rows = compare(base, cand)
        table = format_table(rows)
        (save / "table.txt").write_text(table + "\n")
    print(table)
    failed = sum(not r["passed"] for r in rows)
    print(f"{len(rows) - failed}/{len(rows)} comparisons pass at level "
          f"{rows[0]['level']:.5f} each; band ±{RELATIVE_BAND:.0%} of the base mean")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
