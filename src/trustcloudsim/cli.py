"""Command-line front end: run, sweep, and train-only commands.

Every command writes a JSON manifest before any results so a run can be
reproduced bit-exactly from its output directory.  Numeric CSV fields use
decimal notation with at least nine significant digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import __version__
from .config import ScenarioConfig, load_config, with_overrides
from .engine import (
    ReplicationSummary,
    cycle_table,
    metric_decision_accuracy,
    metric_malicious_clusters,
    metric_network_lifetime,
    metric_timely_rate,
    metric_total_attacks,
    replicate,
    run_simulation,
)
from .errors import ConfigError, TrustCloudSimError, UndefinedMetricError

OUTDIR_ENV = "TRUSTCLOUDSIM_OUTDIR"

#: rounds.csv's columns, as RoundStats fields; round_index is headed "round"
ROUND_COLUMNS = (
    "round_index", "bad_prob", "alive", "honest_alive", "heads",
    "clusters_with_members", "malicious_clusters", "packets_sent",
    "packets_received", "timely", "delayed", "dropped", "attack_drops",
    "attack_delays", "direct_to_sink", "decisions", "correct_decisions",
)
#: cycles.csv's columns, as cycle_table keys
CYCLE_COLUMNS = ("cycle", "rounds", "malicious_clusters", "accuracy",
                 "timely_rate", "attacks", "alive")
#: training.csv's columns: TrainingReport fields, then its clouds' ex, en, he
TRAINING_COLUMNS = (
    "device", "rounds_used", "boundary_ok", "forced",
    "malicious_ex", "malicious_en", "malicious_he",
    "normal_ex", "normal_en", "normal_he",
)

SWEEP_PARAMETERS = {
    "malicious_fraction": ("malicious_fraction", float),
    "device_count": ("device_count", int),
    "area_side": (None, float),  # sets both width and height
}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, str)):
        return str(value)
    return f"{value:.10g}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_manifest(outdir: Path, cfg: ScenarioConfig, outputs: list[str],
                    command: str) -> None:
    manifest = {
        "tool": "trustcloudsim",
        "version": __version__,
        "command": command,
        "master_seed": cfg.seed,
        "config": cfg.as_dict(),
        "outputs": outputs,
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _outdir(args) -> Path:
    base = args.out or os.environ.get(OUTDIR_ENV) or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args) -> ScenarioConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = with_overrides(cfg, seed=args.seed)
    return cfg


def cmd_run(args) -> int:
    cfg = _load(args)
    outdir = _outdir(args)
    outputs = ["rounds.csv", "cycles.csv", "summary.txt"]
    _write_manifest(outdir, cfg, outputs, "run")
    log = run_simulation(cfg)

    _write_csv(
        outdir / "rounds.csv",
        ["round", *ROUND_COLUMNS[1:]],
        [[getattr(s, c) for c in ROUND_COLUMNS] for s in log.round_stats],
    )
    _write_csv(
        outdir / "cycles.csv",
        CYCLE_COLUMNS,
        [[row[c] for c in CYCLE_COLUMNS] for row in cycle_table(log)],
    )

    def metric_or_undefined(fn) -> str:
        try:
            return _fmt(fn(log))
        except UndefinedMetricError as exc:
            return f"undefined ({exc})"

    lifetime, censored = metric_network_lifetime(log)
    series = metric_malicious_clusters(log)
    lines = [
        f"trustcloudsim {__version__} run summary",
        f"seed                    {cfg.seed}",
        f"rounds completed        {log.rounds_completed}",
        f"network lifetime        {lifetime}"
        + ("  (censored: no honest death)" if censored else ""),
        f"timely transfer rate    {metric_or_undefined(metric_timely_rate)}",
        f"decision accuracy       {metric_or_undefined(metric_decision_accuracy)}",
        f"total attacks           {metric_total_attacks(log)}",
        f"malicious clusters/cycle {' '.join(_fmt(v) for v in series)}",
    ]
    (outdir / "summary.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    field, conv = SWEEP_PARAMETERS[args.parameter]
    # Every value is parsed and validated before the manifest is written.
    runs = []
    for raw in (s.strip() for s in args.values.split(",")):
        if not raw:
            continue
        try:
            value = conv(raw)
        except ValueError:
            raise ConfigError(
                f"invalid {args.parameter} value {raw!r}", field="--values"
            ) from None
        if field is None:
            run_cfg = with_overrides(cfg, area_width=value, area_height=value)
        else:
            run_cfg = with_overrides(cfg, **{field: value})
        runs.append((value, run_cfg))
    if not runs:
        raise ConfigError("sweep needs a non-empty value list", field="--values")
    replications = cfg.replications if args.replications is None else args.replications
    if replications < 2:
        raise ConfigError("must be at least 2", field="--replications")
    outdir = _outdir(args)
    _write_manifest(outdir, cfg, ["sweep.csv"], f"sweep {args.parameter}")
    rows = []
    for value, run_cfg in runs:
        summary: ReplicationSummary = replicate(
            run_cfg, replications, workers=args.workers
        )
        for metric, stats in summary.scalars.items():
            rows.append([args.parameter, value, metric, stats.mean,
                         stats.ci_low, stats.ci_high, summary.n_runs])
    _write_csv(
        outdir / "sweep.csv",
        ["parameter", "value", "metric", "mean", "ci_low", "ci_high", "runs"],
        rows,
    )
    print(f"wrote {outdir / 'sweep.csv'} ({len(rows)} rows)")
    return 0


def cmd_train_only(args) -> int:
    cfg = _load(args)
    outdir = _outdir(args)
    _write_manifest(outdir, cfg, ["training.csv"], "train-only")
    from .engine import build_scenario, run_training_phase
    from random import Random

    rng = Random(cfg.seed)
    net = build_scenario(cfg, rng)
    reports = run_training_phase(net, rng)
    _write_csv(
        outdir / "training.csv",
        TRAINING_COLUMNS,
        [[_training_value(rep, c) for c in TRAINING_COLUMNS] for rep in reports],
    )
    ok = sum(rep.boundary_ok for rep in reports)
    print(f"wrote {outdir / 'training.csv'}: {ok}/{len(reports)} boundary-satisfied")
    return 0


def _training_value(rep, column: str):
    """A report field, or ``<cloud>_<param>`` of its clouds (NaN if it has none)."""
    cloud, _, param = column.rpartition("_")
    if cloud not in ("malicious", "normal"):
        return getattr(rep, column)
    return getattr(getattr(rep.clouds, cloud), param) if rep.clouds else float("nan")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trustcloudsim",
        description="Trust-cloud secure clustering simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario file path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--out", default=None,
                       help=f"output directory (default: ${OUTDIR_ENV} or .)")

    p_run = sub.add_parser("run", help="single seeded run with CSV outputs")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="replicated parameter sweep")
    common(p_sweep)
    p_sweep.add_argument("--parameter", choices=sorted(SWEEP_PARAMETERS),
                         default="malicious_fraction")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated parameter values")
    p_sweep.add_argument("--replications", type=int, default=None,
                         help="runs per value (default: config replications)")
    p_sweep.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                         help="parallel worker processes for replications")
    p_sweep.set_defaults(func=cmd_sweep)

    p_train = sub.add_parser("train-only", help="training phase report")
    common(p_train)
    p_train.set_defaults(func=cmd_train_only)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrustCloudSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
