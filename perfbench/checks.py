"""Output checks: properties of the method, computed apart from the program.

Every check takes plain rows (see ``ROW_FIELDS``) or the program's result
objects and returns a list of failure messages; an empty list means the
output passed.  None of them compares against a stored copy of an earlier
output.
"""

from __future__ import annotations

import math

#: RoundStats fields a row carries, in this order.
ROW_FIELDS = (
    "round_index", "bad_prob", "alive", "honest_alive", "heads",
    "clusters_with_members", "malicious_clusters", "packets_sent",
    "packets_received", "timely", "delayed", "dropped", "attack_drops",
    "attack_delays", "direct_to_sink", "decisions", "correct_decisions",
)

#: Decision-accuracy acceptance floor.
ACCURACY_FLOOR = 0.75


def rows_of(log) -> list[tuple]:
    """One tuple of ``ROW_FIELDS`` per round of a MetricsLog."""
    return [tuple(getattr(s, f) for f in ROW_FIELDS) for s in log.round_stats]


def expected_bad_prob(schedule, r: int) -> float:
    """alpha0 / (alpha0 + alpha1) of the phase active in round r.

    ``schedule`` is a list of (start_round, alpha0, alpha1) sorted by start.
    """
    alpha0, alpha1 = schedule[0][1], schedule[0][2]
    for start, a0, a1 in schedule:
        if start <= r:
            alpha0, alpha1 = a0, a1
    return alpha0 / (alpha0 + alpha1)


def check_rounds(rows, schedule, label: str = "") -> list[str]:
    """Per-round packet, decision and cluster accounting, and the schedule."""
    errors = []
    prev_alive = None
    for row in rows:
        s = dict(zip(ROW_FIELDS, row))
        r = s["round_index"]
        where = f"{label}round {r}"
        if s["timely"] + s["delayed"] + s["dropped"] != s["packets_sent"]:
            errors.append(f"{where}: timely+delayed+dropped != packets_sent")
        if not (
            s["timely"] + s["delayed"]
            <= s["packets_received"]
            <= s["packets_sent"]
        ):
            errors.append(f"{where}: timely+delayed <= received <= sent fails")
        if s["attack_drops"] + s["attack_delays"] > s["packets_received"]:
            errors.append(f"{where}: attack events exceed received packets")
        if s["correct_decisions"] > s["decisions"]:
            errors.append(f"{where}: more correct decisions than decisions")
        if not s["malicious_clusters"] <= s["clusters_with_members"] <= s["heads"]:
            errors.append(f"{where}: malicious <= with members <= heads fails")
        if s["honest_alive"] > s["alive"]:
            errors.append(f"{where}: more honest alive devices than alive")
        if prev_alive is not None and s["alive"] > prev_alive:
            errors.append(f"{where}: alive count grew")
        prev_alive = s["alive"]
        want = expected_bad_prob(schedule, r)
        if not math.isclose(s["bad_prob"], want, rel_tol=1e-12, abs_tol=1e-15):
            errors.append(f"{where}: bad_prob {s['bad_prob']} != {want}")
    return errors


def check_training(reports, label: str = "") -> list[str]:
    """A device that found a boundary has its malicious ex below its normal ex."""
    errors = []
    for rep in reports:
        if not rep.boundary_ok:
            continue
        if rep.clouds is None:
            errors.append(f"{label}device {rep.device}: boundary without clouds")
        elif not rep.clouds.malicious.ex < rep.clouds.normal.ex:
            errors.append(
                f"{label}device {rep.device}: malicious ex "
                f"{rep.clouds.malicious.ex} >= normal ex {rep.clouds.normal.ex}"
            )
    return errors


def accuracy(rows) -> float:
    i_dec, i_ok = ROW_FIELDS.index("decisions"), ROW_FIELDS.index("correct_decisions")
    decisions = sum(row[i_dec] for row in rows)
    return sum(row[i_ok] for row in rows) / decisions if decisions else math.nan


def check_accuracy(rows, label: str = "") -> list[str]:
    acc = accuracy(rows)
    if not acc >= ACCURACY_FLOOR:
        return [f"{label}decision accuracy {acc:.4f} below {ACCURACY_FLOOR}"]
    return []


def malicious_cluster_trend(rows, rounds_per_cycle: int) -> tuple[float, float]:
    """(first-cycle mean, last-quarter mean) of malicious-headed clusters."""
    i_mal = ROW_FIELDS.index("malicious_clusters")
    first = [row[i_mal] for row in rows[:rounds_per_cycle]]
    last = [row[i_mal] for row in rows[len(rows) - len(rows) // 4:]]
    return sum(first) / len(first), sum(last) / max(len(last), 1)


def check_malicious_trend(rows, rounds_per_cycle: int, label: str = "") -> list[str]:
    """Malicious-headed clusters die out: the last quarter is below cycle 1."""
    first, last = malicious_cluster_trend(rows, rounds_per_cycle)
    if not last < first:
        return [
            f"{label}malicious clusters: last-quarter mean {last:.4f} "
            f"not below first-cycle mean {first:.4f}"
        ]
    return []


def check_sweep_order(low, high) -> list[str]:
    """More attackers mean more attacks and a lower timely rate.

    ``low`` and ``high`` are ReplicationSummary objects at the lower and the
    higher malicious fraction.
    """
    errors = []
    if not high.scalars["total_attacks"].mean > low.scalars["total_attacks"].mean:
        errors.append("sweep: attacks do not grow with the malicious fraction")
    if not high.scalars["timely_rate"].mean < low.scalars["timely_rate"].mean:
        errors.append("sweep: timely rate does not fall with the malicious fraction")
    return errors


def check_confidence(summary, label: str = "") -> list[str]:
    errors = []
    for name, m in summary.scalars.items():
        if not m.ci_low <= m.mean <= m.ci_high:
            errors.append(f"{label}{name}: CI [{m.ci_low}, {m.ci_high}] misses mean {m.mean}")
    return errors


def check_replica(pooled: dict, serial: dict, label: str = "") -> list[str]:
    """A replica re-run serially reproduces the pooled metrics exactly."""
    errors = []
    for name, value in pooled.items():
        other = serial.get(name)
        if not (value == other or (math.isnan(value) and math.isnan(other))):
            errors.append(f"{label}{name}: pooled {value!r} != serial {other!r}")
    return errors
