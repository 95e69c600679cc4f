"""The classifier written one row and one drop at a time, from its docstring.

``classify`` states ``runtime.classify_pairs`` without its array kernel:
the margin rules first, then, for each row they leave open and each of its
drops,

    sigma_i = |en + he z1|,
    drop = clip(ex + sigma_i z2, 0, 1),
    sigma_s = |(en_m + en_n)/2 + (he_m + he_n)/2 z3|,

and the drop's membership exp(-(drop - mu)^2 / (2 sigma_s^2)) in each
standard of expectation mu, or its limit (1 on mu, 0 elsewhere) where
2 sigma_s^2 is 0.  A row whose mean membership in the malicious standard is
at least that in the normal one is malicious.  z is the same (3, 1, n_drp)
draw the kernel takes, one per call and shared by its rows, so the two can
be compared row by row.
"""

from __future__ import annotations

import math

import numpy as np

from trustcloudsim.errors import InsufficientEvidenceError


def membership(drop: float, mu: float, sigma_s: float) -> float:
    denom = 2.0 * sigma_s * sigma_s
    if denom == 0.0:
        return 1.0 if drop == mu else 0.0
    return math.exp(-((drop - mu) * (drop - mu)) / denom)


def classify(state, stds, observers, targets, normals, *, kappa, n_drp):
    """(verdicts, [(sim_m, sim_n) or None per row]) of the given pairs."""
    ex, en, he = (a.tolist() for a in state.clouds(observers, targets))
    rows = [stds[o].tolist() for o in observers]
    if any(math.isnan(row[0]) for row in rows):
        raise InsufficientEvidenceError("observer has no standard clouds")
    verdicts: list = []
    for x, (ex_m, en_m, _, ex_n, en_n, _) in zip(ex, rows):
        if x < ex_m - kappa * en_m:
            verdicts.append(True)
        elif x > ex_n + kappa * en_n:
            verdicts.append(False)
        else:
            verdicts.append(None)
    sims: list = [None] * len(verdicts)
    gray = [r for r, v in enumerate(verdicts) if v is None]
    if gray:
        (z1,), (z2,), (z3,) = normals.standard_normal((3, 1, n_drp)).tolist()
        for r in gray:
            ex_m, en_m, he_m, ex_n, en_n, he_n = rows[r]
            sum_m = sum_n = 0.0
            for j in range(n_drp):
                sigma_i = abs(en[r] + he[r] * z1[j])
                drop = min(max(ex[r] + sigma_i * z2[j], 0.0), 1.0)
                sigma_s = abs((en_m + en_n) / 2.0 + (he_m + he_n) / 2.0 * z3[j])
                sum_m += membership(drop, ex_m, sigma_s)
                sum_n += membership(drop, ex_n, sigma_s)
            sims[r] = (sum_m / n_drp, sum_n / n_drp)
            verdicts[r] = sims[r][0] >= sims[r][1]
    return np.array(verdicts, dtype=bool), sims
