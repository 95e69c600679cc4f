"""Steady-state trust machinery.

Each device keeps, per target, a sliding window of trust values (inferred
directly or received as recommendations), the window mean as its current
trust estimate, and an individual trust cloud rebuilt from the window once it
is full.  The whole network's trust lives in one TrustState of n x n arrays,
written and read a batch of distinct pairs at a time.  Targets are
classified against the device's standard clouds with an expectation-margin
rule backed by a drop-sampled similarity comparison, and the classified
trust values accumulate into pools that periodically refresh the standard
clouds.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .cloud import TrustCloud, backward_cloud, backward_clouds
from .errors import ConfigError, DomainError, InsufficientEvidenceError
from .training import StandardClouds


class TrustState:
    """Every observer's trust in every target, held in n x n arrays.

    Entry [o, t] is observer o's view of target t.  The drop window mixes
    inferred and recommended values; the first-hand window keeps only
    directly inferred ones and is what the observer passes on when asked for
    a recommendation.  Both windows are rings of ``window`` slots with a
    running sum, a fill count and their mean.  The individual cloud (ex, en,
    he) of a pair with a full window is rebuilt from the window in one batch,
    the first time clouds are read after the window changed.

    A pair is also addressed by one flat index, p = o n + t (``pairs``), and
    batches are read and written through it: ``take`` and ``put`` on any of
    the arrays, and for the rings slot s of pair p is flat entry s n^2 + p.
    """

    def __init__(self, n: int, window: int):
        if window < 2:
            raise DomainError(f"window must hold at least 2 drops, got {window}")
        self.n = n
        self.window = window
        self._ring = np.zeros((window, n, n))
        self._sum = np.zeros((n, n))
        #: drops written per pair; a window holds min(count, window) of them
        self.count = np.zeros((n, n), dtype=np.int64)
        self.mean = np.zeros((n, n))
        self._fh_ring = np.zeros((window, n, n))
        self._fh_sum = np.zeros((n, n))
        self.fh_count = np.zeros((n, n), dtype=np.int64)
        #: first-hand window mean; meaningful where fh_count > 0
        self.firsthand = np.zeros((n, n))
        self._ex = np.zeros((n, n))
        self._en = np.zeros((n, n))
        self._he = np.zeros((n, n))
        #: flat indices of the pairs whose cloud needs rebuilding
        self._stale: list[np.ndarray] = []

    def pairs(self, observers, targets) -> np.ndarray:
        """Flat indices o n + t of the given pairs."""
        obs = np.asarray(observers, dtype=np.intp)
        return obs * self.n + np.asarray(targets, dtype=np.intp)

    def clouds(self, observers, targets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ex, en, he) of the given pairs, which must all have full windows."""
        p = self.pairs(observers, targets)
        if not np.all(self.count.take(p) >= self.window):
            raise InsufficientEvidenceError("no individual trust cloud for target")
        if self._stale:
            stale = np.concatenate(self._stale)
            self._stale.clear()
            # one column per stale pair, its window's drops oldest first
            oldest = self.count.take(stale)
            slots = (oldest + np.arange(self.window)[:, None]) % self.window
            windows = self._ring.take(slots * self._sum.size + stale)
            ex, en, he = backward_clouds(windows)
            self._ex.put(stale, ex)
            self._en.put(stale, en)
            self._he.put(stale, he)
        return self._ex.take(p), self._en.take(p), self._he.take(p)


def _slide(ring, sums, count, pairs, values) -> np.ndarray:
    """Write one drop into each (distinct) pair's window; returns the fills."""
    window = len(ring)
    counts = count.take(pairs)
    at = counts % window * sums.size + pairs
    # the evicted drop is 0.0 while the window is still filling
    sums.put(pairs, sums.take(pairs) + (values - ring.take(at)))
    ring.put(at, values)
    counts += 1
    count.put(pairs, counts)
    return np.minimum(counts, window)


def recommend_trust(t_ik, t_jk, t_ij):
    """Fuse own trust in a target with a head's recommended trust.

    With no prior record of the target (t_ik = 0) the recommendation is
    weighted by the trust in the recommender alone; otherwise it averages in
    against the own estimate.  Takes scalars or equal-length arrays.
    """
    t_ik, t_jk, t_ij = (np.asarray(v, dtype=float) for v in (t_ik, t_jk, t_ij))
    for name, v in (("t_ik", t_ik), ("t_jk", t_jk), ("t_ij", t_ij)):
        if not np.all((v >= 0.0) & (v <= 1.0)):
            raise DomainError(f"{name} must be in [0, 1], got {v}")
    fused = np.where(t_ik > 0.0, (t_ik + t_jk * t_ij) / (1.0 + t_ij), t_jk * t_ij)
    return fused[()]


def record_trust(
    state: TrustState, observers, targets, values, *, direct: bool = False
) -> TrustState:
    """Slide one trust value into each pair's window and refresh its mean.

    The pairs of one call must be distinct.  Directly inferred values
    additionally extend the first-hand window that backs outgoing
    recommendations.  Pairs whose window is full get their cloud rebuilt
    before clouds are next read.
    """
    p = state.pairs(observers, targets)
    values = np.asarray(values, dtype=float)
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise DomainError(f"drops must be in [0, 1], got {values}")
    fill = _slide(state._ring, state._sum, state.count, p, values)
    state.mean.put(p, state._sum.take(p) / fill)
    if direct:
        fh_fill = _slide(state._fh_ring, state._fh_sum, state.fh_count, p, values)
        state.firsthand.put(p, state._fh_sum.take(p) / fh_fill)
    full = fill >= state.window
    if full.any():
        state._stale.append(p[full])
    return state


def standard_table(stds: list[Optional[StandardClouds]]) -> np.ndarray:
    """(n, 6) rows of malicious (ex, en, he) then normal (ex, en, he).

    A device without standard clouds gets a row of NaN.
    """
    missing = (np.nan,) * 6
    return np.array(
        [
            missing
            if s is None
            else (s.malicious.ex, s.malicious.en, s.malicious.he,
                  s.normal.ex, s.normal.en, s.normal.he)
            for s in stds
        ],
        dtype=float,
    ).reshape(len(stds), 6)


def classify_pairs(
    state: TrustState,
    stds: np.ndarray,
    observers,
    targets,
    normals,
    *,
    kappa: float,
    n_drp: int,
) -> np.ndarray:
    """Judge each observer's target; True where it looks malicious.

    ``stds`` is the standard_table of the observers.  An expectation clearly
    below the malicious cloud (by kappa entropies) is malicious, clearly
    above the normal cloud is normal; the rows in between are resolved by
    comparing drop-sampled similarities, with ties breaking to malicious as
    the fail-safe.  One (rows, n_drp) draw per sampling step covers all of
    them, in row order; ``normals`` is anything with a numpy-style
    ``standard_normal(shape)``, a Generator or an engine's
    ``ClassifierNormals``.

    The two similarities are compared under a shared membership dispersion
    pooled from both standard clouds.  The update pools give the two
    standards very different entropies (attacker behavior spans classes,
    normal behavior is homogeneous), and under the raw membership law a
    sufficiently wide cloud outscores a tight one even at the tight cloud's
    own center; pooling the dispersion keeps the comparison a proximity
    judgement.  With equal-entropy standards this is the plain comparison.
    A sampled dispersion whose 2 sigma^2 is zero (exactly, or by underflow)
    scores a drop by the limit of the membership as the dispersion goes to
    zero: 1.0 on the standard's expectation, 0.0 anywhere else.

    With the default kappa = 3 the margin rules are inert in practice: on
    the reference scenario (seed 1) they settle 0 of 345,232 rows, because
    the trained normal standard's ex + 3 en averages about 1.17, above the
    [0, 1] range of an expectation, and the malicious one's ex - 3 en about
    0.07.  Every row is settled by sampling.  The rule is kept as the
    scenario defines it; the paper's own statement of it is not at hand to
    check the margin width against.
    """
    ex, en, he = state.clouds(observers, targets)
    ex_m, en_m, he_m, ex_n, en_n, he_n = stds[observers].T
    if np.isnan(ex_m).any():
        raise InsufficientEvidenceError("observer has no standard clouds")
    malicious = ex < ex_m - kappa * en_m
    gray = np.flatnonzero(~malicious & ~(ex > ex_n + kappa * en_n))
    if len(gray):
        # One draw fills the three sampling steps in C order, the same
        # stream as three (rows, n_drp) draws; every step then works in
        # place in its block.
        sigma, drops, sigma_s = normals.standard_normal((3, len(gray), n_drp))
        np.multiply(sigma, he[gray, None], out=sigma)
        sigma += en[gray, None]
        np.abs(sigma, out=sigma)
        drops *= sigma
        drops += ex[gray, None]
        np.clip(drops, 0.0, 1.0, out=drops)
        sigma_s *= ((he_m + he_n) / 2.0)[gray, None]
        sigma_s += ((en_m + en_n) / 2.0)[gray, None]
        np.abs(sigma_s, out=sigma_s)
        denom = np.multiply(sigma_s, 2.0, out=sigma)
        denom *= sigma_s
        # A drop on a standard's expectation scores exp(-0.0 / denom) = 1.0
        # wherever denom is positive; a zero (zero entropies, or 2 sigma^2
        # underflowed) or a NaN denom takes the masked path.
        degenerate = not denom.min() > 0.0
        ex_m, ex_n = ex_m[gray, None], ex_n[gray, None]
        if degenerate:
            # Zero denominators are scored by their limit below; any positive
            # one keeps their division finite until then.
            zero = denom == 0.0
            denom[zero] = 1.0
        sims = []
        for ex_s in (ex_m, ex_n):
            sim = np.subtract(drops, ex_s, out=sigma_s)
            np.square(sim, out=sim)
            np.negative(sim, out=sim)
            # A subnormal denominator overflows the quotient to -inf, which
            # exp takes to its limit 0; the reference computes the same, so
            # it does not warn.
            with np.errstate(over="ignore"):
                sim /= denom
            np.exp(sim, out=sim)
            if degenerate:
                sim[zero] = 0.0
                sim[drops == ex_s] = 1.0
            sims.append(sim.mean(axis=1))
        malicious[gray] = sims[0] >= sims[1]
    return malicious


def update_standard_cloud(
    prior: TrustCloud, fresh: TrustCloud, alpha: float, beta: float
) -> TrustCloud:
    """Blend a freshly estimated standard cloud into the prior one."""
    if abs(alpha + beta - 1.0) > 1e-9:
        raise ConfigError(f"weights must sum to 1, got {alpha} + {beta}")
    return TrustCloud(
        alpha * prior.ex + beta * fresh.ex,
        alpha * prior.en + beta * fresh.en,
        alpha * prior.he + beta * fresh.he,
    )


class UpdatePools:
    """Every device's two pools of classified trust values, held in arrays.

    ``values[i, k, :fill[i, k]]`` are the values device i has pooled for its
    malicious (k = 0) or normal (k = 1) standard cloud, oldest first.  A pool
    that reaches ``capacity`` is estimated into a fresh cloud, blended into
    the matching standard and emptied.
    """

    def __init__(self, n: int, capacity: int):
        self.capacity = capacity
        self.values = np.zeros((n, 2, capacity))
        self.fill = np.zeros((n, 2), dtype=np.intp)

    def add(
        self, observers, malicious, values, std_table, *, alpha: float, beta: float
    ) -> None:
        """Pool each row's value under its observer and verdict, in row order.

        ``std_table`` is the standard_table of every device; each pool that
        fills rewrites its standard's three columns in place.  With a small
        capacity a pool may fill more than once, and each fill blends into
        the standard left by the one before.
        """
        values = np.asarray(values, dtype=float)
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise DomainError(f"drops must be in [0, 1], got {values}")
        # Pool k of device i is row 2 i + k of the flat views; grouping the
        # rows by it keeps row order within a pool.
        pools = self.values.reshape(-1, self.capacity)
        fill = self.fill.reshape(-1)
        normal = ~np.asarray(malicious, dtype=bool)
        key = 2 * np.asarray(observers, dtype=np.intp) + normal
        order = np.argsort(key, kind="stable")
        key, values = key[order], values[order]
        first = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        of_row = np.cumsum(first) - 1  # each row's index into starts
        sizes = np.bincount(of_row, minlength=len(starts))
        group = key[starts]
        held = fill[group]
        fills = held + sizes >= self.capacity

        # Pools that stay below capacity: one scatter after the held values.
        rows = ~fills[of_row]
        slot = np.arange(len(key)) - (starts - held)[of_row]
        pools[key[rows], slot[rows]] = values[rows]
        fill[group[~fills]] += sizes[~fills]

        for g in np.flatnonzero(fills).tolist():
            o, k = divmod(int(group[g]), 2)
            cols = slice(3 * k, 3 * k + 3)
            pooled = pools[group[g], : held[g]].tolist()
            for value in values[starts[g] : starts[g] + sizes[g]].tolist():
                pooled.append(value)
                if len(pooled) == self.capacity:
                    std = update_standard_cloud(
                        TrustCloud(*std_table[o, cols].tolist()),
                        backward_cloud(pooled),
                        alpha,
                        beta,
                    )
                    std_table[o, cols] = (std.ex, std.en, std.he)
                    pooled = []
            pools[group[g], : len(pooled)] = pooled
            fill[group[g]] = len(pooled)
