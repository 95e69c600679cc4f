"""Steady-state trust machinery.

Each device keeps, per target, a sliding window of trust values (inferred
directly or received as recommendations), the window mean as its current
trust estimate, and an individual trust cloud rebuilt from the window once it
is full.  The whole network's trust lives in one TrustState of n x n arrays,
written and read a batch of distinct pairs at a time.  Targets are
classified against the device's standard clouds with an expectation-margin
rule backed by comparing drop-sampled similarities, and the classified
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
    ``filling()`` lists the flat indices of the pairs whose window holds
    some drops but is not full yet.
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
        #: flat indices of pairs that started filling, some full by now
        self._filling = [np.zeros(0, dtype=np.intp)]
        #: ring offset s n^2 of slot s mod window, for s < 2 window; row j
        #: of _window_rows is j, the place of a drop in its window
        self._slot_offset = np.arange(2 * window) % window * (n * n)
        self._window_rows = np.arange(window)[:, None]

    def filling(self) -> np.ndarray:
        """Flat indices, in no set order, of the pairs with a partial window."""
        started = np.concatenate(self._filling)
        self._filling = [started[self.count.take(started) < self.window]]
        return self._filling[0]

    def pairs(self, observers, targets) -> np.ndarray:
        """Flat indices o n + t of the given pairs."""
        obs = np.asarray(observers, dtype=np.intp)
        return obs * self.n + np.asarray(targets, dtype=np.intp)

    def clouds(self, observers, targets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ex, en, he) of the given pairs, which must all have full windows."""
        p = self.pairs(observers, targets)
        if np.minimum.reduce(self.count.take(p), initial=self.window) < self.window:
            raise InsufficientEvidenceError("no individual trust cloud for target")
        if self._stale:
            stale = np.concatenate(self._stale)
            self._stale.clear()
            # one column per stale pair, its window's drops oldest first
            oldest = self.count.take(stale) % self.window
            windows = self._ring.take(
                self._slot_offset.take(oldest + self._window_rows) + stale
            )
            ex, en, he = backward_clouds(windows)
            self._ex.put(stale, ex)
            self._en.put(stale, en)
            self._he.put(stale, he)
        return self._ex.take(p), self._en.take(p), self._he.take(p)


def _check_drops(values: np.ndarray, name: str = "drops") -> None:
    """Raise unless every value is in [0, 1] (NaN is not)."""
    if values.size and not (
        np.minimum.reduce(values, axis=None) >= 0.0
        and np.maximum.reduce(values, axis=None) <= 1.0
    ):
        raise DomainError(f"{name} must be in [0, 1], got {values}")


def _slide(ring, sums, count, pairs, values) -> tuple[np.ndarray, np.ndarray]:
    """Write one drop into each (distinct) pair's window; returns the
    pairs' drop counts and window sums."""
    window = len(ring)
    counts = count.take(pairs)
    at = counts % window * sums.size + pairs
    # the evicted drop is 0.0 while the window is still filling
    total = sums.take(pairs) + (values - ring.take(at))
    sums.put(pairs, total)
    ring.put(at, values)
    counts += 1
    count.put(pairs, counts)
    return counts, total


def recommend_trust(t_ik, t_jk, t_ij):
    """Fuse own trust in a target with a head's recommended trust.

    With no prior record of the target (t_ik = 0) the recommendation is
    weighted by the trust in the recommender alone; otherwise it averages in
    against the own estimate.  Takes scalars or equal-length arrays.
    """
    t_ik, t_jk, t_ij = (np.asarray(v, dtype=float) for v in (t_ik, t_jk, t_ij))
    for name, v in (("t_ik", t_ik), ("t_jk", t_jk), ("t_ij", t_ij)):
        _check_drops(v, name)
    relayed = t_jk * t_ij
    fused = np.where(t_ik > 0.0, (t_ik + relayed) / (1.0 + t_ij), relayed)
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
    _check_drops(values)
    window = state.window
    counts, total = _slide(state._ring, state._sum, state.count, p, values)
    state.mean.put(p, total / np.minimum(counts, window))
    if direct:
        fh_counts, fh_total = _slide(
            state._fh_ring, state._fh_sum, state.fh_count, p, values
        )
        state.firsthand.put(p, fh_total / np.minimum(fh_counts, window))
    if np.minimum.reduce(counts, initial=2) == 1:
        state._filling.append(p[counts == 1])
    full = counts >= window
    if np.count_nonzero(full):
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


def similarities(
    ex, en, he, stds: np.ndarray, normals, n_drp: int
) -> tuple[np.ndarray, np.ndarray]:
    """Drop-sampled similarities of each row's individual cloud to its standards.

    Row r's individual cloud is (ex[r], en[r], he[r]) and ``stds[r]`` is its
    observer's standard_table row.  ``normals`` (a numpy Generator) gives
    one (3, 1, n_drp) block z, shared by every row of the call.  Per drop:
    sigma_i = |en + he z1|, drop = clip(ex + sigma_i z2, 0, 1), and one
    dispersion sigma_s = |(en_m + en_n)/2 + (he_m + he_n)/2 z3| shared by
    both standards.  The drop's membership in a standard of expectation mu
    is exp(-(drop - mu)^2 / (2 sigma_s^2)), or, where 2 sigma_s^2 is zero
    (exactly, or by underflow), its limit: 1.0 on mu, 0.0 elsewhere.
    Returns the mean membership in the malicious and in the normal standard.

    Each row's drops follow the cloud's sampling law; rows judged in the
    same call share their normals, so their similarities are correlated.
    """
    ex_m, en_m, he_m, ex_n, en_n, he_n = stds.T
    # One draw of 3 n_drp normals, broadcast over the rows; every later step
    # works in place in the (rows, n_drp) blocks the first products make.
    z1, z2, z3 = normals.standard_normal((3, 1, n_drp))
    sigma = np.multiply(z1, he[:, None])
    sigma += en[:, None]
    np.abs(sigma, out=sigma)
    drops = np.multiply(z2, sigma)
    drops += ex[:, None]
    np.clip(drops, 0.0, 1.0, out=drops)
    sigma_s = np.multiply(z3, ((he_m + he_n) / 2.0)[:, None])
    sigma_s += ((en_m + en_n) / 2.0)[:, None]
    # sigma_s enters squared, so its sign is immaterial; the denominator is
    # negated, x / -d being -(x / d) bit for bit, -0.0 and inf included.
    denom = np.multiply(sigma_s, -2.0, out=sigma)
    denom *= sigma_s
    # A drop on a standard's expectation scores exp(0.0 / denom) = 1.0
    # wherever denom is negative; a zero (zero entropies, or 2 sigma^2
    # underflowed) or a NaN denom takes the masked path.
    degenerate = not denom.max() < 0.0
    if degenerate:
        # Zero denominators are scored by their limit below; any negative
        # one keeps their division finite until then.
        zero = denom == 0.0
        denom[zero] = -1.0
    sims = []
    for ex_s in (ex_m[:, None], ex_n[:, None]):
        sim = np.subtract(drops, ex_s, out=sigma_s)
        np.square(sim, out=sim)
        # A subnormal denominator overflows the quotient to -inf, which exp
        # takes to its limit 0: an expected overflow, so it does not warn.
        with np.errstate(over="ignore"):
            sim /= denom
        np.exp(sim, out=sim)
        if degenerate:
            sim[zero] = 0.0
            sim[drops == ex_s] = 1.0
        sims.append(np.add.reduce(sim, axis=1) / n_drp)
    return sims[0], sims[1]


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
    comparing their ``similarities`` to the two standards, in one draw of
    3 n_drp normals from the Generator ``normals`` that all of them share,
    with ties breaking to malicious as the fail-safe.

    The two similarities are compared under a shared membership dispersion
    pooled from both standard clouds.  The update pools give the two
    standards very different entropies (attacker behavior spans classes,
    normal behavior is homogeneous), and under the raw membership law a
    sufficiently wide cloud outscores a tight one even at the tight cloud's
    own center; pooling the dispersion keeps the comparison a proximity
    judgement.  With equal-entropy standards this is the plain comparison.

    With the default kappa = 3 the margin rules are inert in practice: on
    the reference scenario (seed 1) they settle 0 of 345,232 rows, because
    the trained normal standard's ex + 3 en averages about 1.17, above the
    [0, 1] range of an expectation, and the malicious one's ex - 3 en about
    0.07.  Every row is settled by sampling.  The rule is kept as the
    scenario defines it; the paper's own statement of it is not at hand to
    check the margin width against.
    """
    ex, en, he = state.clouds(observers, targets)
    # each observer's margins: below `low` malicious, above `high` normal
    low = stds[:, 0] - kappa * stds[:, 1]
    high = stds[:, 3] + kappa * stds[:, 4]
    low = low.take(observers)
    if np.isnan(np.add.reduce(low)):
        raise InsufficientEvidenceError("observer has no standard clouds")
    malicious = ex < low
    gray = (~malicious & (ex <= high.take(observers))).nonzero()[0]
    if not len(gray):
        return malicious
    stds = stds[observers]
    if len(gray) == len(ex):
        sim_m, sim_n = similarities(ex, en, he, stds, normals, n_drp)
        return sim_m >= sim_n
    sim_m, sim_n = similarities(
        ex[gray], en[gray], he[gray], stds[gray], normals, n_drp
    )
    malicious[gray] = sim_m >= sim_n
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
        _check_drops(values)
        # Pool k of device i is row 2 i + k of the flat views; grouping the
        # rows by it keeps row order within a pool.
        capacity = self.capacity
        pools = self.values.reshape(-1, capacity)
        fill = self.fill.reshape(-1)
        normal = ~np.asarray(malicious, dtype=bool)
        key = 2 * np.asarray(observers, dtype=np.intp) + normal
        order = key.argsort(kind="stable")
        key, values = key[order], values[order]
        sizes = np.bincount(key, minlength=len(fill))
        first_row = sizes.cumsum() - sizes  # each pool's first row
        total = fill + sizes
        # each row's place in its pool, counting on past the capacity
        slot = np.arange(len(key)) + (fill - first_row).take(key)
        fills = ((total >= capacity) & (sizes > 0)).nonzero()[0]

        # Pools that stay below capacity: one scatter after the held values.
        if len(fills):
            rows = total.take(key) < capacity
            pools[key[rows], slot[rows]] = values[rows]
            held = fill.take(fills)
            fill[:] = np.where(total < capacity, total, fill)
        else:
            pools[key, slot] = values
            fill[:] = total
            return

        # Each pool that fills: its held values, then its rows, estimated a
        # full pool at a time and blended in that order.
        for pool, start, before, after in zip(
            fills.tolist(), first_row[fills].tolist(), held.tolist(),
            total[fills].tolist(),
        ):
            o, k = divmod(pool, 2)
            cols = slice(3 * k, 3 * k + 3)
            pooled = pools[pool, :before].tolist()
            pooled += values[start : start + after - before].tolist()
            whole = len(pooled) // capacity * capacity
            for at in range(0, whole, capacity):
                std = update_standard_cloud(
                    TrustCloud(*std_table[o, cols].tolist()),
                    backward_cloud(pooled[at : at + capacity]),
                    alpha,
                    beta,
                )
                std_table[o, cols] = (std.ex, std.en, std.he)
            pools[pool, : len(pooled) - whole] = pooled[whole:]
            fill[pool] = len(pooled) - whole
