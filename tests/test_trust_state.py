"""The array-backed TrustState against a per-pair reference model.

The reference keeps each (observer, target) pair the plain way: a deque
window, running sums updated as ``sum += value - evicted``, and the scalar
backward_cloud over the window.  The state must agree with it exactly, not
approximately, since the simulator's output is pinned bit for bit.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustcloudsim.cloud import backward_cloud, backward_clouds
from trustcloudsim.errors import DomainError, InsufficientEvidenceError
from trustcloudsim.runtime import TrustState, record_trust


class ReferencePair:
    """One observer's view of one target, one object per pair."""

    def __init__(self, window: int):
        self.window: deque = deque(maxlen=window)
        self.firsthand: deque = deque(maxlen=window)
        self.sum = 0.0
        self.fh_sum = 0.0
        self.mean = 0.0
        self.fh_mean = None

    def record(self, value: float, direct: bool) -> None:
        evicted = self.window[0] if len(self.window) == self.window.maxlen else 0.0
        self.window.append(value)
        self.sum += value - evicted
        self.mean = self.sum / len(self.window)
        if direct:
            fh = self.firsthand
            evicted = fh[0] if len(fh) == fh.maxlen else 0.0
            fh.append(value)
            self.fh_sum += value - evicted
            self.fh_mean = self.fh_sum / len(fh)

    @property
    def full(self) -> bool:
        return len(self.window) == self.window.maxlen

    def cloud(self):
        return backward_cloud(tuple(self.window)) if self.full else None


def assert_matches(state: TrustState, ref: dict, n: int) -> None:
    known = np.zeros((n, n), dtype=bool)
    immature = np.zeros((n, n), dtype=bool)
    for (o, t), pair in ref.items():
        known[o, t] = True
        immature[o, t] = not pair.full
        assert state.mean[o, t] == pair.mean
        if pair.fh_mean is None:
            assert state.fh_count[o, t] == 0
        else:
            assert state.firsthand[o, t] == pair.fh_mean
    assert np.array_equal(state.count > 0, known)
    assert np.array_equal((state.count > 0) & (state.count < state.window), immature)
    full = [(o, t) for (o, t), pair in ref.items() if pair.full]
    if full:
        obs, tgt = (list(x) for x in zip(*full))
        ex, en, he = state.clouds(obs, tgt)
        for i, (o, t) in enumerate(full):
            c = ref[(o, t)].cloud()
            assert (ex[i], en[i], he[i]) == (c.ex, c.en, c.he)


drop_values = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@st.composite
def write_batches(draw):
    """A window size, a network size and batches of distinct-pair writes."""
    window = draw(st.integers(2, 25))
    n = draw(st.integers(1, 3))
    pairs = [(o, t) for o in range(n) for t in range(n)]
    # enough batches for the windows to fill and slide
    n_batches = draw(st.integers(1, window + 8))
    batches = []
    for _ in range(n_batches):
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        batch = [(o, t, draw(drop_values), draw(st.booleans())) for o, t in chosen]
        batches.append(batch)
    return window, n, batches


@settings(max_examples=150, deadline=None)
@given(write_batches())
def test_state_matches_reference_model(case):
    window, n, batches = case
    state = TrustState(n, window)
    ref: dict[tuple[int, int], ReferencePair] = {}
    for batch in batches:
        # a batch writes all direct values in one call, the rest in another,
        # as a round writes inferences and then recommendations
        for direct in (True, False):
            rows = [(o, t, v) for o, t, v, d in batch if d is direct]
            for o, t, v in rows:
                ref.setdefault((o, t), ReferencePair(window)).record(v, direct)
            obs, tgt, values = (list(x) for x in zip(*rows)) if rows else ([], [], [])
            record_trust(state, obs, tgt, values, direct=direct)
        assert_matches(state, ref, n)


def test_long_sliding_run_matches_reference():
    rng = np.random.default_rng(5)
    n, window = 4, 20
    state = TrustState(n, window)
    ref: dict[tuple[int, int], ReferencePair] = {}
    pairs = [(o, t) for o in range(n) for t in range(n) if o != t]
    for step in range(300):
        chosen = [pairs[i] for i in rng.permutation(len(pairs))[: rng.integers(1, 8)]]
        values = rng.random(len(chosen))
        values[rng.random(len(chosen)) < 0.1] = 0.0
        direct = bool(step % 3)
        for (o, t), v in zip(chosen, values.tolist()):
            ref.setdefault((o, t), ReferencePair(window)).record(v, direct)
        record_trust(state, [o for o, _ in chosen], [t for _, t in chosen], values,
                     direct=direct)
        if step % 7 == 0:
            assert_matches(state, ref, n)
    assert_matches(state, ref, n)


def test_clouds_need_full_windows():
    state = TrustState(3, 4)
    record_trust(state, [0, 1], [1, 2], [0.5, 0.5])
    with pytest.raises(InsufficientEvidenceError):
        state.clouds([0], [1])


@pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
def test_record_trust_rejects_out_of_range(bad):
    state = TrustState(3, 4)
    with pytest.raises(DomainError):
        record_trust(state, [0, 1], [1, 2], [0.5, bad])


class IndexedTrustState:
    """The state as kept before pairs had one flat index, as a model.

    It reads and writes every batch with (observer, target) fancy indexing
    into the same n x n and (window, n, n) arrays; the flat-index state must
    leave every array, and every cloud it reads, equal to this one's.
    """

    def __init__(self, n: int, window: int):
        self.window = window
        self._ring = np.zeros((window, n, n))
        self._sum = np.zeros((n, n))
        self.count = np.zeros((n, n), dtype=np.int64)
        self.mean = np.zeros((n, n))
        self._fh_ring = np.zeros((window, n, n))
        self._fh_sum = np.zeros((n, n))
        self.fh_count = np.zeros((n, n), dtype=np.int64)
        self.firsthand = np.zeros((n, n))
        self._ex = np.zeros((n, n))
        self._en = np.zeros((n, n))
        self._he = np.zeros((n, n))
        self._stale: list[tuple[np.ndarray, np.ndarray]] = []

    def clouds(self, observers, targets):
        if not np.all(self.count[observers, targets] >= self.window):
            raise InsufficientEvidenceError("no individual trust cloud for target")
        if self._stale:
            obs = np.concatenate([o for o, _ in self._stale])
            tgt = np.concatenate([t for _, t in self._stale])
            self._stale.clear()
            oldest = self.count[obs, tgt] % self.window
            slots = (oldest + np.arange(self.window)[:, None]) % self.window
            ex, en, he = backward_clouds(self._ring[slots, obs, tgt])
            self._ex[obs, tgt] = ex
            self._en[obs, tgt] = en
            self._he[obs, tgt] = he
        return (
            self._ex[observers, targets],
            self._en[observers, targets],
            self._he[observers, targets],
        )

    @staticmethod
    def _slide(ring, sums, count, obs, tgt, values):
        slot = count[obs, tgt] % ring.shape[0]
        evicted = ring[slot, obs, tgt]
        ring[slot, obs, tgt] = values
        sums[obs, tgt] += values - evicted
        count[obs, tgt] += 1
        return np.minimum(count[obs, tgt], ring.shape[0])

    def record(self, observers, targets, values, *, direct):
        obs = np.asarray(observers, dtype=np.intp)
        tgt = np.asarray(targets, dtype=np.intp)
        values = np.asarray(values, dtype=float)
        fill = self._slide(self._ring, self._sum, self.count, obs, tgt, values)
        self.mean[obs, tgt] = self._sum[obs, tgt] / fill
        if direct:
            fh_fill = self._slide(
                self._fh_ring, self._fh_sum, self.fh_count, obs, tgt, values
            )
            self.firsthand[obs, tgt] = self._fh_sum[obs, tgt] / fh_fill
        full = fill >= self.window
        if full.any():
            self._stale.append((obs[full], tgt[full]))


STATE_ARRAYS = ("_ring", "_sum", "count", "mean", "_fh_ring", "_fh_sum",
                "fh_count", "firsthand")


@st.composite
def mixed_steps(draw):
    """A network of 1-12 devices, a window of 2-6 and a list of steps.

    A step writes a batch of distinct pairs, directly or as
    recommendations, or reads the clouds of some pairs (those with full
    windows, found while the test runs).
    """
    n = draw(st.integers(1, 12))
    window = draw(st.integers(2, 6))
    steps = []
    for _ in range(draw(st.integers(1, 3 * window + 6))):
        if draw(st.integers(0, 3)) == 0:
            steps.append(("read", draw(st.integers(0, 2**32 - 1))))
            continue
        size = draw(st.integers(0, min(n * n, 40)))
        flat = draw(st.lists(st.integers(0, n * n - 1), min_size=size,
                             max_size=size, unique=True))
        values = draw(st.lists(drop_values, min_size=size, max_size=size))
        steps.append(("write", flat, values, draw(st.booleans())))
    return n, window, steps


@settings(max_examples=150, deadline=None)
@given(mixed_steps())
def test_flat_state_matches_the_indexed_state(case):
    n, window, steps = case
    state = TrustState(n, window)
    model = IndexedTrustState(n, window)
    for step in steps:
        if step[0] == "write":
            _, flat, values, direct = step
            obs, tgt = np.divmod(np.array(flat, dtype=np.intp), n)
            record_trust(state, obs, tgt, values, direct=direct)
            model.record(obs, tgt, values, direct=direct)
        else:
            full = np.flatnonzero(model.count.ravel() >= window)
            pick = np.random.default_rng(step[1]).permutation(full)
            obs, tgt = np.divmod(pick[: len(pick) // 2 + 1], n)
            for got, want in zip(state.clouds(obs, tgt), model.clouds(obs, tgt)):
                assert got.tobytes() == want.tobytes()
        for name in STATE_ARRAYS:
            got, want = getattr(state, name), getattr(model, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    obs, tgt = np.divmod(np.flatnonzero(model.count.ravel() >= window), n)
    for got, want in zip(state.clouds(obs, tgt), model.clouds(obs, tgt)):
        assert got.tobytes() == want.tobytes()
