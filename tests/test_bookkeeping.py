"""The round's array bookkeeping against the per-row code it replaced.

``reference_choose_cluster`` is the per-member head choice and
``reference_accumulate`` with ``ReferenceAccumulators`` the per-row update
pools, as they were written before the round's bookkeeping became array
passes.  On the same inputs, ``choose_heads`` must pick the same heads and
``UpdatePools`` must leave the same pool contents and a bit-equal table of
standard clouds; the count-indexed ``TrustTable`` must give the scalar
inference of each count triple.
"""

import enum
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trust_oracle import scalar_trust

from trustcloudsim.cloud import TrustCloud, backward_cloud
from trustcloudsim.errors import DomainError, NoEvidenceError
from trustcloudsim.fuzzy import TrustTable
from trustcloudsim.protocol import DeviceState, choose_heads, is_eligible
from trustcloudsim.runtime import (
    TrustState,
    UpdatePools,
    record_trust,
    standard_table,
    update_standard_cloud,
)
from trustcloudsim.training import StandardClouds


class Classification(enum.Enum):
    """The verdicts the per-row code took and returned."""

    MALICIOUS = "malicious"
    NORMAL = "normal"


class ClusterChoice(NamedTuple):
    kind: str  # "join" | "become_head" | "sink"
    head: Optional[int]


def reference_choose_cluster(member, candidates, verdicts, trust, *, r, epoch):
    """Pick a head among broadcast candidates, else self-elect or go direct."""
    normal = [
        (dist, head.id)
        for (head, dist), v in zip(candidates, verdicts)
        if v is Classification.NORMAL
    ]
    if normal:
        normal.sort()
        return ClusterChoice("join", normal[0][1])
    survivors = [(h, d) for (h, d), v in zip(candidates, verdicts) if v is None]
    if survivors:
        fresh = [
            (dist, head.id)
            for head, dist in survivors
            if trust.count[member.id, head.id] == 0
        ]
        if fresh:
            fresh.sort()
            return ClusterChoice("join", fresh[0][1])
        ranked = [
            (-float(trust.mean[member.id, head.id]), head.id)
            for head, _ in survivors
        ]
        ranked.sort()
        return ClusterChoice("join", ranked[0][1])
    if is_eligible(member, r, epoch):
        return ClusterChoice("become_head", None)
    return ClusterChoice("sink", None)


class ReferenceAccumulators:
    """Pools of classified trust values pending a standard-cloud refresh."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.malicious_pool: list[float] = []
        self.normal_pool: list[float] = []


def reference_accumulate(acc, classification, value, std, *, alpha, beta):
    """Pool a classified trust value; refresh the matching cloud when full."""
    pool = (
        acc.malicious_pool
        if classification is Classification.MALICIOUS
        else acc.normal_pool
    )
    assert 0.0 <= value <= 1.0
    pool.append(value)
    if len(pool) == acc.capacity:
        fresh = backward_cloud(pool)
        if classification is Classification.MALICIOUS:
            std = StandardClouds(
                update_standard_cloud(std.malicious, fresh, alpha, beta), std.normal
            )
        else:
            std = StandardClouds(
                std.malicious, update_standard_cloud(std.normal, fresh, alpha, beta)
            )
        pool.clear()
    return acc, std


#: Trust values and distances from small sets, so that ties are common, and
#: with the range ends 0.0 and 1.0.
trust_values = st.one_of(st.sampled_from((0.0, 0.25, 0.5, 1.0)), st.floats(0.0, 1.0))
distances = st.one_of(st.sampled_from((0.0, 1.0, 2.5)), st.floats(0.0, 50.0))


@st.composite
def join_scenarios(draw):
    n = draw(st.integers(2, 8))
    window = draw(st.integers(2, 5))
    trust = TrustState(n, window)
    pairs = [(o, t) for o in range(n) for t in range(n) if o != t]
    # Empty, partly filled, just full and sliding windows.
    writes = draw(st.lists(st.integers(0, window + 2), min_size=len(pairs),
                           max_size=len(pairs)))
    for step in range(max(writes)):
        batch = [p for p, k in zip(pairs, writes) if k > step]
        values = draw(st.lists(trust_values, min_size=len(batch),
                               max_size=len(batch)))
        record_trust(trust, [o for o, _ in batch], [t for _, t in batch], values)
    heads = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    members = [d for d in range(n) if d not in heads]
    rows = [
        (m, h)
        for m in members
        for h in sorted(heads)
        if draw(st.booleans())
    ]
    rows = draw(st.permutations(rows))
    dist = draw(st.lists(distances, min_size=len(rows), max_size=len(rows)))
    has_standards = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    malicious = draw(st.lists(st.booleans(), min_size=len(rows),
                              max_size=len(rows)))
    last_head = draw(st.lists(st.sampled_from((None, 2, 8)), min_size=n,
                              max_size=n))
    return trust, members, rows, dist, has_standards, malicious, last_head


@settings(max_examples=300, deadline=None)
@given(join_scenarios())
def test_choose_heads_matches_reference(scenario):
    trust, members, rows, dist, has_standards, malicious, last_head = scenario
    r, epoch = 10, 5
    devices = [
        DeviceState(id=i, x=0.0, y=0.0, energy=1.0, last_head_round=last)
        for i, last in enumerate(last_head)
    ]
    obs = np.array([m for m, _ in rows], dtype=np.intp)
    tgt = np.array([h for _, h in rows], dtype=np.intp)
    judged = trust.full[obs, tgt] & np.array(has_standards, dtype=bool)[obs]
    malicious = np.array(malicious, dtype=bool) & judged

    joiners, heads = choose_heads(
        trust, obs, tgt, np.array(dist, dtype=float), judged, malicious
    )
    assert joiners.tolist() == sorted(set(joiners.tolist()))
    chosen = dict(zip(joiners.tolist(), heads.tolist()))

    for m in members:
        mine = [i for i, (o, _) in enumerate(rows) if o == m]
        verdicts = [
            None
            if not judged[i]
            else Classification.MALICIOUS if malicious[i] else Classification.NORMAL
            for i in mine
        ]
        candidates = [(devices[rows[i][1]], dist[i]) for i in mine]
        expected = reference_choose_cluster(
            devices[m], candidates, verdicts, trust, r=r, epoch=epoch
        )
        if m in chosen:
            got = ClusterChoice("join", chosen[m])
        elif is_eligible(devices[m], r, epoch):
            got = ClusterChoice("become_head", None)
        else:
            got = ClusterChoice("sink", None)
        assert got == expected


standard_clouds = st.builds(
    StandardClouds,
    st.builds(TrustCloud, st.floats(0.0, 1.0), st.floats(0.0, 0.3), st.floats(0.0, 0.1)),
    st.builds(TrustCloud, st.floats(0.0, 1.0), st.floats(0.0, 0.3), st.floats(0.0, 0.1)),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(standard_clouds, min_size=1, max_size=5),
    st.integers(2, 100),
    st.lists(st.integers(0, 250), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_update_pools_match_reference(initial, capacity, batch_sizes, seed):
    rng = np.random.default_rng(seed)
    n = len(initial)
    alpha, beta = 0.8, 0.2
    pools = UpdatePools(n, capacity)
    table = standard_table(initial)
    ref_accs = [ReferenceAccumulators(capacity) for _ in range(n)]
    ref_stds = list(initial)
    for size in batch_sizes:
        observers = rng.integers(0, n, size)
        malicious = rng.random(size) < 0.4
        u = rng.random(size)
        values = np.where(u < 0.1, 0.0, np.where(u < 0.2, 1.0, rng.random(size)))

        for o, mal, v in zip(observers.tolist(), malicious.tolist(), values.tolist()):
            ref_accs[o], ref_stds[o] = reference_accumulate(
                ref_accs[o],
                Classification.MALICIOUS if mal else Classification.NORMAL,
                v,
                ref_stds[o],
                alpha=alpha,
                beta=beta,
            )
        pools.add(observers, malicious, values, table, alpha=alpha, beta=beta)

        assert table.tobytes() == standard_table(ref_stds).tobytes()
        for o, acc in enumerate(ref_accs):
            for k, pool in enumerate((acc.malicious_pool, acc.normal_pool)):
                held = pools.values[o, k, : pools.fill[o, k]].tolist()
                assert held == pool


def count_triples(sent: int) -> list[tuple[int, int, int]]:
    return [(sent, f, t) for f in range(sent + 1) for t in range(f + 1)]


@pytest.mark.parametrize(
    "large_first", [False, True], ids=["small_first", "large_first"]
)
def test_trust_table_matches_scalar_inference(large_first):
    sents = range(1, 65)
    if large_first:
        sents = reversed(sents)
    table = TrustTable()
    for sent in sents:
        triples = count_triples(sent)
        got = table.trust(*zip(*triples)).tolist()
        expected = [scalar_trust(*triple) for triple in triples]
        assert got == expected
    # every row is filled now; a mixed batch reads the same values again
    mixed = count_triples(64)[::7] + count_triples(3) + count_triples(1)
    assert table.trust(*zip(*mixed)).tolist() == [
        scalar_trust(*triple) for triple in mixed
    ]


def test_trust_table_rejects_impossible_windows():
    table = TrustTable()
    assert table.trust([], [], []).tolist() == []
    with pytest.raises(NoEvidenceError):
        table.trust([0], [0], [0])
    for bad in ([(3, 4, 1)], [(3, 2, 3)], [(3, 1, -1)]):
        with pytest.raises(DomainError):
            table.trust(*zip(*bad))
