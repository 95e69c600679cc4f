"""The recommendation exchange against its scalar reference.

``protocol._charge_exchanges`` charges a round's exchanges as arrays, or
row by row with ``spend`` in a round where some device cannot pay;
``device_oracle.scalar_exchanges`` charges them one device at a time with
``spend``.  The whole phase, ``exchange_recommendations``, is checked
against ``device_oracle.reference_exchange``, which finds the wanted pairs
with n x n masks and charges through the scalar chain.  Levels are drawn at
the running sums of a device's charges, and just below them, so that
devices die at each of the four charges of an exchange.
"""

import copy

import numpy as np
from device_oracle import clusters_of, reference_exchange, scalar_exchanges
from hypothesis import given, settings
from hypothesis import strategies as st

from trustcloudsim import protocol
from trustcloudsim.config import ScenarioConfig
from trustcloudsim.medium import rx_energy, tx_energy
from trustcloudsim.protocol import NetworkState, exchange_recommendations
from trustcloudsim.runtime import record_trust

CFG = ScenarioConfig()
ENERGY = CFG.energy_params()
RX = rx_energy(CFG.control_bits, ENERGY)


def level_for(draw, charges):
    """Plenty, or exactly the running sum of the first m charges (m >= 1),
    or just below it: the device then pays m charges, or dies at the m-th."""
    choice = draw(st.integers(0, 2 * len(charges)))
    if choice == 2 * len(charges):
        return 1.0
    paid, below = divmod(choice, 2)
    total = 0.0
    for cost in charges[: paid + 1]:
        total += cost
    return float(np.nextafter(total, 0.0)) if below else total


@st.composite
def clusters(draw):
    """1-3 heads (ids 0 up) with 1-15 askers each (the next ids, by head)."""
    sizes = draw(st.lists(st.integers(1, 15), min_size=1, max_size=3))
    heads = list(range(len(sizes)))
    first = np.cumsum([len(heads), *sizes])
    return {h: list(range(first[h], first[h + 1])) for h in heads}


def head_charges(members, cost):
    """A head's charges if all its members ask: reception, reply, per row."""
    return [c for m in members for c in (RX, cost[m])]


@st.composite
def exchange_rows(draw):
    by_head = draw(clusters())
    n = sum(len(ms) for ms in by_head.values()) + len(by_head)
    cost = {
        m: tx_energy(CFG.control_bits, draw(st.floats(0.0, 80.0)), ENERGY)
        for ms in by_head.values() for m in ms
    }
    level = [0.0] * n
    for h, members in by_head.items():
        level[h] = level_for(draw, head_charges(members, cost))
        for m in members:
            level[m] = level_for(draw, [cost[m], RX])
    rows = [(m, h, cost[m]) for h, ms in by_head.items() for m in ms]
    return rows, level


@settings(max_examples=400, deadline=None)
@given(exchange_rows())
def test_array_charges_match_the_scalar_chain(case):
    rows, level = case
    n = len(level)
    net = NetworkState(ScenarioConfig(device_count=n), [0.0] * n, [0.0] * n,
                       ["honest"] * n)
    net.level[:] = level
    want_level, want_alive = list(level), [True] * n
    want = scalar_exchanges(want_level, want_alive, rows, RX)
    mem, head, cost = (np.array(column) for column in zip(*rows))
    got = protocol._charge_exchanges(net, mem, head, cost)
    assert got.tolist() == want
    assert net.level.tobytes() == np.array(want_level).tobytes()
    assert net.alive.tolist() == want_alive


@st.composite
def exchange_rounds(draw):
    by_head = draw(clusters())
    n = sum(len(ms) for ms in by_head.values()) + len(by_head)
    n += draw(st.integers(0, 4))  # devices in no cluster
    window = draw(st.integers(2, 4))
    cfg = ScenarioConfig(device_count=n, thr_drp=window)
    xs = draw(st.lists(st.floats(0.0, 60.0), min_size=n, max_size=n))
    ys = draw(st.lists(st.floats(0.0, 60.0), min_size=n, max_size=n))
    net = NetworkState(cfg, xs, ys, ["honest"] * n)
    # Pairs with no drops, a filling window and a full one; trust of 0
    # included, and first-hand trust for some.
    pairs = [(o, t) for o in range(n) for t in range(n) if o != t]
    writes = draw(st.lists(st.sampled_from((0, 0, 1, window - 1, window, window + 1)),
                           min_size=len(pairs), max_size=len(pairs)))
    direct = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    for step in range(max(writes)):
        for first_hand in (False, True):
            batch = [p for p, k, d in zip(pairs, writes, direct)
                     if k > step and d == first_hand]
            values = draw(st.lists(st.sampled_from((0.0, 0.3, 0.9, 1.0)),
                                   min_size=len(batch), max_size=len(batch)))
            record_trust(net.trust, [o for o, _ in batch], [t for _, t in batch],
                         values, direct=first_hand)
    cand = sorted(
        (m, h)
        for ms in by_head.values() for m in ms for h in by_head
        if draw(st.booleans())
    )
    cand_obs = np.array([m for m, _ in cand], dtype=np.intp)
    cand_tgt = np.array([h for _, h in cand], dtype=np.intp)
    cost = net.control_tx
    for h, members in by_head.items():
        net.level[h] = level_for(
            draw, head_charges(members, {m: cost[m, h] for m in members})
        )
        for m in members:
            net.level[m] = level_for(draw, [cost[m, h], RX])
    return net, by_head, cand_obs, cand_tgt


@settings(max_examples=200, deadline=None)
@given(exchange_rounds())
def test_exchange_matches_the_reference(case):
    net, by_head, cand_obs, cand_tgt = case
    reference = copy.deepcopy(net)
    asked, rows = reference_exchange(reference, by_head, cand_obs, cand_tgt)
    recorded = exchange_recommendations(net, clusters_of(by_head), cand_obs, cand_tgt)
    n = len(net.level)
    got = sorted((p // n, p % n) for p in recorded.tolist())
    assert got == sorted(rows)
    # every member that paid for its reply has an offer, so a recorded row
    assert sorted({o for o, _ in got}) == sorted(asked)
    assert net.level.tobytes() == reference.level.tobytes()
    assert net.alive.tolist() == reference.alive.tolist()
    for name in ("count", "mean", "fh_count", "firsthand"):
        assert getattr(net.trust, name).tobytes() == (
            getattr(reference.trust, name).tobytes()
        )
