"""Fast self-tests of the benchmark's checks and span arithmetic.

    python3 -m pytest perfbench -q
"""

import math
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from trustcloudsim import config, engine, medium, protocol, runtime, training  # noqa: E402

from perfbench import checks, layers, workloads  # noqa: E402
from perfbench.tracing import Tracer, covered, span_totals  # noqa: E402

TC = types.SimpleNamespace(config=config, engine=engine, medium=medium,
                           protocol=protocol, runtime=runtime, training=training)
SCHEDULE = workloads.quarter_schedule(60)


def tiny_cfg(**overrides):
    phases = tuple(medium.ChannelPhase(a0, a1, start_round=s) for s, a0, a1 in SCHEDULE)
    params = dict(device_count=30, area_width=70.0, area_height=70.0,
                  max_rounds=60, seed=3, phases=phases)
    params.update(overrides)
    return config.ScenarioConfig(**params).validate()


@pytest.fixture(scope="module")
def tiny_log():
    return engine.run_simulation(tiny_cfg())


# --- span arithmetic ---------------------------------------------------------


def test_covered_merges_overlaps_and_clips():
    assert covered((0.0, 10.0), []) == 0.0
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == 4.0
    assert covered((0.0, 10.0), [(-5.0, 2.0), (9.0, 12.0)]) == 3.0
    assert covered((0.0, 10.0), [(11.0, 12.0)]) == 0.0


def test_self_time_is_span_minus_children():
    spans = [
        ["run", 0.0, 10.0, -1],
        ["round", 1.0, 4.0, 0],
        ["phase", 2.0, 3.0, 1],
        ["round", 5.0, 9.0, 0],
        ["open", 9.5, None, 0],
    ]
    totals = span_totals(spans)
    assert totals["run"] == (10.0, 3.0)
    assert totals["round"] == (7.0, 6.0)
    assert totals["phase"] == (1.0, 1.0)
    assert "open" not in totals


def test_patch_records_spans_counters_and_unpatches():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original_inner, original_outer = mod.inner, mod.outer
    tracer = Tracer()
    tracer.patch(mod, "outer", "outer", span=True)
    tracer.patch(mod, "inner", "inner")
    assert mod.outer(1) == 4
    assert mod.outer(2) == 6
    assert [s[0] for s in tracer.spans] == ["outer", "outer"]
    assert all(s[3] == -1 and s[2] >= s[1] for s in tracer.spans)
    assert tracer.counters["inner"][0] == 2
    tracer.unpatch()
    assert mod.inner is original_inner and mod.outer is original_outer


def test_merge_rebases_parents_and_adds_counters():
    a, b = Tracer(), Tracer()
    a.spans = [["x", 0.0, 1.0, -1]]
    a.count("c", 2, 0.5)
    b.merge(a.snapshot())
    b.merge({"spans": [["x", 2.0, 4.0, -1], ["y", 2.5, 3.0, 0]],
             "counters": {"c": [3, 1.0]}})
    assert b.spans[2] == ["y", 2.5, 3.0, 1]
    assert b.counters["c"] == [5, 1.5]
    assert span_totals(b.spans)["x"] == (3.0, 2.5)


def test_reset_keeps_hot_counters_wired():
    mod = types.SimpleNamespace(f=lambda: None)
    tracer = Tracer()
    tracer.patch(mod, "f", "f")
    mod.f()
    tracer.reset()
    mod.f()
    assert tracer.counters["f"][0] == 1


# --- output checks -------------------------------------------------------------


def good_row(r=0, bad_prob=0.1, **kw):
    row = dict(round_index=r, bad_prob=bad_prob, alive=10, honest_alive=8,
               heads=3, clusters_with_members=2, malicious_clusters=1,
               packets_sent=7, packets_received=6, timely=4, delayed=1,
               dropped=2, attack_drops=1, attack_delays=1, direct_to_sink=0,
               decisions=5, correct_decisions=4)
    row.update(kw)
    return tuple(row[f] for f in checks.ROW_FIELDS)


@pytest.mark.parametrize("broken", [
    dict(dropped=3),
    dict(packets_received=8, dropped=2),
    dict(packets_received=4),
    dict(attack_drops=5, attack_delays=2),
    dict(correct_decisions=6),
    dict(malicious_clusters=3),
    dict(clusters_with_members=4),
    dict(honest_alive=11),
    dict(bad_prob=0.2),
])
def test_round_checks_catch_each_broken_invariant(broken):
    schedule = [(0, 1.0, 9.0)]
    assert checks.check_rounds([good_row()], schedule) == []
    assert checks.check_rounds([good_row(**broken)], schedule)


def test_alive_count_may_not_grow():
    schedule = [(0, 1.0, 9.0)]
    rows = [good_row(0, alive=10), good_row(1, alive=11)]
    assert checks.check_rounds(rows, schedule)


def test_expected_bad_prob_follows_the_schedule():
    schedule = workloads.quarter_schedule(100)
    assert checks.expected_bad_prob(schedule, 0) == 0.1
    assert checks.expected_bad_prob(schedule, 25) == 0.2
    assert checks.expected_bad_prob(schedule, 74) == 0.3
    assert checks.expected_bad_prob(schedule, 99) == 0.1


def test_trend_and_accuracy_checks():
    falling = [good_row(r, malicious_clusters=1 if r < 10 else 0) for r in range(40)]
    flat = [good_row(r) for r in range(40)]
    assert checks.check_malicious_trend(falling, 10) == []
    assert checks.check_malicious_trend(flat, 10)
    assert checks.check_accuracy(flat) == []
    assert checks.check_accuracy([good_row(correct_decisions=3)])


def test_replica_check_compares_exactly():
    assert checks.check_replica({"a": 1.0, "b": math.nan}, {"a": 1.0, "b": math.nan}) == []
    assert checks.check_replica({"a": 1.0}, {"a": 1.0 + 1e-15})


def test_ini_schedule_matches_reference_file():
    assert workloads.ini_schedule(ROOT / workloads.REFERENCE_INI) == \
        workloads.quarter_schedule(1000)


# --- on the program, tiny config ---------------------------------------------


def test_tiny_run_passes_invariant_checks(tiny_log):
    rows = checks.rows_of(tiny_log)
    assert len(rows) == 60
    assert checks.check_rounds(rows, SCHEDULE) == []
    assert checks.check_training(tiny_log.training) == []
    assert checks.check_rounds(rows, [(0, 1.0, 9.0)])


def test_training_check_flags_inverted_clouds(tiny_log):
    rep = next(r for r in tiny_log.training if r.boundary_ok)
    swapped = training.StandardClouds(rep.clouds.normal, rep.clouds.malicious)
    bad = engine.TrainingReport(rep.device, rep.rounds_used, True, False, swapped)
    assert checks.check_training([bad])


def test_traced_run_counts_layers_and_keeps_output(tiny_log):
    cfg = tiny_cfg()
    tracer = Tracer()
    assert layers.install(tracer, TC) == []
    try:
        log = engine.run_simulation(cfg)
    finally:
        tracer.unpatch()
    assert not hasattr(engine.run_simulation, "__wrapped__")
    assert checks.rows_of(log) == checks.rows_of(tiny_log)
    m = layers.metrics(tracer, 1, 1.0, 1, 0.0)
    assert [name for name, _, _ in layers.METRICS] == list(m)
    assert m["protocol.run_round_s"] >= m["protocol.round_self_s"] > 0
    assert m["runtime.classify_rows"] >= m["runtime.classify_margin_rows"]
    assert m["protocol.transfers"] == sum(s.packets_sent for s in log.round_stats)
    assert m["runtime.classify_rows"] > 0
    assert m["runtime.record_trust_calls"] > 0
    assert m["medium.tx_energy_calls"] > 0
    assert m["training.rounds"] > 0
    assert m["engine.replica_busy_s"] > m["protocol.run_round_s"]
