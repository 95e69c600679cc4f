"""Where the traced run hooks into the program, and the per-layer metrics.

Each hook replaces the name in the module that calls it (``engine`` calls
``run_round`` through its own import, ``protocol`` calls ``record_trust``
through its own, and so on), so the wrappers see every call the simulator
makes.  A name a module no longer has is left alone and its metric reads 0.
"""

from __future__ import annotations

from .tracing import Tracer, span_totals

#: Spans: coarse boundaries, a few thousand per run.
SPANS = (
    ("engine", "run_simulation"),
    ("engine", "build_scenario"),
    ("engine", "run_training_phase"),
    ("engine", "run_round"),
    ("protocol", "run_data_phase"),
    ("protocol", "classify_batch"),
)

#: Counters: hot functions, counted and timed in total only.
COUNTERS = (
    ("engine", "run_training_round", "training.run_training_round"),
    ("protocol", "choose_cluster", "protocol.choose_cluster"),
    ("protocol", "record_trust", "runtime.record_trust"),
    ("protocol", "recommend_trust", "runtime.recommend_trust"),
    ("protocol", "accumulate_and_maybe_update", "runtime.accumulate"),
    ("runtime.TrustStore", "cloud", "runtime.cloud"),
    ("runtime", "backward_cloud", "cloud.backward_cloud"),
    ("training", "backward_cloud", "cloud.backward_cloud"),
    ("protocol", "infer_trust", "fuzzy.infer_trust"),
    ("training", "infer_trust", "fuzzy.infer_trust"),
    ("protocol", "tx_energy", "medium.tx_energy"),
    ("training", "tx_energy", "medium.tx_energy"),
)

#: The paper's expectation-margin width, used when a caller passes none.
KAPPA = 3.0

#: (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    ("engine.build_scenario_s", "s", "lower"),
    ("engine.bookkeeping_s", "s", "lower"),
    ("engine.replica_busy_s", "s", "lower"),
    ("engine.pool_efficiency", "ratio", "higher"),
    ("training.phase_s", "s", "lower"),
    ("training.rounds", "count", "lower"),
    ("training.round_s", "s", "lower"),
    ("protocol.run_round_s", "s", "lower"),
    ("protocol.round_self_s", "s", "lower"),
    ("protocol.data_phase_s", "s", "lower"),
    ("protocol.transfers", "count", "higher"),
    ("protocol.choose_cluster_calls", "count", "lower"),
    ("protocol.choose_cluster_s", "s", "lower"),
    ("runtime.classify_batch_s", "s", "lower"),
    ("runtime.classify_rows", "count", "lower"),
    ("runtime.classify_margin_rows", "count", "higher"),
    ("runtime.record_trust_calls", "count", "lower"),
    ("runtime.record_trust_s", "s", "lower"),
    ("runtime.recommend_trust_calls", "count", "lower"),
    ("runtime.cloud_reads", "count", "lower"),
    ("runtime.accumulate_s", "s", "lower"),
    ("runtime.std_updates", "count", "lower"),
    ("cloud.backward_cloud_calls", "count", "lower"),
    ("cloud.backward_cloud_s", "s", "lower"),
    ("fuzzy.infer_trust_calls", "count", "lower"),
    ("fuzzy.infer_trust_s", "s", "lower"),
    ("medium.tx_energy_calls", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _resolve(tc, dotted: str):
    module, _, cls = dotted.partition(".")
    owner = getattr(tc, module)
    return getattr(owner, cls, None) if cls else owner


def install(tracer: Tracer, tc) -> list[str]:
    """Patch every hook; returns the hooks the program no longer has."""

    def margin_rows(args, kwargs):
        itcs, stds = args[0], args[1]
        kappa = kwargs.get("kappa", KAPPA)
        settled = sum(
            1
            for itc, std in zip(itcs, stds)
            if itc.ex < std.malicious.ex - kappa * std.malicious.en
            or itc.ex > std.normal.ex + kappa * std.normal.en
        )
        tracer.count("runtime.classify_rows", len(itcs))
        tracer.count("runtime.classify_margin_rows", settled)

    def transfers(args, kwargs, result):
        tracer.count("protocol.transfers", len(args[4].transfers))

    def std_updates(args, kwargs, result):
        tracer.count("runtime.std_updates", int(result[1] is not args[3]))

    hooks = {
        "classify_batch": dict(pre=margin_rows),
        "run_data_phase": dict(post=transfers),
        "accumulate_and_maybe_update": dict(post=std_updates),
    }
    missing = []
    for module, attr in SPANS:
        owner = _resolve(tc, module)
        if attr not in vars(owner):
            missing.append(f"{module}.{attr}")
            continue
        tracer.patch(owner, attr, attr, span=True, **hooks.get(attr, {}))
    for module, attr, name in COUNTERS:
        owner = _resolve(tc, module)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{attr}")
            continue
        tracer.patch(owner, attr, name, **hooks.get(attr, {}))
    return missing


def metrics(trace: Tracer, units: int, busy_wall_s: float, workers: int,
            overhead_s: float) -> dict[str, float]:
    """Per-layer metrics per unit of work, from a merged trace.

    ``busy_wall_s`` is the wall time over which ``workers`` processes could
    run replicas; ``engine.pool_efficiency`` is replica busy time over it.
    """
    spans = span_totals(trace.spans)

    def total(name):
        return spans.get(name, (0.0, 0.0))[0] / units

    def own(name):
        return spans.get(name, (0.0, 0.0))[1] / units

    def calls(name):
        return trace.counters.get(name, (0, 0.0))[0] / units

    def secs(name):
        return trace.counters.get(name, (0, 0.0))[1] / units

    busy = total("run_simulation")
    return {
        "engine.build_scenario_s": total("build_scenario"),
        "engine.bookkeeping_s": own("run_simulation"),
        "engine.replica_busy_s": busy,
        "engine.pool_efficiency": busy * units / (workers * busy_wall_s),
        "training.phase_s": total("run_training_phase"),
        "training.rounds": calls("training.run_training_round"),
        "training.round_s": secs("training.run_training_round"),
        "protocol.run_round_s": total("run_round"),
        "protocol.round_self_s": own("run_round"),
        "protocol.data_phase_s": total("run_data_phase"),
        "protocol.transfers": calls("protocol.transfers"),
        "protocol.choose_cluster_calls": calls("protocol.choose_cluster"),
        "protocol.choose_cluster_s": secs("protocol.choose_cluster"),
        "runtime.classify_batch_s": total("classify_batch"),
        "runtime.classify_rows": calls("runtime.classify_rows"),
        "runtime.classify_margin_rows": calls("runtime.classify_margin_rows"),
        "runtime.record_trust_calls": calls("runtime.record_trust"),
        "runtime.record_trust_s": secs("runtime.record_trust"),
        "runtime.recommend_trust_calls": calls("runtime.recommend_trust"),
        "runtime.cloud_reads": calls("runtime.cloud"),
        "runtime.accumulate_s": secs("runtime.accumulate"),
        "runtime.std_updates": calls("runtime.std_updates"),
        "cloud.backward_cloud_calls": calls("cloud.backward_cloud"),
        "cloud.backward_cloud_s": secs("cloud.backward_cloud"),
        "fuzzy.infer_trust_calls": calls("fuzzy.infer_trust"),
        "fuzzy.infer_trust_s": secs("fuzzy.infer_trust"),
        "medium.tx_energy_calls": calls("medium.tx_energy"),
        "trace.overhead_s": overhead_s,
    }
