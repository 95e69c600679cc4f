"""Trust-cloud based secure clustering simulator for D2D device networks."""

from .cloud import (
    DropSet,
    TrustCloud,
    backward_cloud,
    generate_drop,
    membership_degree,
    similarity,
)
from .config import ScenarioConfig, load_config, with_overrides
from .engine import (
    MetricsLog,
    build_scenario,
    metric_decision_accuracy,
    metric_malicious_clusters,
    metric_network_lifetime,
    metric_timely_rate,
    metric_total_attacks,
    replicate,
    run_simulation,
)
from .fuzzy import (
    EvidenceWindow,
    ForwardingEvent,
    TrustAttributes,
    TrustTable,
    compute_attributes,
    infer_trust,
    record_event,
)
from .medium import (
    ChannelPhase,
    EnergyParams,
    channel_ok,
    stationary_bad_prob,
    tx_energy,
)
from .protocol import (
    ClusterRoundOutcome,
    DeviceState,
    NetworkState,
    choose_heads,
    decide_head,
    election_threshold,
    run_round,
)
from .runtime import (
    TrustState,
    UpdatePools,
    classify_pairs,
    recommend_trust,
    record_trust,
    update_standard_cloud,
)
from .training import (
    StandardClouds,
    TrainingState,
    merge_recommendations,
    run_training_round,
    training_complete,
    training_step,
)

__version__ = "0.1.0"
