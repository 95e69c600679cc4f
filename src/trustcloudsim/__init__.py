"""Trust-cloud based secure clustering simulator for D2D device networks."""

from .cloud import TrustCloud, backward_cloud
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
from .fuzzy import TrustTable
from .medium import ChannelPhase, EnergyParams, stationary_bad_prob, tx_energy
from .protocol import (
    ClusterRoundOutcome,
    NetworkState,
    choose_heads,
    elect_heads,
    election_threshold,
    run_round,
)
from .runtime import (
    TrustState,
    UpdatePools,
    classify_pairs,
    recommend_trust,
    record_trust,
    similarities,
    update_standard_cloud,
)
from .training import (
    StandardClouds,
    merge_recommendations,
    run_training_round,
    train,
)

__version__ = "0.1.0"
