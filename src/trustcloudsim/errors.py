"""Exception types shared across the simulator."""


class TrustCloudSimError(Exception):
    """Base class for all library errors."""


class DomainError(TrustCloudSimError, ValueError):
    """An argument is outside its valid range."""


class InsufficientDataError(TrustCloudSimError):
    """Too few cloud drops to estimate numerical characteristics."""


class InsufficientEvidenceError(TrustCloudSimError):
    """A target was judged before an individual trust cloud exists for it."""


class NoEvidenceError(TrustCloudSimError):
    """Trust attributes requested from an empty evidence window."""


class NoNeighborError(TrustCloudSimError):
    """A training round could not find a router/destination pair."""


class ConfigError(TrustCloudSimError, ValueError):
    """A scenario configuration value or file is invalid."""

    def __init__(self, message, field=None):
        self.reason = message
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)


class UndefinedMetricError(TrustCloudSimError):
    """A metric has an empty denominator for this run."""


class ReplicationError(TrustCloudSimError):
    """One or more replicas of a replication failed.

    ``results`` maps the index of each replica that finished to its
    (metrics, malicious-cluster series).
    """

    def __init__(self, message: str, results: dict[int, tuple[dict, list[float]]]):
        super().__init__(message)
        self.results = results


class NormalsHelperError(TrustCloudSimError):
    """The helper process drawing the classifier's normals ahead exited."""
