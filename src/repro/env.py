"""Top-level environment bundling simulator, cluster, and store."""

from __future__ import annotations

import itertools

from .cluster import Cluster
from .config import ClusterConfig, CostModel, SanitizerConfig
from .kvstore import StateStore
from .simtime import Simulator


class Environment:
    """Everything a job and the query system share.

    One environment = one simulated deployment: a virtual-time simulator,
    a cluster of nodes, and the state store (the paper's Fig. 1).
    """

    def __init__(self, cluster_config: ClusterConfig | None = None,
                 costs: CostModel | None = None, seed: int = 7,
                 sanitizers: SanitizerConfig | None = None) -> None:
        self.sim = Simulator(seed)
        self.cluster = Cluster(self.sim, cluster_config, costs)
        self.store = StateStore(self.cluster)
        # The compiled-LIKE pattern cache is process-wide; the newest
        # environment's configured bound applies.
        from .sql.compiled import set_like_cache_capacity
        set_like_cache_capacity(self.costs.like_cache_max_patterns)
        #: Lazily-created ContinuousQueryService (first ``subscribe``).
        self.continuous = None
        #: Every QueryService running against this environment registers
        #: itself here, so rollback recovery can flag in-flight live
        #: queries and observability can sum retry/abort counters.
        self.query_services: list = []
        #: Ids of the queries those services run.  Per environment, not
        #: per service: two services of one environment share network
        #: channels, which are keyed by query id.
        self.query_ids = itertools.count(1)
        #: The armed SanitizerRuntime, or ``None``.  An explicit
        #: ``sanitizers=SanitizerConfig(enabled=True)`` arms the runtime
        #: invariant detectors; with no argument the process-wide default
        #: applies (set by the test suite, off in production).
        self.sanitizers = None
        from_default = False
        if sanitizers is None:
            from .analysis.sanitizers import default_config
            sanitizers = default_config()
            from_default = sanitizers is not None
        if sanitizers is not None and sanitizers.enabled:
            from .analysis.sanitizers import install_sanitizers
            self.sanitizers = install_sanitizers(
                self, sanitizers, from_default=from_default
            )

    @property
    def costs(self) -> CostModel:
        return self.cluster.costs

    @property
    def now(self) -> float:
        return self.sim.now

    def run_until(self, time_ms: float) -> None:
        self.sim.run_until(time_ms)

    def run_for(self, duration_ms: float) -> None:
        self.sim.run_until(self.sim.now + duration_ms)
