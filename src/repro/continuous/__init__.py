"""Continuous queries: standing SQL subscriptions over live state.

The pull interface (``QueryService.execute``) answers one question once;
this package keeps the answer current.  Change capture at the live-state
mutation chokepoint feeds shared per-table arrangements; structurally
identical subscription plans are canonicalized (subscriber-specific
equality predicates fold out into residual filters) and collapse into
ONE shared maintained standing query, whose delta stream a subscription
router fans out through per-subscriber residual filters; standing
queries are maintained per-delta where the plan allows (filter/project,
grouped COUNT/SUM/AVG/MIN/MAX with add/retract accounting) and by
re-scan otherwise; result deltas are batched and pushed to simulated
subscribers with tiered delivery (realtime / coalesced / digest), flow
control with slow-consumer eviction, and rollback-consistent recovery
notifications.
"""

from .arrangements import Arrangement
from .changelog import (
    COMMIT,
    DELETE,
    PUT,
    ROLLBACK,
    UPDATE,
    ChangeEvent,
    ChangeLog,
    ChangeRecorder,
)
from .delivery import (
    BATCH_DELTA,
    BATCH_EVICTED,
    BATCH_FAILED,
    BATCH_ROLLBACK,
    BATCH_SNAPSHOT,
    TIER_COALESCED,
    TIER_DIGEST,
    TIER_REALTIME,
    TIERS,
    DeltaBatch,
    Subscription,
)
from .plans import CanonicalPlan, canonicalize
from .router import SharedPlan, SubscriptionRouter
from .service import ContinuousQueryService
from .standing import (
    PATH_FILTER_PROJECT,
    PATH_GROUPED_AGGREGATE,
    PATH_RESCAN,
    StandingQuery,
    classify,
)

__all__ = [
    "Arrangement",
    "BATCH_DELTA",
    "BATCH_EVICTED",
    "BATCH_FAILED",
    "BATCH_ROLLBACK",
    "BATCH_SNAPSHOT",
    "COMMIT",
    "CanonicalPlan",
    "ChangeEvent",
    "ChangeLog",
    "ChangeRecorder",
    "ContinuousQueryService",
    "DELETE",
    "DeltaBatch",
    "PATH_FILTER_PROJECT",
    "PATH_GROUPED_AGGREGATE",
    "PATH_RESCAN",
    "PUT",
    "ROLLBACK",
    "SharedPlan",
    "StandingQuery",
    "Subscription",
    "SubscriptionRouter",
    "TIERS",
    "TIER_COALESCED",
    "TIER_DIGEST",
    "TIER_REALTIME",
    "UPDATE",
    "canonicalize",
    "classify",
]
