"""``join_orders``: three distributed joins per refresh over static
order tables."""

from __future__ import annotations

import random

from .. import reference
from .refresh import RefreshWorkload

STATES = ("NEW", "NOTIFIED", "ACCEPTED", "PICKED_UP", "LEFT_PICKUP",
          "NEAR_CUSTOMER", "DONE")
ZONES = 60


class JoinOrders(RefreshWorkload):
    name = "join_orders"
    why = ("query.joins build/probe, sql.access strategy choice and "
           "executor bind dominate; scan-only paths untouched; billed "
           "and host time disagree here")
    probe_table = "orderinfo"
    statements = {
        "join_copart": (
            'SELECT o.deliveryZone, COUNT(*) AS n FROM "orderinfo" AS o '
            'JOIN "orderstate" AS s USING (partitionKey) '
            "WHERE s.orderState = 'VENDOR_ACCEPTED' "
            "GROUP BY o.deliveryZone ORDER BY o.deliveryZone"),
        "join_broadcast": (
            'SELECT o.partitionKey, o.amount, z.region '
            'FROM "orderinfo" AS o '
            'JOIN "zones" AS z ON o.deliveryZone = z.zoneId '
            "ORDER BY o.partitionKey"),
        "join_shuffle": (
            'SELECT r.tier, COUNT(*) AS n FROM "orderstate" AS s '
            'JOIN "riders" AS r ON s.riderId = r.riderId '
            "GROUP BY r.tier ORDER BY r.tier"),
    }
    probe_central = statements["join_copart"]
    #: The physical strategy each statement must be planned with.
    strategies = {"join_copart": "copartitioned",
                  "join_broadcast": "broadcast",
                  "join_shuffle": "shuffle"}

    def __init__(self, seed: int, orders: int = 10_000,
                 nodes: int = 8) -> None:
        super().__init__(seed)
        self.nodes = nodes
        rng = random.Random(seed)
        riders = max(8, orders // 4)
        self.info = {
            key: {"deliveryZone": rng.randrange(ZONES),
                  "vendorCategory": rng.randrange(9),
                  "amount": rng.randrange(500)}
            for key in range(orders)
        }
        self.state = {
            key: {"orderState": ("VENDOR_ACCEPTED" if rng.random() < 0.05
                                 else rng.choice(STATES)),
                  "riderId": rng.randrange(riders)}
            for key in range(orders)
        }
        # Small dimension: three active zones.
        self.zones = {
            zone: {"zoneId": zone_id, "region": ("east", "west")[zone % 2]}
            for zone, zone_id in enumerate(rng.sample(range(ZONES), 3))
        }
        # Keyed by slot and joined on riderId, which is not the
        # partition key on either side: the shuffle case.
        rider_ids = rng.sample(range(riders), riders)
        self.riders = {
            slot: {"riderId": rider_ids[slot], "tier": rng.randrange(5)}
            for slot in range(riders)
        }

    def tables(self) -> dict:
        return {"orderinfo": self.info, "orderstate": self.state,
                "zones": self.zones, "riders": self.riders}

    def reference(self) -> dict:
        return reference.join_expected(
            self.info, self.state, self.zones, self.riders)

    def matches(self, shape: str, execution, expected) -> bool:
        return (execution.join_strategies == [self.strategies[shape]]
                and reference.rows_match(execution.result.rows, expected))
