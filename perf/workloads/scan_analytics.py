"""``scan_analytics``: a six-statement dashboard refresh over a static
live table."""

from __future__ import annotations

import random

from .. import reference
from .refresh import RefreshWorkload

TAGS = ("alpha", "beta", "gamma", "delta")
LABEL_LOW, LABEL_HIGH = "item-010", "item-014"


class ScanAnalytics(RefreshWorkload):
    name = "scan_analytics"
    why = ("per-row work: state row build, compiled batch scan and "
           "executor merge dominate; simtime, dataflow and continuous "
           "stay idle")
    probe_table = "metrics"
    statements = {
        "filter": ('SELECT key, value FROM "metrics" '
                   "WHERE value < 3 AND tag LIKE 'a%' ORDER BY key"),
        "groupby": ('SELECT weight, SUM(value) AS s, COUNT(*) AS c '
                    'FROM "metrics" GROUP BY weight ORDER BY weight'),
        "topk": ('SELECT key, pad2 FROM "metrics" '
                 "ORDER BY pad2 DESC LIMIT 20"),
        "index_range": ('SELECT COUNT(*) AS n FROM "metrics" WHERE label '
                        f"BETWEEN '{LABEL_LOW}' AND '{LABEL_HIGH}'"),
        "approx_distinct": ('SELECT APPROX COUNT(DISTINCT label) AS d '
                            'FROM "metrics"'),
        "float_avg": ('SELECT weight, AVG(score) AS a FROM "metrics" '
                      "GROUP BY weight ORDER BY weight"),
    }
    probe_central = statements["groupby"]

    def __init__(self, seed: int, rows: int = 20_000, nodes: int = 5) -> None:
        super().__init__(seed)
        self.nodes = nodes
        rng = random.Random(seed)
        # pad2 is a permutation, so ORDER BY pad2 has no ties to break.
        pad2 = rng.sample(range(rows), rows)
        self.data = {
            key: {
                "value": rng.randrange(100),
                "weight": rng.randrange(7),
                "tag": rng.choice(TAGS),
                "label": f"item-{rng.randrange(100):03d}",
                "score": rng.random() * 100.0,
                "pad1": key, "pad2": pad2[key] * 2, "pad3": key * 3,
            }
            for key in range(rows)
        }

    def tables(self) -> dict:
        return {"metrics": self.data}

    def prepare(self) -> None:
        self.env.store.create_index("metrics", "label", "sorted")
        self.env.store.create_sketch("metrics", "label", "hll")

    def reference(self) -> dict:
        return reference.scan_expected(self.data, LABEL_LOW, LABEL_HIGH)

    def matches(self, shape: str, execution, expected) -> bool:
        return reference.scan_matches(shape, execution.result.rows, expected)
