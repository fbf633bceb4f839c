"""The six named workloads, in the order they are reported."""

from .join_orders import JoinOrders
from .point_direct import PointDirect
from .scan_analytics import ScanAnalytics
from .snapshot_mixed import SnapshotMixed
from .stream_q6 import StreamQ6
from .subscribe_fanout import SubscribeFanout

WORKLOADS = {
    cls.name: cls
    for cls in (StreamQ6, ScanAnalytics, JoinOrders, PointDirect,
                SubscribeFanout, SnapshotMixed)
}
