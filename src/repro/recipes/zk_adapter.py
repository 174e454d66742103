"""Table 2, ZooKeeper column: the abstract API over a ZkClient.

====================  =====================================================
abstract              ZooKeeper realization
====================  =====================================================
create(o)             create(o)
delete(o)             delete(o, ANY_VERSION)
read(o)               getData(o)
update(o, c)          setData(o, c, ANY_VERSION)
cas(o, cc, nc)        setData(o, nc, version-of-last-read(o))
sub_objects(o)        getChildren(o) + getData per child (step 2 optional)
block(o)              exists-watch on o, unblock on the creation event
monitor(o)            create o as an ephemeral node
wait_deletion(o)      exists-watch on o, return on the deletion event
====================  =====================================================
"""

from __future__ import annotations

from typing import Dict, List

from ..core.api import ObjectRecord
from ..zk.client import ZkClient
from ..zk.errors import BadVersionError, NoNodeError
from .coordination import CoordClient

__all__ = ["ZkCoordClient"]


class ZkCoordClient(CoordClient):
    """Adapter from the abstract API to the (E)ZK client library."""

    def __init__(self, zk: ZkClient):
        self.zk = zk
        #: version observed by this client's last read, per object (cas).
        self._seen_versions: Dict[str, int] = {}

    @property
    def client_id(self) -> str:
        return self.zk.client_id

    def create(self, object_id: str, data: bytes = b""):
        path = yield from self.zk.create(object_id, data)
        return path

    def delete(self, object_id: str):
        try:
            yield from self.zk.delete(object_id)
        except NoNodeError:
            return False
        return True

    def read(self, object_id: str):
        value = yield from self.zk.get_data(object_id)
        if (isinstance(value, tuple) and len(value) == 2
                and isinstance(value[0], bytes)):
            data, stat = value
            self._seen_versions[object_id] = stat.version
            return data
        # An operation extension consumed the read: its result comes back.
        return value

    def update(self, object_id: str, data: bytes):
        value = yield from self.zk.set_data(object_id, data)
        from ..zk.data_tree import Stat
        if isinstance(value, Stat):
            return True
        return value  # an operation extension consumed the update

    def cas(self, object_id: str, expected: bytes, new: bytes):
        version = self._seen_versions.get(object_id, -1)
        try:
            stat = yield from self.zk.set_data(object_id, new,
                                               version=version)
        except BadVersionError:
            return False
        self._seen_versions[object_id] = stat.version
        return True

    def sub_objects(self, object_id: str, with_data: bool = True):
        base = object_id.rstrip("/") or "/"
        names = yield from self.zk.get_children(base)
        records: List[ObjectRecord] = []
        for name in names:
            child = f"{base}/{name}" if base != "/" else f"/{name}"
            if with_data:
                try:
                    data, stat = yield from self.zk.get_data(child)
                except NoNodeError:
                    continue  # raced with a concurrent delete
                records.append(ObjectRecord(child, data, stat.czxid))
            else:
                # Name order == creation order for sequential siblings;
                # no per-child read needed (Table 2's footnote).
                records.append(ObjectRecord(child, b"", len(records)))
        if with_data:
            records.sort(key=lambda r: (r.seq, r.object_id))
        return records

    def block(self, object_id: str):
        value = yield from self.zk.block(object_id)
        return value

    def monitor(self, object_id: str, data: bytes = b""):
        """Create a liveness object; ``object_id`` is a name *prefix*.

        Sequential ephemeral nodes give every incarnation a fresh,
        creation-ordered name — what ZooKeeper's production election
        recipe relies on. Returns the actual object id.
        """
        path = yield from self.zk.create(object_id, data, ephemeral=True,
                                         sequential=True)
        return path

    def wait_deletion(self, object_id: str):
        while True:
            waiter = self.zk.wait_for_event(object_id)
            stat = yield from self.zk.exists(object_id, watch=True)
            if stat is None:
                self.zk.discard_waiter(object_id, waiter)
                return
            # Reconnect re-arms the watch and synthesizes a deletion
            # missed while our replica was down; None (session expired
            # or client closed) or another event loops to re-check.
            notification = yield from self.zk.await_notification(
                object_id, waiter)
            self.zk.discard_waiter(object_id, waiter)
            if notification is not None \
                    and notification.event_type == "NODE_DELETED":
                return

    def register_extension(self, name: str, source: str):
        path = yield from self.zk.register_extension(name, source)
        return path

    def acknowledge_extension(self, name: str):
        path = yield from self.zk.acknowledge_extension(name)
        return path
