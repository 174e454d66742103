"""Small shared helpers for the recipe implementations."""

from __future__ import annotations

from ..core.errors import ObjectExistsError
from ..zk.errors import NodeExistsError
from .coordination import CoordClient

__all__ = ["ensure_object"]


def ensure_object(coord: CoordClient, object_id: str, data: bytes = b""):
    """Create ``object_id`` if missing, tolerating the lost race.

    Multiple clients may run setup concurrently; whoever loses the
    create race simply proceeds (the paper's recipes leave such corner
    cases implicit). Any other failure — a lost connection above all —
    propagates: the object may not exist, so the caller must not
    proceed as if it did.
    """
    try:
        yield from coord.create(object_id, data)
    except (NodeExistsError, ObjectExistsError):
        pass
    return object_id
