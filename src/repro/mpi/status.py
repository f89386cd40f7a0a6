"""MPI_Status: the result record of a receive or probe."""

from __future__ import annotations

from repro.mpi.constants import UNDEFINED
from repro.mpi.datatypes import Datatype

__all__ = ["Status"]


class Status:
    """Source, tag and byte count of a matched message.

    ``source`` and ``tag`` are the *actual* values (resolving any
    wildcards the receive used); ``count_bytes`` is the received message
    length in bytes.
    """

    __slots__ = ("source", "tag", "count_bytes", "error", "cancelled")

    def __init__(self, source: int = UNDEFINED, tag: int = UNDEFINED, count_bytes: int = 0):
        self.source = source
        self.tag = tag
        self.count_bytes = count_bytes
        self.error = 0
        self.cancelled = False

    def get_count(self, datatype: Datatype) -> int:
        """Number of whole *datatype* items received (MPI_Get_count).

        Returns :data:`UNDEFINED` if the byte count is not a whole
        number of items.
        """
        if datatype.size == 0:
            return 0 if self.count_bytes == 0 else UNDEFINED
        if self.count_bytes % datatype.size:
            return UNDEFINED
        return self.count_bytes // datatype.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Status source={self.source} tag={self.tag} bytes={self.count_bytes}>"
