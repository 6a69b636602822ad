"""Memory requests exchanged between cores and the memory controller."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional


class RequestType(enum.Enum):
    """Kinds of requests the controller services."""

    READ = "read"
    WRITE = "write"
    #: Internal request used by RowHammer mitigation mechanisms to refresh a
    #: potential victim row (performed as an activate + precharge).
    VICTIM_REFRESH = "victim_refresh"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_request_ids = itertools.count()


@dataclass(slots=True)
class MemoryRequest:
    """One memory request.

    Attributes
    ----------
    request_type:
        READ, WRITE or VICTIM_REFRESH.
    bank, row, column:
        Target DRAM coordinates (single channel, single rank).
    core_id:
        Issuing core (``-1`` for controller-internal requests).
    arrival_cycle:
        DRAM cycle at which the request entered the controller.
    completion_callback:
        Called with the completion cycle when the request's data is returned
        (reads) or the request has been performed (writes / victim refreshes).
    """

    request_type: RequestType
    bank: int
    row: int
    column: int = 0
    core_id: int = -1
    arrival_cycle: int = 0
    completion_callback: Optional[Callable[[int], None]] = None
    request_id: int = field(default_factory=lambda: next(_request_ids))
    completed_cycle: Optional[int] = None
    #: Controller-local arrival sequence number, assigned at enqueue time.
    #: FR-FCFS "oldest first" compares these, so scheduling never depends on
    #: the process-global ``request_id`` counter.
    seq: int = 0
    #: Set when the controller has issued the request's column access and
    #: removed it from its live queues.  Indexed scheduling structures keep
    #: issued requests as lazy tombstones; readers skip entries with this
    #: flag instead of paying for eager mid-queue deletion.
    popped: bool = False

    @property
    def is_write(self) -> bool:
        return self.request_type is RequestType.WRITE

    def complete(self, cycle: int) -> None:
        """Mark the request complete and notify the issuer."""
        self.completed_cycle = cycle
        if self.completion_callback is not None:
            self.completion_callback(cycle)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"MemoryRequest({self.request_type.value}, bank={self.bank}, "
            f"row={self.row}, core={self.core_id}, id={self.request_id})"
        )
