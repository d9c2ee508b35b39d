"""Walk request records flowing through the GMMU."""

from __future__ import annotations

from enum import Enum
from typing import Callable, Optional

__all__ = ["WalkKind", "WalkRequest"]


class WalkKind(str, Enum):
    """What a page-table walk is for."""

    #: a demand TLB miss translating a load/store.
    DEMAND = "demand"
    #: a shootdown walk clearing a PTE's valid bit.
    INVALIDATE = "invalidate"
    #: installing / overwriting a PTE after a fault replay or migration.
    UPDATE = "update"


class WalkRequest:
    """One unit of work for the page-table walker.

    ``fn(*args, result)`` is the walk's continuation: the GMMU calls it
    when the walk retires, with the PTE word of a demand walk (None if
    the PTE is invalid), whether an invalidation found a valid PTE, or
    the installed word of an update; an aborted walk passes None.
    """

    __slots__ = (
        "vpn", "kind", "issued_at", "fn", "args", "word", "started_at",
        "was_valid", "aborted",
    )

    def __init__(self, vpn: int, kind: WalkKind, issued_at: int,
                 fn: Callable[..., None], args: tuple = (),
                 word: Optional[int] = None) -> None:
        self.vpn = vpn
        self.kind = kind
        self.issued_at = issued_at
        self.fn = fn
        self.args: tuple = args
        #: for UPDATE walks: the PTE word to install.
        self.word = word
        #: time the request won a walker thread (filled by the GMMU).
        self.started_at: Optional[int] = None
        #: for INVALIDATE walks: whether the cleared PTE was actually valid.
        self.was_valid: Optional[bool] = None
        #: set when a fresh mapping for this VPN arrived after the walk was
        #: queued: the invalidation must not clobber the new PTE (§6.3 — a
        #: replayed mapping supersedes the pending invalidation).
        self.aborted = False
