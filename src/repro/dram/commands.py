"""DRAM controller policy definitions."""

from __future__ import annotations

import enum


class PagePolicy(enum.Enum):
    """Row-buffer management policy of the memory controller.

    The paper's analytical model (Section III-B) assumes a closed-page
    policy; Section VIII-3 discusses how an open-page policy weakens (but
    does not defeat) the Juggernaut attack pattern.
    """

    CLOSED = "closed"
    OPEN = "open"
