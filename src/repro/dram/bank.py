"""Per-bank row-buffer state machine with activation accounting.

The bank is the unit at which Row Hammer matters: each ``ACT`` to a row
disturbs its physical neighbours, and mitigations must bound per-row ACT
counts within a refresh window. :class:`ActivationStats` therefore counts
ACTs per *physical* row per refresh window — including the latent
activations induced by swap and unswap operations — so that security
harnesses can verify whether any physical location crossed ``TRH``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional

from repro.dram.commands import PagePolicy
from repro.dram.config import DRAMTiming


@dataclass
class WindowRecord:
    """Summary of activation activity in one completed refresh window."""

    window_index: int
    total_activations: int
    max_row_activations: int
    hottest_row: Optional[int]
    rows_activated: int


class ActivationStats:
    """Counts ACTs per physical row within rolling refresh windows.

    The window boundary is aligned to multiples of ``refresh_window``; this
    matches the paper's model in which tracker state and the attack budget
    reset each 64 ms epoch.

    Closed windows fold into O(1) running aggregates
    (:attr:`windows_closed`, :attr:`closed_total_activations`,
    :attr:`closed_max_row_activations`) so long simulations do not grow
    one record per bank per window. Pass ``keep_history=True`` to retain
    the full per-window :class:`WindowRecord` list in :attr:`history`
    (tests and security harnesses that inspect individual windows).
    """

    def __init__(self, refresh_window: float, keep_history: bool = False):
        if refresh_window <= 0:
            raise ValueError("refresh_window must be positive")
        self.refresh_window = refresh_window
        self.keep_history = keep_history
        # Every read of an absent row goes through ``.get``, so the
        # C-level ``int`` default only ever serves the ``+= 1`` bumps.
        self._counts: Dict[int, int] = defaultdict(int)
        self._window_index = 0
        #: Per-window records; populated only with ``keep_history=True``.
        self.history: List[WindowRecord] = []
        self.lifetime_activations = 0
        #: Number of refresh windows already closed.
        self.windows_closed = 0
        #: Sum of activations over all closed windows.
        self.closed_total_activations = 0
        #: Peak per-row activation count seen in any closed window.
        self.closed_max_row_activations = 0

    @property
    def window_index(self) -> int:
        return self._window_index

    def _roll_to(self, window_index: int) -> None:
        while self._window_index < window_index:
            self._finalize_current()
            self._window_index += 1

    def _finalize_current(self) -> None:
        counts = self._counts
        if counts:
            hottest, hottest_count = max(counts.items(), key=itemgetter(1))
            total = sum(counts.values())
        else:
            hottest, hottest_count, total = None, 0, 0
        self.windows_closed += 1
        self.closed_total_activations += total
        if hottest_count > self.closed_max_row_activations:
            self.closed_max_row_activations = hottest_count
        if self.keep_history:
            self.history.append(
                WindowRecord(
                    window_index=self._window_index,
                    total_activations=total,
                    max_row_activations=hottest_count,
                    hottest_row=hottest,
                    rows_activated=len(counts),
                )
            )
        counts.clear()

    def record(self, row: int, time: float) -> int:
        """Record one ACT on ``row`` at ``time``; returns the new count."""
        window = int(time // self.refresh_window)
        if window != self._window_index:
            if window < self._window_index:
                raise ValueError(
                    f"activation at t={time} precedes current window {self._window_index}"
                )
            self._roll_to(window)
        self._counts[row] += 1
        self.lifetime_activations += 1
        return self._counts[row]

    def count(self, row: int) -> int:
        """ACT count of ``row`` in the current window."""
        return self._counts.get(row, 0)

    def max_count(self) -> int:
        """Highest per-row ACT count in the current window."""
        return max(self._counts.values()) if self._counts else 0

    def current_counts(self) -> Dict[int, int]:
        """Copy of the current window's per-row counts."""
        return dict(self._counts)

    def finalize(self, time: float) -> None:
        """Close out all windows up to and including the one at ``time``."""
        self._roll_to(int(time // self.refresh_window) + 1)

    def peak_row_activations(self) -> int:
        """Highest per-row count in any window so far (closed or current)."""
        return max(self.closed_max_row_activations, self.max_count())

    def ever_exceeded(self, threshold: int) -> bool:
        """True if any row crossed ``threshold`` in any window so far."""
        return self.peak_row_activations() >= threshold


@dataclass(slots=True)
class AccessResult:
    """Timing outcome of one column access serviced by a bank."""

    start: float
    finish: float
    row_hit: bool
    activated: bool


class Bank:
    """One DRAM bank: a row buffer plus timing and activation state.

    The model is event-driven at access granularity. Each access computes
    when the bank can start serving it (respecting ``tRC`` between ACTs and
    any time the bank is occupied by refresh or swap operations) and what
    latency the access sees under the configured page policy.
    """

    def __init__(
        self,
        num_rows: int,
        timing: Optional[DRAMTiming] = None,
        policy: PagePolicy = PagePolicy.CLOSED,
        keep_history: bool = False,
    ):
        if num_rows <= 0:
            raise ValueError("num_rows must be positive")
        self.num_rows = num_rows
        self.timing = timing or DRAMTiming()
        self.policy = policy
        self._open_page = policy is PagePolicy.OPEN
        self.open_row: Optional[int] = None
        self.busy_until: float = 0.0
        self.last_act_time: float = float("-inf")
        # keep_history retains per-window WindowRecords (security
        # harnesses inspecting individual windows); the default folds
        # closed windows into O(1) aggregates.
        self.stats = ActivationStats(
            self.timing.refresh_window, keep_history=keep_history
        )
        self.total_accesses = 0
        self.row_hits = 0

    def access(self, time: float, row: int, is_write: bool = False) -> AccessResult:
        """Service one column access to ``row`` arriving at ``time``.

        Two fused loops replicate this state machine
        expression-for-expression: the batched engine
        (``repro.sim.engine.batched``) on its fast path and the hammer
        harness (``repro.attacks.harness.hammer_pattern``). Timing
        changes here must be mirrored in both (the engine equivalence
        tests and the harness differential tests in
        ``tests/test_security_golden.py`` catch any divergence
        bit-exactly), and so must the activation count: a same-window
        ACT bumps ``stats._counts`` and ``lifetime_activations``
        in-line, and only a window change calls
        :meth:`ActivationStats.record`. Results are built positionally
        (``start, finish, row_hit, activated``): keyword construction
        more than doubles their cost.
        """
        if not 0 <= row < self.num_rows:
            raise ValueError(f"row {row} out of range [0, {self.num_rows})")
        t = self.timing
        self.total_accesses += 1
        open_row = self.open_row
        busy = self.busy_until
        if self._open_page and open_row == row:
            self.row_hits += 1
            start = time if time >= busy else busy
            finish = start + t.t_cas + t.t_bl
            self.busy_until = finish
            return AccessResult(start, finish, True, False)

        # Earliest ACT: after the bank frees up and tRC past the last ACT.
        start = time if time >= busy else busy
        earliest = self.last_act_time + t.t_rc
        if earliest > start:
            start = earliest
        if open_row is not None:
            # Conflict (open policy) or normal close (closed policy with a
            # lingering open row from a swap): precharge first.
            start += t.t_rp
        self.open_row = row
        self.last_act_time = start
        # ActivationStats.record: a same-window ACT is counted in-line;
        # only a window change (roll or out-of-order check) takes the call.
        stats = self.stats
        if start // stats.refresh_window == stats._window_index:
            stats._counts[row] += 1
            stats.lifetime_activations += 1
        else:
            stats.record(row, start)
        finish = start + t.t_rcd + t.t_cas + t.t_bl
        if self._open_page:
            self.busy_until = finish
        else:
            # Auto-precharge: the bank is busy until the row is closed, but
            # the data is available at `finish`.
            self.open_row = None
            closed = start + t.t_rc
            self.busy_until = finish if finish >= closed else closed
        return AccessResult(start, finish, False, True)

    def occupy(self, time: float, duration: float) -> float:
        """Block the bank for ``duration`` ns (refresh, swap data movement).

        Returns the time the occupation ends. Any open row is closed.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        start = max(time, self.busy_until)
        self.open_row = None
        self.busy_until = start + duration
        return self.busy_until
