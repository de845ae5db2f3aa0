"""Security harness: play an access pattern against a defended bank.

Glue for the motivation and security experiments: drives a hammer
pattern (from :mod:`repro.attacks.patterns`) through a mitigation engine
attached to a bank, feeding every demand activation into a
:class:`DisturbanceModel`, then reports whether any victim flipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.core.mitigation import Mitigation
from repro.dram.disturbance import DisturbanceModel


@dataclass
class HammerOutcome:
    """Result of one hammering session."""

    activations: int
    flipped_rows: List[int]
    hottest_row: int
    hottest_disturbance: float
    victim_refreshes: int
    duration_ns: float

    @property
    def any_flip(self) -> bool:
        return bool(self.flipped_rows)


def hammer_pattern(
    mitigation: Mitigation,
    disturbance: DisturbanceModel,
    pattern: Iterable[int],
    start: float = 0.0,
    deadline: Optional[float] = None,
) -> HammerOutcome:
    """Hammer ``pattern``'s rows in order through ``mitigation``.

    Each access resolves the logical row through the mitigation's
    indirection (identity for VFM, the RIT for row-swap designs), issues
    the bank access and, when it activates a row (every access on a
    closed-page bank; a row miss on an open-page one), disturbs the
    physical neighbours and notifies the mitigation. Stops at
    ``deadline`` if given.

    The loop is fused: ``Bank.access`` and
    ``DisturbanceModel.on_activation`` are inlined expression for
    expression on local copies of the bank's timing state, and the
    mitigation is consulted through its batching contract (see
    :meth:`~Mitigation.batch_horizon`). An activation finishing before
    :meth:`~Mitigation.batch_quiet_until`, within the declared horizon,
    skips :meth:`~Mitigation.on_activation` (which would only have
    observed the row) and is committed later through
    :meth:`~Mitigation.observe_batch`. Every other activation writes
    the local state back, commits the pending rows, and takes the full
    ``on_activation`` call. Indirection and pinning are read through
    the live :meth:`~Mitigation.resolve_map` and
    :meth:`~Mitigation.batch_pinned_view`, which see every remap and
    pin those calls commit. The end state of the bank, disturbance
    model, tracker and mitigation is bit-identical to a per-access loop
    over those four objects.
    """
    remap = mitigation.resolve_map()
    pinned = mitigation.batch_pinned_view()
    notify = mitigation.on_activation
    observe_batch = mitigation.observe_batch
    batch_horizon = mitigation.batch_horizon
    batch_quiet_until = mitigation.batch_quiet_until
    bank = mitigation.bank
    num_rows = bank.num_rows
    open_page = bank._open_page
    timing = bank.timing
    t_rc = timing.t_rc
    t_rp = timing.t_rp
    t_rcd = timing.t_rcd
    t_cas = timing.t_cas
    t_bl = timing.t_bl
    stats = bank.stats
    counts = stats._counts
    stats_window = stats.refresh_window
    levels = disturbance._disturbance
    flipped = disturbance._flipped
    taps = disturbance._taps
    # A float threshold compares faster against the float levels, and
    # exactly as the int would (thresholds are far below 2**53).
    trh = float(disturbance.trh)
    disturbance_rows = disturbance.num_rows
    limit = float("inf") if deadline is None else deadline
    rows = iter(pattern)
    pending: List[int] = []
    time = start
    issued = 0
    while True:
        # Hoist: (re-)read everything a full-path call may have moved.
        busy = bank.busy_until
        last_act = bank.last_act_time
        open_row = bank.open_row
        accesses = bank.total_accesses
        row_hits = bank.row_hits
        lifetime = stats.lifetime_activations
        stats_index = stats.window_index
        next_roll = disturbance._next_window
        disturbed = disturbance.total_activations
        horizon = batch_horizon()
        quiet = batch_quiet_until()
        full_row = bad_row = None
        for row in rows:
            if time >= limit:
                break
            if pinned is not None and row in pinned:
                time += t_rc
                continue
            physical = remap.get(row, row) if remap is not None else row
            # Bank.access
            if not 0 <= physical < num_rows:
                bad_row = physical
                break
            accesses += 1
            if open_page and open_row == physical:
                row_hits += 1
                act = time if time >= busy else busy
                finish = act + t_cas + t_bl
                busy = finish
                time = finish
                continue
            act = time if time >= busy else busy
            earliest = last_act + t_rc
            if earliest > act:
                act = earliest
            if open_row is not None:
                act += t_rp
            last_act = act
            if act // stats_window != stats_index:
                stats.lifetime_activations = lifetime
                stats.record(physical, act)
                lifetime = stats.lifetime_activations
                stats_index = stats.window_index
            else:
                counts[physical] += 1
                lifetime += 1
            finish = act + t_rcd + t_cas + t_bl
            if open_page:
                open_row = physical
                busy = finish
            else:
                open_row = None
                closed = act + t_rc
                busy = finish if finish >= closed else closed
            # DisturbanceModel.on_activation
            if act >= next_roll:
                disturbance._roll(act)
                next_roll = disturbance._next_window
            disturbed += 1
            for offset, factor in taps:
                victim = physical + offset
                if 0 <= victim < disturbance_rows:
                    level = levels[victim] + factor
                    levels[victim] = level
                    if level >= trh and victim not in flipped:
                        disturbance._flip(victim, act, level)
            issued += 1
            # Mitigation: defer the tracker observation while quiescent.
            # An exhausted horizon is re-read after committing the
            # pending rows; that touches only the tracker, so the local
            # bank and disturbance state needs no write-back.
            if finish < quiet:
                if not horizon and pending:
                    observe_batch(pending)
                    pending = []
                    horizon = batch_horizon()
                if horizon:
                    horizon -= 1
                    pending.append(row)
                    time = finish
                    continue
            full_row = row
            break
        # Write back before the full path (or on the way out).
        bank.busy_until = busy
        bank.last_act_time = last_act
        bank.open_row = open_row
        bank.total_accesses = accesses
        bank.row_hits = row_hits
        stats.lifetime_activations = lifetime
        disturbance.total_activations = disturbed
        if pending:
            observe_batch(pending)
            pending = []
        if full_row is None:
            break
        end = notify(finish, full_row)
        time = end if end > finish else finish
    if bad_row is not None:
        raise ValueError(f"row {bad_row} out of range [0, {num_rows})")
    hottest_row, hottest = disturbance.hottest()
    victim_refreshes = getattr(mitigation, "victim_refreshes", 0)
    return HammerOutcome(
        activations=issued,
        flipped_rows=disturbance.flipped_rows(),
        hottest_row=hottest_row,
        hottest_disturbance=hottest,
        victim_refreshes=victim_refreshes,
        duration_ns=time - start,
    )
