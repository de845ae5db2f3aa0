"""Randomized Row-Swap (RRS) — the prior state of the art under attack.

RRS (Saileshwar et al., ASPLOS 2022) swaps a row with a randomly chosen
partner every time it crosses ``TS`` activations. Two behaviours matter to
this paper:

1. *Latent activations*: a swap activates the aggressor's original
   location once more (Figure 2, step 5); a subsequent unswap-swap
   ("reswap") adds up to two further activations there (Figure 3) — an
   average of 1.5 with the swap-buffer optimisation. The Juggernaut attack
   (Section III) harvests these.

2. *Immediate unswaps*: RRS unswaps a row before re-swapping it, keeping
   the RIT mapping a clean involution. The no-unswap ablation (Figure 4)
   instead lets swap chains build up and must unravel every chain at the
   end of the refresh window, causing a latency spike worth an extra
   3-7% average slowdown.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.mitigation import (
    Mitigation,
    MitigationEvent,
    MitigationKind,
)
from repro.core.rit import RRSIndirectionTable, SRSIndirectionTable
from repro.dram.bank import Bank
from repro.registry import register_mitigation
from repro.trackers.base import Tracker


def rit_capacity(max_activations: int, swap_threshold: int) -> int:
    """RIT entry count: two tuple entries per swap, provisioned for the
    maximum swaps of two consecutive epochs (current + stale)."""
    max_swaps = -(-max_activations // swap_threshold)
    return 4 * max_swaps


@register_mitigation(
    "rrs",
    description="Randomized Row-Swap (ASPLOS'22), the prior state of the art",
    default_swap_rate=6.0,
    builder=lambda ctx: RandomizedRowSwap(
        ctx.bank, ctx.tracker, ctx.rng, keep_events=ctx.keep_events
    ),
)
class RandomizedRowSwap(Mitigation):
    """The RRS mitigation engine for one bank.

    Args:
        bank: Protected bank.
        tracker: Tracker configured with threshold ``TS``.
        rng: Randomness source for partner selection.
        immediate_unswap: The production RRS behaviour (True). When False,
            models the no-unswap ablation of Figure 4.
        latent_per_reswap: ``"random"`` draws 1 or 2 latent activations per
            reswap uniformly (the paper's 1.5 average under the swap-buffer
            optimisation); integers 1 or 2 force a deterministic count.
    """

    TRACKER_TRIGGERED = True

    def __init__(
        self,
        bank: Bank,
        tracker: Tracker,
        rng: Optional[random.Random] = None,
        immediate_unswap: bool = True,
        latent_per_reswap: str = "random",
        keep_events: bool = False,
    ):
        super().__init__(bank, tracker, keep_events)
        self.rng = rng or random.Random(0x4242)
        self.immediate_unswap = immediate_unswap
        if latent_per_reswap not in ("random", 1, 2):
            raise ValueError("latent_per_reswap must be 'random', 1 or 2")
        self.latent_per_reswap = latent_per_reswap
        timing = bank.timing
        capacity = rit_capacity(
            timing.max_activations_per_window, tracker.threshold
        )
        if immediate_unswap:
            self._rit = RRSIndirectionTable(capacity, self.rng)
        else:
            # Without unswaps the mapping is no longer an involution; the
            # chain-capable table models it (this is a mechanism ablation,
            # not SRS: epoch-end unravelling below is eager and blocking).
            self._rit = SRSIndirectionTable(capacity, self.rng)

    # ------------------------------------------------------------------
    # address translation

    def resolve_map(self):
        return self._rit.resolve_view()

    @property
    def rit(self):
        return self._rit

    # ------------------------------------------------------------------
    # mitigation trigger path

    def on_activation(self, time: float, row: int) -> float:
        obs = self.tracker.observe(row)
        if obs.extra_dram_accesses:
            time = self._charge_tracker_accesses(time, obs.extra_dram_accesses)
        if not obs.triggered:
            return time
        if self.immediate_unswap:
            return self._mitigate_with_unswap(time, row)
        return self._mitigate_chained(time, row)

    def _pick_partner(self, exclude: int) -> int:
        """A uniformly random currently-unswapped row other than ``exclude``."""
        num_rows = self.bank.num_rows
        for _ in range(64):
            candidate = self.rng.randrange(num_rows)
            if candidate == exclude:
                continue
            if self.immediate_unswap and self._rit.is_swapped(candidate):
                continue
            return candidate
        raise RuntimeError("could not find an unswapped partner row")

    def _latent_count(self) -> int:
        if self.latent_per_reswap == "random":
            return self.rng.choice((1, 2))
        return int(self.latent_per_reswap)

    def _make_room(self, time: float) -> float:
        """Evict stale pairs (physically unswapping them) until a new pair
        fits. RRS evicts previous-epoch tuples on demand."""
        while not self._rit.room_for_pair():
            pair = self._rit.pick_stale_pair()
            if pair is None:
                raise RuntimeError(
                    "RIT full of current-epoch entries; capacity misprovisioned"
                )
            a, b = pair
            self._rit.record_unswap(a)
            end = self.bank.occupy(time, self.bank.timing.t_swap)
            self.bank.stats.record(a, time)
            self.bank.stats.record(b, time)
            self._log(
                MitigationEvent(
                    kind=MitigationKind.UNSWAP,
                    time=time,
                    row=a,
                    partner=b,
                    duration=self.bank.timing.t_swap,
                )
            )
            time = end
        return time

    def _mitigate_with_unswap(self, time: float, row: int) -> float:
        t = self.bank.timing
        if self._rit.is_swapped(row):
            # Reswap: unswap <row, partner>, then swap row with a new
            # random partner. Latent activations land on the original
            # (home) location of `row` — this is what Juggernaut exploits.
            old_partner = self._rit.record_unswap(row)
            time = self._make_room(time)
            new_partner = self._pick_partner(row)
            end = self.bank.occupy(time, t.t_reswap)
            # Unswap touches both home locations once...
            self.bank.stats.record(old_partner, time)
            for _ in range(self._latent_count()):
                self.bank.stats.record(row, time)
            # ...and the new swap activates the new partner's home.
            self.bank.stats.record(new_partner, time)
            self._rit.record_swap(row, new_partner)
            self._log(
                MitigationEvent(
                    kind=MitigationKind.RESWAP,
                    time=time,
                    row=row,
                    partner=new_partner,
                    duration=t.t_reswap,
                )
            )
            return end

        time = self._make_room(time)
        partner = self._pick_partner(row)
        end = self.bank.occupy(time, t.t_swap)
        # Figure 2: the swap's final step re-activates the aggressor's
        # original location (latent activation), plus one ACT at the
        # partner's location.
        self.bank.stats.record(row, time)
        self.bank.stats.record(partner, time)
        self._rit.record_swap(row, partner)
        self._log(
            MitigationEvent(
                kind=MitigationKind.SWAP,
                time=time,
                row=row,
                partner=partner,
                duration=t.t_swap,
            )
        )
        return end

    def _mitigate_chained(self, time: float, row: int) -> float:
        """No-unswap ablation: always swap onward, never unswap."""
        t = self.bank.timing
        source = self._rit.resolve(row)
        target = self._pick_partner(row)
        while target == source:
            target = self._pick_partner(row)
        end = self.bank.occupy(time, t.t_swap)
        # The chain swap activates the current location of `row`'s data
        # (not its home!) and the target location: no accumulation at the
        # home location, but the chains must be unravelled later.
        self.bank.stats.record(source, time)
        self.bank.stats.record(target, time)
        self._rit.record_swap(row, target)
        self._log(
            MitigationEvent(
                kind=MitigationKind.SWAP,
                time=time,
                row=row,
                partner=target,
                duration=t.t_swap,
            )
        )
        return end

    # ------------------------------------------------------------------
    # epoch handling

    def end_window(self, time: float) -> None:
        super().end_window(time)
        if self.immediate_unswap:
            self._rit.end_epoch()
            return
        # No-unswap ablation: every displaced row must be moved home now,
        # back-to-back, monopolising the bank (the Figure 4 latency spike).
        displaced = list(self._rit.displaced_rows())
        total = 0.0
        t_swap = self.bank.timing.t_swap
        cursor = time
        for row in displaced:
            if not self._rit.is_swapped(row):
                continue  # already moved home as part of an earlier chain
            chain_row: Optional[int] = row
            while chain_row is not None:
                location = self._rit.resolve(chain_row)
                self.bank.stats.record(location, cursor)
                self.bank.stats.record(chain_row, cursor)
                cursor = self.bank.occupy(cursor, t_swap)
                total += t_swap
                self._log(
                    MitigationEvent(
                        kind=MitigationKind.PLACE_BACK,
                        time=cursor,
                        row=chain_row,
                        duration=t_swap,
                    )
                )
                chain_row = self._rit.place_back(chain_row)
        if total:
            self._log(
                MitigationEvent(
                    kind=MitigationKind.EPOCH_UNRAVEL,
                    time=time,
                    row=-1,
                    duration=0.0,
                )
            )
            self.stats.epoch_unravel_time += total
            # The back-to-back row migrations stream through the memory
            # controller's swap buffers and data bus: the channel is
            # effectively frozen until the unravel completes (this is the
            # Figure 4 penalty, and why practical row swap needs unswaps).
            self.epoch_blocking_until = max(self.epoch_blocking_until, cursor)
        self._rit.end_epoch()


# The Figure 4 ablation is the same engine with immediate unswaps
# disabled; it registers as its own design so sweeps can compare them.
register_mitigation(
    "rrs-no-unswap",
    description="RRS ablation without immediate unswaps (Figure 4)",
    default_swap_rate=6.0,
    builder=lambda ctx: RandomizedRowSwap(
        ctx.bank,
        ctx.tracker,
        ctx.rng,
        immediate_unswap=False,
        keep_events=ctx.keep_events,
    ),
)(RandomizedRowSwap)
