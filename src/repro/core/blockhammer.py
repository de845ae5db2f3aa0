"""BlockHammer-style throttling mitigation (Yaglikci et al., HPCA 2021).

The throttling-based aggressor-focused design the paper criticises
(Section IX-A): track activation rates with dual counting Bloom filters
and *delay* further activations of rows that approach the Row Hammer
threshold, so no row can physically receive ``TRH`` activations within a
window.

The paper's complaints, both reproducible here:

- **Latency/DoS**: keeping a blacklisted row under the threshold means
  spacing its remaining activations across the rest of the window —
  about 20 us per activation at ``TRH = 4800`` (see
  :meth:`throttle_delay_ns`). Bloom-filter false positives extend that
  penalty to innocent rows that merely alias with an attacker's.
- **Scheduling complexity**: the delays must be enforced by the memory
  controller, which this engine models by pushing the bank's
  availability out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.mitigation import Mitigation, MitigationKind
from repro.dram.bank import Bank
from repro.registry import register_mitigation


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixing function."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass
class BloomParameters:
    """Counting-Bloom-filter geometry."""

    num_counters: int = 1024
    num_hashes: int = 4


class CountingBloomFilter:
    """A counting Bloom filter over row numbers.

    Estimates (with one-sided error: never under-counts) how many times
    each row was activated. BlockHammer uses two filters covering
    overlapping half-window epochs so state can be reset without losing
    history; :class:`DualBloomFilter` composes them.
    """

    def __init__(self, params: Optional[BloomParameters] = None, seed: int = 0xB10):
        self.params = params or BloomParameters()
        if self.params.num_counters <= 0 or self.params.num_hashes <= 0:
            raise ValueError("filter geometry must be positive")
        self._counters = [0] * self.params.num_counters
        self._seeds = [
            _splitmix64(seed + i) for i in range(self.params.num_hashes)
        ]

    def _slots(self, row: int) -> List[int]:
        mask = self.params.num_counters
        return [
            _splitmix64(row ^ seed) % mask for seed in self._seeds
        ]

    def insert(self, row: int, count: int = 1) -> int:
        """Count ``count`` activations of ``row``; returns the new estimate.

        Each of the row's hash slots gains ``count`` (twice when two
        hashes share a slot). The counters are integers, so one call
        with ``count=n`` leaves exactly the state of ``n`` single
        inserts and returns the estimate the last of them would.
        """
        slots = self._slots(row)
        for slot in slots:
            self._counters[slot] += count
        return min(self._counters[slot] for slot in slots)

    def estimate(self, row: int) -> int:
        return min(self._counters[slot] for slot in self._slots(row))

    def clear(self) -> None:
        for i in range(len(self._counters)):
            self._counters[i] = 0


class DualBloomFilter:
    """Two filters over staggered epochs (BlockHammer's design).

    The active filter counts; the shadow filter holds the previous
    half-window so a row's rolling estimate never forgets recent history
    when state resets.
    """

    def __init__(self, params: Optional[BloomParameters] = None, seed: int = 0xB10):
        self.filters = (
            CountingBloomFilter(params, seed),
            CountingBloomFilter(params, seed + 7),
        )
        self.active = 0

    def insert(self, row: int, count: int = 1) -> int:
        """Count ``count`` activations in the active filter; returns the
        rolling estimate over both filters."""
        self.filters[self.active].insert(row, count)
        return self.estimate(row)

    def estimate(self, row: int) -> int:
        return self.filters[0].estimate(row) + self.filters[1].estimate(row)

    def rotate(self) -> None:
        """Half-window boundary: clear and swap the active filter."""
        self.active ^= 1
        self.filters[self.active].clear()


@register_mitigation(
    "blockhammer",
    description="BlockHammer throttling (comparator; no tracker, no swaps)",
    uses_tracker=False,
    builder=lambda ctx: BlockHammerThrottle(
        ctx.bank, ctx.trh, keep_events=ctx.keep_events
    ),
)
class BlockHammerThrottle(Mitigation):
    """Throttling engine: delay blacklisted rows below the threshold.

    Args:
        bank: Protected bank.
        trh: Row Hammer threshold.
        blacklist_fraction: Estimate (as a fraction of ``TRH``) at which
            a row becomes throttled. BlockHammer uses ~0.5.
        bloom: Filter geometry.
    """

    def __init__(
        self,
        bank: Bank,
        trh: int,
        blacklist_fraction: float = 0.5,
        bloom: Optional[BloomParameters] = None,
        keep_events: bool = False,
    ):
        super().__init__(bank, None, keep_events)
        if trh <= 0:
            raise ValueError("trh must be positive")
        if not 0.0 < blacklist_fraction < 1.0:
            raise ValueError("blacklist_fraction must be in (0, 1)")
        self.trh = trh
        self.blacklist_threshold = max(1, int(trh * blacklist_fraction))
        self.filters = DualBloomFilter(bloom)
        self.throttled_activations = 0
        self.total_delay_ns = 0.0
        self._half_window = bank.timing.refresh_window / 2.0
        self._next_rotate = self._half_window

    def throttle_delay_ns(self) -> float:
        """Delay per activation of a blacklisted row.

        The remaining ``TRH - blacklist_threshold`` activations must
        stretch across a worst-case full window:
        ``window / (TRH - blacklist_threshold)`` — about 20 us per ACT at
        ``TRH = 4800`` with the 0.5 blacklist point, within spitting
        distance of the paper's quoted 20 us.
        """
        budget = self.trh - self.blacklist_threshold
        return self.bank.timing.refresh_window / max(1, budget)

    def is_blacklisted(self, row: int) -> bool:
        return self.filters.estimate(row) >= self.blacklist_threshold

    def on_activation(self, time: float, row: int) -> float:
        if time >= self._next_rotate:
            self.filters.rotate()
            self._next_rotate += self._half_window
        estimate = self.filters.insert(row)
        if estimate < self.blacklist_threshold:
            return time
        delay = self.throttle_delay_ns()
        self.throttled_activations += 1
        self.total_delay_ns += delay
        return self._move(MitigationKind.COUNTER_ACCESS, time, delay, row=row)

    def end_window(self, time: float) -> None:
        super().end_window(time)
        self.filters.rotate()
        self.filters.rotate()


def dos_false_positive_delay(
    bank: Bank,
    trh: int,
    attacker_rows: int,
    victim_row: int,
    bloom: Optional[BloomParameters] = None,
    seed: int = 0xD05,
) -> Tuple[bool, float]:
    """The paper's DoS concern, measured.

    An attacker hammers ``attacker_rows`` distinct rows just below the
    blacklist point; a benign ``victim_row`` that merely *aliases* with
    them in the Bloom filter gets throttled too. Returns whether the
    victim was blacklisted and the per-activation delay it would then
    suffer.
    """
    engine = BlockHammerThrottle(bank, trh, bloom=bloom)
    per_row = engine.blacklist_threshold - 1
    for attacker in range(1, attacker_rows + 1):
        row = (victim_row + attacker * 7919) % bank.num_rows
        engine.filters.insert(row, count=per_row)
    blacklisted = engine.is_blacklisted(victim_row)
    return blacklisted, engine.throttle_delay_ns() if blacklisted else 0.0
