"""Builders wiring trackers and mitigation engines onto banks.

Both builders are registry-driven: mitigation designs and trackers
declare themselves with :func:`repro.registry.register_mitigation` /
:func:`repro.registry.register_tracker`, and this module only resolves
names and assembles the per-bank plumbing (RNG streams, tracker sizing,
the shared pin-buffer).
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.core.mitigation import Mitigation
from repro.core.pin_buffer import PinBuffer
from repro.dram.bank import Bank
from repro.dram.config import DRAMTiming
from repro.registry import MITIGATIONS, TRACKERS, MitigationBuildContext
from repro.trackers.base import Tracker


def swap_threshold(trh: int, swap_rate: float) -> int:
    """``TS`` for a given threshold and swap rate (at least 2)."""
    return max(2, int(round(trh / swap_rate)))


def make_tracker(
    name: str,
    ts: int,
    timing: DRAMTiming,
) -> Tracker:
    """Build a registered tracker sized for ``TS`` under the given timing."""
    return TRACKERS.get(name).builder(ts, timing)


def make_mitigation_factory(
    name: str,
    trh: int,
    timing: DRAMTiming,
    swap_rate: Optional[float] = None,
    tracker: str = "misra-gries",
    seed: int = 99,
    pin_buffer: Optional[PinBuffer] = None,
    keep_events: bool = False,
) -> Callable[[Bank, tuple], Mitigation]:
    """Factory of per-bank mitigation engines for :class:`MemorySystem`.

    Args:
        name: A registered mitigation name (see ``MITIGATIONS.names()``).
        trh: Row Hammer threshold (in the timing's window units).
        timing: DRAM timing (drives tracker and RIT sizing).
        swap_rate: ``TRH / TS``; defaults to the design's registered rate
            (6 for RRS/SRS, 3 for Scale-SRS). Designs without a swap rate
            trigger their tracker at ``TRH`` directly.
        tracker: Tracker type per bank.
        seed: Base RNG seed; each bank derives its own stream.
        pin_buffer: Shared pin-buffer for Scale-SRS (created if absent).
        keep_events: Retain per-event mitigation logs (tests only).
    """
    info = MITIGATIONS.get(name)

    rate = swap_rate if swap_rate is not None else info.default_swap_rate
    ts = swap_threshold(trh, rate) if rate else trh
    # `is not None` matters: an empty PinBuffer is falsy (len == 0).
    shared_pins = pin_buffer if pin_buffer is not None else PinBuffer()

    def factory(bank: Bank, bank_key: tuple) -> Mitigation:
        rng = random.Random((seed << 16) ^ hash(bank_key))
        bank_tracker = (
            make_tracker(tracker, ts, bank.timing) if info.uses_tracker else None
        )
        context = MitigationBuildContext(
            bank=bank,
            bank_key=bank_key,
            trh=trh,
            swap_threshold=ts,
            tracker=bank_tracker,
            rng=rng,
            pin_buffer=shared_pins,
            keep_events=keep_events,
        )
        return info.builder(context)

    return factory
