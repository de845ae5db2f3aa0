"""The paper's primary contribution: row-swap Row Hammer mitigations.

Modules:

- :mod:`repro.core.rit` — Row Indirection Tables: the tuple-paired RIT of
  RRS and the split real/mirrored swap-only RIT of SRS.
- :mod:`repro.core.mitigation` — the common mitigation interface and the
  not-secure baseline.
- :mod:`repro.core.rrs` — Randomized Row-Swap (with and without immediate
  unswaps).
- :mod:`repro.core.srs` — Secure Row-Swap: swap-only indirection, lazy
  evictions, place-back buffer, swap-count attack detection.
- :mod:`repro.core.scale_srs` — Scale-SRS: reduced swap rate with outlier
  detection and LLC pinning.
- :mod:`repro.core.swap_counters` — per-row swap-tracking counters and the
  epoch register.
- :mod:`repro.core.pin_buffer` — the pin-buffer redirecting pinned DRAM
  rows into reserved LLC sets.

Every mitigation design registers itself with
:func:`repro.registry.register_mitigation`; importing this package
populates the registry, and the simulator, CLI, and experiment grids
discover designs (names, default swap rates, builders) from it. Adding
a mitigation is one decorated class — no factory or CLI edits.
"""

from repro.core.rit import RRSIndirectionTable, SRSIndirectionTable
from repro.core.mitigation import (
    Mitigation,
    BaselineMitigation,
    MitigationEvent,
    MitigationKind,
)
from repro.core.swap_counters import SwapTrackingCounters, EpochRegister
from repro.core.pin_buffer import PinBuffer
from repro.core.rrs import RandomizedRowSwap
from repro.core.srs import SecureRowSwap
from repro.core.scale_srs import ScaleSecureRowSwap
from repro.core.vfm import PARA, TargetedRowRefresh, VictimRefreshMitigation
from repro.core.aqua import AquaQuarantine, QuarantineFullError
from repro.core.blockhammer import (
    BlockHammerThrottle,
    BloomParameters,
    CountingBloomFilter,
    DualBloomFilter,
)
from repro.registry import MITIGATIONS, register_mitigation

__all__ = [
    "MITIGATIONS",
    "register_mitigation",
    "RRSIndirectionTable",
    "SRSIndirectionTable",
    "Mitigation",
    "BaselineMitigation",
    "MitigationEvent",
    "MitigationKind",
    "SwapTrackingCounters",
    "EpochRegister",
    "PinBuffer",
    "RandomizedRowSwap",
    "SecureRowSwap",
    "ScaleSecureRowSwap",
    "PARA",
    "TargetedRowRefresh",
    "VictimRefreshMitigation",
    "AquaQuarantine",
    "QuarantineFullError",
    "BlockHammerThrottle",
    "BloomParameters",
    "CountingBloomFilter",
    "DualBloomFilter",
]
