"""DRAM device substrate: organization, timing, banks, refresh, addressing.

This package models a DDR4 memory system at the granularity needed by
row-swap Row Hammer mitigations: per-bank row-buffer state machines,
activate (ACT) accounting per physical row per refresh window, refresh
scheduling, and the Table III timing parameters of the paper.
"""

from repro.dram.config import (
    DRAMTiming,
    DRAMOrganization,
    SystemConfig,
    DEFAULT_TIMING,
    DEFAULT_ORGANIZATION,
)
from repro.dram.commands import PagePolicy
from repro.dram.address import AddressMapper, DecodedAddress
from repro.dram.bank import Bank, ActivationStats
from repro.dram.refresh import RefreshScheduler
from repro.dram.disturbance import DisturbanceModel, FlipEvent
from repro.dram.channel import Rank, Channel

__all__ = [
    "DRAMTiming",
    "DRAMOrganization",
    "SystemConfig",
    "DEFAULT_TIMING",
    "DEFAULT_ORGANIZATION",
    "PagePolicy",
    "AddressMapper",
    "DecodedAddress",
    "Bank",
    "ActivationStats",
    "RefreshScheduler",
    "DisturbanceModel",
    "FlipEvent",
    "Rank",
    "Channel",
]
