"""Analytical cost models: storage (Table IV), power (Table V), history."""

from repro.analysis.storage import StorageModel, StorageBreakdown
from repro.analysis.power import PowerModel, PowerBreakdown
from repro.analysis.thresholds import TRH_HISTORY, trh_for_generation, scaling_factor

__all__ = [
    "StorageModel",
    "StorageBreakdown",
    "PowerModel",
    "PowerBreakdown",
    "TRH_HISTORY",
    "trh_for_generation",
    "scaling_factor",
]
