"""Processor-side substrate: USIMM-style trace-driven cores and the LLC."""

from repro.cpu.core import TraceCore, CoreResult
from repro.cpu.cache import SetAssociativeCache

__all__ = ["TraceCore", "CoreResult", "SetAssociativeCache"]
