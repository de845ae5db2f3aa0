"""Memory controller: the write queue and the memory system facade."""

from repro.controller.queues import WriteQueue, PendingWrite
from repro.controller.memory_system import MemorySystem

__all__ = [
    "WriteQueue",
    "PendingWrite",
    "MemorySystem",
]
