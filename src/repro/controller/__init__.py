"""Memory controller: queues, scheduling, and the memory system facade."""

from repro.controller.queues import WriteQueue, PendingWrite
from repro.controller.scheduler import FRFCFSArbiter, QueuedRequest
from repro.controller.memory_system import MemorySystem

__all__ = [
    "WriteQueue",
    "PendingWrite",
    "FRFCFSArbiter",
    "QueuedRequest",
    "MemorySystem",
]
