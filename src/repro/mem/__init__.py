"""Memory hierarchy: caches, WEC/victim/prefetch sidecars, L2, coherence."""

from .cache import DIRTY, PREFETCHED, WRONG, EvictedBlock, SetAssocCache
from .coherence import UpdateBus
from .fully_assoc import FullyAssocBuffer
from .hierarchy import HIT_LATENCY, TUMemSystem
from .l2 import SharedL2
from .mainmem import MainMemory

__all__ = [
    "DIRTY",
    "PREFETCHED",
    "WRONG",
    "EvictedBlock",
    "SetAssocCache",
    "UpdateBus",
    "FullyAssocBuffer",
    "HIT_LATENCY",
    "TUMemSystem",
    "SharedL2",
    "MainMemory",
]
