"""Memory-hierarchy substrate: caches, MSHRs, MESI coherence, timing."""

from repro.memory.block import block_of, page_of, blocks_remaining_in_page
from repro.memory.cache import SetAssociativeCache, CacheStats
from repro.memory.dram import DramPort
from repro.memory.mshr import MSHRFile
from repro.memory.coherence import MESIState, Directory
from repro.memory.hierarchy import MemoryHierarchy, SharedUncore, AccessResult
from repro.memory.tlb import TLB

__all__ = [
    "block_of",
    "page_of",
    "blocks_remaining_in_page",
    "SetAssociativeCache",
    "CacheStats",
    "DramPort",
    "MSHRFile",
    "MESIState",
    "Directory",
    "MemoryHierarchy",
    "SharedUncore",
    "AccessResult",
    "TLB",
]
