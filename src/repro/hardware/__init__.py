"""Hardware models of the AP1000+ cell: DRAM and address map, MMU/TLB,
write-through cache, communication registers, MSC+ command queues and DMA,
the MC memory controller, and the MSC+ message controller."""

from repro.hardware.cache import CACHE_BYTES, LINE_BYTES, WriteThroughCache
from repro.hardware.cell import (
    DEFAULT_MEMORY_BYTES,
    HardwareCell,
    boot_cells,
)
from repro.hardware.comm_registers import (
    NUM_REGISTERS,
    REGISTER_BYTES,
    CommRegisterFile,
)
from repro.hardware.dma import MAX_DMA_BYTES, MIN_DMA_BYTES, DMAEngine
from repro.hardware.mc import NO_FLAG, MemoryController, allocate_flag_area
from repro.hardware.memory import (
    PHYSICAL_SPACE_BYTES,
    SHARED_SPACE_BASE,
    WORD_BYTES,
    AddressMap,
    CellMemory,
)
from repro.hardware.mmu import (
    MMU,
    PAGE_4K,
    PAGE_256K,
    TLB_ENTRIES_4K,
    TLB_ENTRIES_256K,
    PageEntry,
)
from repro.hardware.msc import (
    PUT_COMMAND_WORDS,
    STRIDE_COMMAND_WORDS,
    Command,
    CommandKind,
    MSCPlus,
    MSCStats,
)
from repro.hardware.wtpage import (
    WT_PAGE_BYTES,
    PageBinding,
    WriteThroughPageTable,
)
from repro.hardware.queues import (
    COMMAND_WORDS,
    DEFAULT_SPILL_WORDS,
    QUEUE_WORDS,
    CommandQueue,
)

__all__ = [
    "CACHE_BYTES",
    "LINE_BYTES",
    "WriteThroughCache",
    "DEFAULT_MEMORY_BYTES",
    "HardwareCell",
    "boot_cells",
    "NUM_REGISTERS",
    "REGISTER_BYTES",
    "CommRegisterFile",
    "MAX_DMA_BYTES",
    "MIN_DMA_BYTES",
    "DMAEngine",
    "NO_FLAG",
    "MemoryController",
    "allocate_flag_area",
    "PHYSICAL_SPACE_BYTES",
    "SHARED_SPACE_BASE",
    "WORD_BYTES",
    "AddressMap",
    "CellMemory",
    "MMU",
    "PAGE_4K",
    "PAGE_256K",
    "TLB_ENTRIES_4K",
    "TLB_ENTRIES_256K",
    "PageEntry",
    "PUT_COMMAND_WORDS",
    "STRIDE_COMMAND_WORDS",
    "Command",
    "CommandKind",
    "MSCPlus",
    "MSCStats",
    "COMMAND_WORDS",
    "DEFAULT_SPILL_WORDS",
    "QUEUE_WORDS",
    "CommandQueue",
    "WT_PAGE_BYTES",
    "PageBinding",
    "WriteThroughPageTable",
]
