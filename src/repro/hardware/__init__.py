"""Hardware models of the AP1000+ cell: DRAM and address map, MMU/TLB,
write-through cache, communication registers, MSC+ command queues and DMA,
the MC memory controller, and the MSC+ message controller."""
