"""The functional AP1000+ machine: configuration, SPMD scheduler, the
per-cell programming interface, and ring buffers for SEND/RECEIVE."""
