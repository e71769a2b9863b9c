"""AP1000+ interconnect models: T-net (torus), B-net (broadcast), S-net
(barrier), plus the packet formats they carry."""
