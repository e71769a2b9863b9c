"""The section 5.2 application suite: EP, CG, FT, SP, TOMCATV (stride and
no-stride), MatMul, and SCG — each a real, verifiable kernel running on
the functional machine, plus the pentadiagonal solver substrate and the
workload registry."""
