"""External trace ingestion: replay foreign workloads on the AP1000+.

The paper's MLSim methodology is trace-driven — record once, replay
under any machine model.  This package opens the *record* side to
traces we never produced: pluggable readers
(:mod:`repro.ingest.readers`) parse VEF/TraceLIB-style text or MPI-ish
JSON lines into :class:`ForeignEvent` streams, and the mapper
(:mod:`repro.ingest.mapper`) translates them into canonical
:mod:`repro.trace` events — rank→cell mapping, clock normalization,
put/get flag plumbing, send/recv matching — that ``repro replay``,
``repro check``, and ``repro trace export`` consume unmodified.  See
``docs/ingest.md``.
"""
