"""Machine-wide observability (metrics, timelines, exports).

The paper's evaluation *is* observability — Figure 8's four-bucket time
breakdown and Table 3's operation counts — but end-of-run aggregates
cannot say *when* a PE idled, *which* T-net link saturated, or *how
deep* an MSC+ queue ran before spilling.  ``repro.obs`` adds:

* :mod:`repro.obs.registry` — counters, gauges, and log2-bucketed
  latency histograms with a canonical JSON form;
* :mod:`repro.obs.observer` — a per-machine observer (plus the ambient
  ``enabled()`` switch mirroring the sanitizer's) that samples queue
  occupancy and per-link traffic during functional runs, and
  ``machine_metrics()``, which harvests the machine's always-on
  hardware counters into one JSON document;
* :mod:`repro.obs.export` — Chrome trace-event / Perfetto export of an
  MLSim replay (spans, flow arrows, instants, phase marks);
* :mod:`repro.obs.top` — ASCII per-PE utilization bars and link
  heatmaps (``repro top``).

Observation is off by default; a machine built without
``MachineConfig(observe=True)`` (or outside ``enabled()``) carries
``machine.obs is None`` and pays one ``is None`` test per issued
command and per pump.
"""
