"""repro.check — one-sided race detector, synchronization sanitizer,
and SPMD lint.

Three cooperating analyses over the same diagnostic vocabulary:

* the **dynamic checker** (:mod:`repro.check.hb`,
  :mod:`repro.check.races`) reads a recorded trace's columns, computes
  the happens-before order implied by barriers, reductions, flag waits,
  and message pairs, and reports unordered conflicting PUT/GET footprints
  plus synchronization defects (deadlocked waits, mismatched
  collectives);
* the **static lint** (:mod:`repro.check.lint`) walks application
  source for the SPMD API misuse no trace records: CPU reads before
  ``movewait``, dropped blocking generators, reused RECEIVE slots;
* the **static communication-graph analyzer** (:mod:`repro.check.comm`,
  :mod:`repro.check.symbolic`) concolically executes cell programs at
  several machine sizes, extracts the PUT/GET communication graph with
  closed-form message counts in P, and reports scale-generic deadlock,
  race, and stride findings.  It runs the programs on the production
  :class:`~repro.machine.machine.Machine`, so its trace at a size is the
  trace a sanitized run of the app records there.

Drive them through :mod:`repro.check.runner` or ``repro check``.
"""
