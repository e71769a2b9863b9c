"""Deterministic checkpoint/restart for the functional machine.

``repro.ckpt`` is the robustness substrate the sharded-execution and
job-server roadmap items restart workers from: a
:class:`~repro.ckpt.snapshot.MachineSnapshot` captures everything that
determines forward execution at a *checkpoint gate* (a sync point every
cell program reaches cooperatively via ``ctx.checkpoint()``), and
restoring it produces a machine whose completed run is byte-identical —
trace, results, and memory — to the uninterrupted run under the same
checkpoint schedule.

The package splits into:

* :mod:`repro.ckpt.policy` — the signal-safe interrupt flag ``repro
  run`` uses to checkpoint on SIGTERM.  The capture cadence, one-shot
  site and snapshot directory are ``MachineConfig`` fields; the resume
  source is ``Workload.run(resume_from=...)``.
* :mod:`repro.ckpt.snapshot` — capture/save/load/restore of the
  versioned ``repro-ckpt-v1`` artifact (JSON header + pickled machine
  state + npz memories), refused loudly on schema or code-version
  mismatch.

See ``docs/checkpoint.md`` for the format and the safe-point contract
checkpointable applications follow.
"""
