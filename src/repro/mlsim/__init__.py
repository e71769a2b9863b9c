"""MLSim — the message level simulator (section 5).

Trace-driven timing replay of functional-machine traces under the
paper's machine models: parameter files (Figure 6), the PUT communication
model (Figure 7), a discrete-event engine, and the four-bucket time
breakdown of section 5.3."""
