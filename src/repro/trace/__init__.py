"""Trace recording (probe events), bounded buffering, serialization, and
Table 3 statistics."""
