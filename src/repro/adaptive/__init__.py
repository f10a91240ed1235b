"""Telemetry-driven adaptive scheme scheduling.

The source paper's central finding is that the OP-vs-OE winner depends
on problem character; this package makes the choice a live, per-census-
step decision on top of the unified stepper
(:mod:`repro.core.stepper`).  The scheduler probes both schemes, reads
measured event rates and the alive-population shape, and switches
scheme / block size mid-run — physics stays bit-identical to either
fixed scheme (the stepper's parity guarantee).
"""

from repro.adaptive.scheduler import AdaptiveScheduler

__all__ = ["AdaptiveScheduler"]
