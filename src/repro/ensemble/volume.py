"""The population fingerprint under the 3-D name the repository
benchmark imports.  A 3-D ensemble is fused by
:func:`repro.ensemble.run_ensemble`, like a 2-D one."""

from repro.ensemble.engine import population_fingerprint

__all__ = ["population_fingerprint_3d"]

#: The one fingerprint, under its 3-D name.
population_fingerprint_3d = population_fingerprint
