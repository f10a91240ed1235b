"""The 0-d constant operands of the per-pass code, each defined once.

A ufunc takes a 0-d array of the other operand's dtype for less per call
than a Python or NumPy scalar of the same value, and computes the same
bits, so the pass path spells its shared constants as these.  The
``float64`` ones carry their value's name; the ``int64`` ones end in
``_I``.  This module imports nothing from :mod:`repro`, so
:mod:`repro.mesh` takes its operands from here without an import cycle.
"""

from __future__ import annotations

import numpy as np

__all__ = ["HALF", "INTS", "MINUS_ONE", "ONE", "ONE_I", "TWO", "ZERO", "ZERO_I"]

ZERO, HALF, ONE, TWO, MINUS_ONE = (np.array(v) for v in (0.0, 0.5, 1.0, 2.0, -1.0))

#: 0, 1 and 2 as ``int64``: an axis number or an event kind's code indexes it.
INTS = tuple(np.array(i) for i in range(3))
ZERO_I, ONE_I = INTS[:2]
