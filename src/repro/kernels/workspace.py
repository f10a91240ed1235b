"""Reusable preallocated buffers for the breadth-first pass loop.

The Over Events driver runs hundreds of passes per timestep; before the
kernel layer each pass allocated a dozen fresh full-length temporaries
(speed, distance budgets, cell bounds, event codes, masks).  A
:class:`Workspace` keeps one named buffer per temporary and hands out
length-``n`` views, growing geometrically when the population grows
(fission secondaries, importance clones), so steady-state passes perform
zero full-length allocations.

The ``allocations``/``reuses`` counters are surfaced through
``Counters.kernel_profile`` and the ``*_transport_*`` benches'
``workspace_*`` metrics — they are the measured evidence of the reuse.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Named, typed, get-or-grow scratch buffers.

    Views returned by :meth:`f64`/:meth:`i64`/:meth:`bool_` alias a shared
    buffer per name: they are valid until the same name is requested again
    and must not be held across passes.  Contents are *not* cleared —
    kernels that need initialised buffers fill them (``fill``/``out=``).
    """

    __slots__ = ("_buffers", "allocations", "reuses")

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        #: Fresh numpy allocations performed (one per name, plus growths).
        self.allocations = 0
        #: Buffer hand-outs served from an existing allocation.
        self.reuses = 0

    def _get(self, name: str, n: int, dtype) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or buf.shape[0] < n:
            capacity = n if buf is None else max(n, 2 * buf.shape[0])
            buf = np.empty(capacity, dtype=dtype)
            self._buffers[name] = buf
            self.allocations += 1
        else:
            self.reuses += 1
        return buf[:n]

    def f64(self, name: str, n: int) -> np.ndarray:
        """A float64 view of length ``n`` (uninitialised)."""
        return self._get(name, n, np.float64)

    def i64(self, name: str, n: int) -> np.ndarray:
        """An int64 view of length ``n`` (uninitialised)."""
        return self._get(name, n, np.int64)

    def bool_(self, name: str, n: int) -> np.ndarray:
        """A bool view of length ``n`` (uninitialised)."""
        return self._get(name, n, np.bool_)
