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


def _hand_out(dtype, what: str):
    """The typed hand-out method: the cached view, else :meth:`Workspace._get`."""

    def hand_out(self: "Workspace", name: str, n: int) -> np.ndarray:
        if n == self._n:
            view = self._views.get(name)
            if view is not None:
                self.reuses += 1
                return view
        return self._get(name, n, dtype)

    hand_out.__doc__ = f"A {what} view of length ``n`` (uninitialised)."
    return hand_out


class Workspace:
    """Named, typed, get-or-grow scratch buffers.

    Views returned by :meth:`f64`/:meth:`i64`/:meth:`bool_` alias a shared
    buffer per name: they are valid until the same name is requested again
    and must not be held across passes.  Contents are *not* cleared —
    kernels that need initialised buffers fill them (``fill``/``out=``).

    The length-``n`` view of each name is cached while ``n`` is the length
    last asked for, so a pass loop over windows of one width slices each
    buffer once per width change, not once per hand-out; a hand-out from
    the cache counts as a reuse, exactly as a fresh slice would.
    """

    __slots__ = ("_buffers", "_views", "_n", "allocations", "reuses")

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        #: The length-``_n`` view of every name handed out at that length.
        self._views: dict[str, np.ndarray] = {}
        self._n = -1
        #: Fresh numpy allocations performed (one per name, plus growths).
        self.allocations = 0
        #: Buffer hand-outs served from an existing allocation.
        self.reuses = 0

    def _get(self, name: str, n: int, dtype) -> np.ndarray:
        """The hand-out the cache cannot serve: a new length, or a name
        not yet handed out at this one."""
        if n != self._n:
            self._n = n
            self._views = {}
        buf = self._buffers.get(name)
        if buf is None or buf.shape[0] < n:
            capacity = n if buf is None else max(n, 2 * buf.shape[0])
            buf = np.empty(capacity, dtype=dtype)
            self._buffers[name] = buf
            self.allocations += 1
        else:
            self.reuses += 1
        view = self._views[name] = buf[:n]
        return view

    f64 = _hand_out(np.float64, "float64")
    i64 = _hand_out(np.int64, "int64")
    bool_ = _hand_out(np.bool_, "bool")
