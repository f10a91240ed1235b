"""The canonical SoA particle arena.

The paper's storage finding (§VI-D) is that layout — SoA vs AoS — is a
first-order performance lever for both traversal schemes.  This module
commits the reproduction to a *single* Structure-of-Arrays representation
that every stage views in place, the way modern event-based transport
codes (MC/DC's on-GPU event processing, the performance-portable Neutral
ports) keep one device-resident store:

* every field of every particle lives in **one contiguous byte buffer**,
  field-major (all ``x``, then all ``y``, …), so a population is one
  allocation and one ``memcpy``-shaped hand-off;
* the buffer can be re-homed into a :class:`multiprocessing.shared_memory`
  block, after which a worker process attaches a **zero-copy shard view**
  by ``(name, total, lo, hi)`` — no particle is ever pickled across the
  process boundary (see :meth:`ParticleArena.to_shared` /
  :meth:`ParticleArena.attach`);
* the AoS record survives only as the lossless
  :meth:`~ParticleArena.to_particles` copy (the pickled-list payload the
  shard hand-off bench compares the arena handle against);
* population changes — fission secondaries and VR clones (blocks copied
  from their parents' rows by :meth:`subset`), alive-mask compaction, the
  energy/cell sorts the Over Events optimisation literature uses to keep
  event batches coherent — are arena methods (:meth:`extend`,
  :meth:`compact`, :meth:`sort_by`).

:class:`ParticleArena` is the 2-D population (float fields ``float64``,
cell indices and cached bins ``int64``, ``alive``/``censused`` boolean
masks, ``particle_id``/``rng_counter`` the ``uint64`` Threefry key and
counter words) and names its per-axis fields in the ``pos`` / ``omega`` /
``cells`` tuples; :class:`ParticleArena3` is the same population with one
more axis.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.particles.particle import Particle

__all__ = [
    "EnsembleArena",
    "EnsembleArena3",
    "FUSED_ARENA",
    "ParticleArena",
    "ParticleArena3",
    "shard_handle_nbytes",
]

_ALIGN = 8


def _untracked_attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing shared-memory block without letting this
    process's resource tracker adopt (and later unlink) it.

    The creating process owns the segment's lifetime; attachers must not
    unlink it when they exit (bpo-39959).  Python 3.13 grew a ``track=``
    parameter for exactly this; on older interpreters we unregister the
    name right after the constructor registered it.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        shm = shared_memory.SharedMemory(name=name)
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker API drift
            pass
        return shm


class _FieldArena:
    """Field-major SoA storage over one contiguous buffer.

    Subclasses declare ``FIELDS`` — an ordered ``(name, dtype)`` tuple —
    and the layout (per-field byte offsets, 8-byte aligned) is a pure
    function of the particle count, so any process that knows ``(n, lo,
    hi)`` can rebuild the exact same views over an attached buffer.
    """

    FIELDS: tuple[tuple[str, object], ...] = ()

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("particle count must be non-negative")
        self._allocate(int(n))
        self._init_defaults()

    # ------------------------------------------------------------------
    # Layout and binding
    # ------------------------------------------------------------------
    @classmethod
    def layout(cls, n: int) -> tuple[dict, int]:
        """``({field: byte offset}, total bytes)`` for an ``n``-particle
        arena — deterministic, so shard attachment needs no metadata
        beyond the population size."""
        offsets = {}
        off = 0
        for name, dtype in cls.FIELDS:
            off = (off + _ALIGN - 1) & ~(_ALIGN - 1)
            offsets[name] = off
            off += n * np.dtype(dtype).itemsize
        return offsets, (off + _ALIGN - 1) & ~(_ALIGN - 1)

    def _bind(self, buf, n_total: int, lo: int, hi: int, shm=None) -> None:
        """Point this instance's field arrays at ``buf[lo:hi]`` slices."""
        offsets, _ = self.layout(n_total)
        self._buf = buf
        self._shm = shm
        self.n = hi - lo
        for name, dtype in self.FIELDS:
            dt = np.dtype(dtype)
            view = np.frombuffer(
                buf, dtype=dt, count=hi - lo,
                offset=offsets[name] + lo * dt.itemsize,
            )
            setattr(self, name, view)

    def _allocate(self, n: int) -> None:
        _, total = self.layout(n)
        self._bind(np.zeros(total, dtype=np.uint8), n, 0, n)

    def _init_defaults(self) -> None:
        """Field defaults for a freshly allocated arena (subclass hook)."""

    def _adopt(self, other: "_FieldArena") -> None:
        """Re-home this instance onto ``other``'s storage, in place, so
        every existing reference to *this* arena object sees the new
        population.  Slice views handed out before the adoption keep
        pointing at the old buffer."""
        self._buf = other._buf
        self._shm = other._shm
        self.n = other.n
        for name, _ in self.FIELDS:
            setattr(self, name, getattr(other, name))

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------------
    # Views, copies, gathers
    # ------------------------------------------------------------------
    def view(self, lo: int, hi: int) -> "_FieldArena":
        """A zero-copy window onto particles ``[lo, hi)`` of this arena —
        every field array is a slice sharing this arena's memory."""
        if not 0 <= lo <= hi <= self.n:
            raise ValueError(f"invalid view [{lo}, {hi}) of {self.n}")
        out = object.__new__(type(self))
        out._buf = self._buf
        out._shm = self._shm
        out.n = hi - lo
        for name, _ in self.FIELDS:
            setattr(out, name, getattr(self, name)[lo:hi])
        return out

    def copy(self) -> "_FieldArena":
        """A materialised private copy (own buffer)."""
        out = type(self)(self.n)
        for name, _ in self.FIELDS:
            np.copyto(getattr(out, name), getattr(self, name))
        return out

    def subset(self, indices: np.ndarray) -> "_FieldArena":
        """A new arena holding copies of the selected particles, in the
        given order (shard carving and deterministic reassembly)."""
        indices = np.asarray(indices)
        out = type(self)(int(indices.size))
        for name, _ in self.FIELDS:
            getattr(out, name)[...] = getattr(self, name)[indices]
        return out

    def extend(self, *others: "_FieldArena") -> None:
        """Append other arenas' particles, in order, in place (the
        population grows into a fresh private buffer; shared-memory
        backing, if any, is left behind untouched)."""
        n = self.n + sum(len(o) for o in others)
        if n == self.n:
            return
        merged = type(self)(n)
        for name, _ in self.FIELDS:
            np.concatenate(
                [getattr(a, name) for a in (self, *others)],
                out=getattr(merged, name),
            )
        self._adopt(merged)

    # ------------------------------------------------------------------
    # Compaction and sorting hooks
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Drop dead histories in place; returns how many were removed.

        The OE gather loops visit the whole population every pass, so a
        mostly-dead arena streams mostly-wasted lanes; compaction trades
        one gather for full occupancy afterwards.
        """
        alive_idx = np.nonzero(self.alive)[0]
        removed = self.n - int(alive_idx.size)
        if removed:
            self.permute(alive_idx)
        return removed

    def permute(self, order: np.ndarray) -> None:
        """Reorder the population in place to rows ``order``."""
        self._adopt(self.subset(order))

    def sort_by(self, key: str = "energy") -> np.ndarray:
        """Reorder the population in place; returns the permutation used.

        ``energy`` groups particles into coherent cross-section-table
        regions (the OE sort optimisation the paper discusses); ``cell``
        groups tally/density locality; ``particle_id`` restores the
        canonical birth order.  Per-history physics is invariant under any
        reordering — each history owns its counter-based RNG stream — so
        sorting changes batching only, never results.
        """
        if key == "energy":
            order = np.argsort(self.energy, kind="stable")
        elif key == "cell":
            order = np.lexsort(self.cells)
        elif key == "particle_id":
            order = np.argsort(self.particle_id, kind="stable")
        else:
            raise ValueError(
                f"unknown sort key {key!r}; use energy, cell or particle_id"
            )
        self.permute(order)
        return order

    # ------------------------------------------------------------------
    # Shared-memory sharding
    # ------------------------------------------------------------------
    def to_shared(self) -> "_FieldArena":
        """Copy this population into a fresh shared-memory block.

        Returns an arena viewing the block; the caller owns the segment
        and must call :meth:`close` (with ``unlink=True``) when every
        worker is done.  Workers attach shards of it with :meth:`attach`.
        """
        _, total = self.layout(self.n)
        shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
        out = object.__new__(type(self))
        out._bind(shm.buf, self.n, 0, self.n, shm=shm)
        for name, _ in self.FIELDS:
            np.copyto(getattr(out, name), getattr(self, name))
        return out

    @classmethod
    def attach(
        cls, name: str, n_total: int, lo: int = 0, hi: int | None = None
    ) -> "_FieldArena":
        """Attach a zero-copy view of particles ``[lo, hi)`` of the
        shared arena ``name`` holding ``n_total`` particles.

        This is the worker-pool hand-off: the parent ships the tuple
        ``(name, n_total, lo, hi)`` (a few dozen bytes) instead of a
        pickled particle list, and a retried shard re-attaches the same
        pristine slice for bit-identical re-execution.
        """
        hi = n_total if hi is None else hi
        if not 0 <= lo <= hi <= n_total:
            raise ValueError(f"invalid shard [{lo}, {hi}) of {n_total}")
        shm = _untracked_attach(name)
        out = object.__new__(cls)
        out._bind(shm.buf, n_total, lo, hi, shm=shm)
        return out

    @property
    def shm_name(self) -> str | None:
        """Shared-memory block name, or ``None`` for private arenas."""
        return self._shm.name if self._shm is not None else None

    def close(self, unlink: bool = False) -> None:
        """Release the shared-memory mapping (owner passes ``unlink``)."""
        shm = self._shm
        if shm is None:
            return
        # Field views must drop their buffer references before the
        # mapping can be closed.
        for name, _ in self.FIELDS:
            setattr(self, name, np.zeros(0, dtype=np.dtype(dict(self.FIELDS)[name])))
        self._buf = None
        self._shm = None
        self.n = 0
        shm.close()
        if unlink:
            # An attacher in this same process may have unregistered the
            # name (see _untracked_attach); re-register so the tracker's
            # books balance when unlink() unregisters it again.
            try:
                resource_tracker.register(shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker API drift
                pass
            shm.unlink()

    # ------------------------------------------------------------------
    # Accounting and serialisation
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Total memory footprint of the particle fields in bytes."""
        return int(sum(getattr(self, name).nbytes for name, _ in self.FIELDS))

    @classmethod
    def bytes_per_particle(cls) -> int:
        """Bytes one particle occupies across all SoA field segments."""
        return int(sum(np.dtype(dt).itemsize for _, dt in cls.FIELDS))

    def backed_by_single_buffer(self) -> bool:
        """True when every field still views the arena's own buffer (the
        invariant that keeps :meth:`to_shared` a single copy)."""
        if self._buf is None:
            return False
        return all(
            np.shares_memory(getattr(self, name), self._buf)
            for name, _ in self.FIELDS
            if getattr(self, name).size
        )

    def __getstate__(self) -> dict:
        """Pickle as plain field arrays (never the shm mapping)."""
        return {
            "n": self.n,
            "fields": {
                name: np.ascontiguousarray(getattr(self, name))
                for name, _ in self.FIELDS
            },
        }

    def __setstate__(self, state: dict) -> None:
        self._allocate(state["n"])
        for name, _ in self.FIELDS:
            np.copyto(getattr(self, name), state["fields"][name])


def shard_handle_nbytes(handle) -> int:
    """Serialised size of a shard hand-off handle ``(name, n, lo, hi)``
    — the payload that replaces a pickled particle list."""
    import pickle

    return len(pickle.dumps(handle, protocol=pickle.HIGHEST_PROTOCOL))


# ---------------------------------------------------------------------------
# The 2-D transport arena
# ---------------------------------------------------------------------------

_FLOAT_FIELDS = (
    "x",
    "y",
    "omega_x",
    "omega_y",
    "energy",
    "weight",
    "mfp_to_collision",
    "dt_to_census",
    "local_density",
    "deposit_buffer",
)
_INT_FIELDS = ("cellx", "celly", "scatter_bin", "capture_bin", "fission_bin")
#: :class:`Particle` attributes its constructor does not take.
_AOS_CACHED_FIELDS = (
    "alive", "scatter_bin", "capture_bin", "fission_bin", "local_density",
    "deposit_buffer",
)


class ParticleArena(_FieldArena):
    """The canonical 2-D particle population: the single-buffer layout,
    shared-memory sharding, block appends, compaction/sort hooks and
    lossless AoS conversion."""

    FIELDS = (
        tuple((name, np.float64) for name in _FLOAT_FIELDS)
        + tuple((name, np.int64) for name in _INT_FIELDS)
        + (
            ("alive", np.bool_),
            ("censused", np.bool_),
            ("particle_id", np.uint64),
            ("rng_counter", np.uint64),
        )
    )

    #: Field names of the per-axis state, one entry per mesh axis.
    POSITION = ("x", "y")
    DIRECTION = ("omega_x", "omega_y")
    CELL = ("cellx", "celly")

    def _init_defaults(self) -> None:
        self.alive[...] = True
        self.particle_id[...] = np.arange(self.n, dtype=np.uint64)

    @property
    def pos(self) -> tuple:
        """Position components, one array per axis."""
        return tuple(getattr(self, name) for name in self.POSITION)

    @property
    def omega(self) -> tuple:
        """Direction cosines, one array per axis."""
        return tuple(getattr(self, name) for name in self.DIRECTION)

    @property
    def cells(self) -> tuple:
        """Cell indices, one array per axis."""
        return tuple(getattr(self, name) for name in self.CELL)

    @staticmethod
    def bytes_per_particle_aos() -> int:
        """Bytes of one AoS record as the C mini-app would lay it out.

        10 doubles + 4 ints + id/counter + flag, padded — used by the cache
        model to contrast AoS (one or two lines per history) against SoA
        (one line *per field* per particle).
        """
        return 10 * 8 + 4 * 8 + 2 * 8 + 8  # 136 bytes, ~2-3 cache lines

    def to_particles(self) -> list[Particle]:
        """Materialise AoS :class:`Particle` copies (lossless, except the
        census flags AoS does not represent; mutating them does not write
        back — a :meth:`view` does)."""
        columns = {
            name: getattr(self, name).tolist() for name in Particle.__slots__
        }
        out = []
        for i in range(self.n):
            state = {name: column[i] for name, column in columns.items()}
            cached = {name: state.pop(name) for name in _AOS_CACHED_FIELDS}
            p = Particle(**state)
            for name, value in cached.items():
                setattr(p, name, value)
            out.append(p)
        return out

    @classmethod
    def fuse(cls, arenas) -> "ParticleArena":
        """Concatenate member populations, in order, into one arena of
        this type (the members' own fields are copied)."""
        out = cls(sum(len(a) for a in arenas))
        off = 0
        for a in arenas:
            n = len(a)
            for name, _ in a.FIELDS:
                getattr(out, name)[off:off + n] = getattr(a, name)
            off += n
        return out


# ---------------------------------------------------------------------------
# The fused multi-replica arena (ensemble batching)
# ---------------------------------------------------------------------------

class EnsembleArena(ParticleArena):
    """A fused multi-replica population: :class:`ParticleArena` plus one
    trailing ``replica_id`` field tagging which ensemble member each
    history belongs to.

    The base arena's field set (and therefore its 138 B/particle
    footprint, which the bench trajectory gates exactly) is untouched —
    fusion cost is carried only by runs that opt into it.  All of the
    single-buffer machinery (layout, shared-memory hand-off by the same
    36 B ``(shm_name, n_total, lo, hi)`` handle, compaction, sorting) is
    inherited; ``compact()`` and stable sorts preserve the per-replica
    relative order that makes fused physics bit-identical to standalone
    runs.
    """

    FIELDS = ParticleArena.FIELDS + (("replica_id", np.int64),)

    @classmethod
    def fuse(cls, arenas) -> "EnsembleArena":
        """Concatenate member populations replica-major, tagging each
        block with its replica index."""
        out = super().fuse(arenas)
        out.replica_id[...] = np.repeat(
            np.arange(len(arenas)), [len(a) for a in arenas]
        )
        return out


# ---------------------------------------------------------------------------
# The 3-D volume-extension arena
# ---------------------------------------------------------------------------

class ParticleArena3(ParticleArena):
    """The 3-D population: :class:`ParticleArena`'s fields plus one more
    axis (``z``, ``omega_z``, ``cellz``) — same vocabulary, same
    machinery, so the one event pass runs over it unchanged."""

    FIELDS = ParticleArena.FIELDS + (
        ("z", np.float64), ("omega_z", np.float64), ("cellz", np.int64),
    )
    POSITION = ("x", "y", "z")
    DIRECTION = ("omega_x", "omega_y", "omega_z")
    CELL = ("cellx", "celly", "cellz")


class EnsembleArena3(EnsembleArena):
    """The fused multi-replica population in 3-D: :class:`ParticleArena3`'s
    fields plus the trailing ``replica_id``, fused by
    :meth:`EnsembleArena.fuse`."""

    FIELDS = ParticleArena3.FIELDS + (("replica_id", np.int64),)
    POSITION = ParticleArena3.POSITION
    DIRECTION = ParticleArena3.DIRECTION
    CELL = ParticleArena3.CELL


#: The fused arena type of a population, by its member arena type.
FUSED_ARENA = {ParticleArena: EnsembleArena, ParticleArena3: EnsembleArena3}
