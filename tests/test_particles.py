"""Particle storage: AoS/SoA round-trips, source sampling parity."""

import numpy as np
import pytest

from repro.mesh.structured import StructuredMesh
from repro.particles.arena import ParticleArena
from repro.particles.particle import Particle
from repro.particles.source import SourceRegion, sample_source
from tests.oracle import from_particles, sample_source_aos


def _mesh():
    return StructuredMesh(8, 8, density=np.full((8, 8), 2.0))


def _region():
    return SourceRegion(x0=0.4, x1=0.6, y0=0.4, y1=0.6, energy_ev=1.0e6)


def test_particle_slots_and_defaults():
    p = Particle(
        x=0.5, y=0.5, omega_x=1.0, omega_y=0.0, energy=1e6, weight=1.0,
        cellx=4, celly=4, particle_id=0, dt_to_census=1e-7,
    )
    assert p.alive
    assert p.deposit_buffer == 0.0
    assert p.direction_norm_error() < 1e-15
    with pytest.raises(AttributeError):
        p.not_a_field = 1  # __slots__ forbids new attributes


def test_store_roundtrip_preserves_everything():
    mesh = _mesh()
    particles = sample_source_aos(mesh, _region(), 20, seed=3, dt=1e-7)
    particles[5].alive = False
    particles[7].deposit_buffer = 3.25
    particles[7].scatter_bin = 11
    store = from_particles(particles)
    back = store.to_particles()
    for a, b in zip(particles, back):
        for field in (
            "x", "y", "omega_x", "omega_y", "energy", "weight",
            "mfp_to_collision", "dt_to_census", "local_density",
            "deposit_buffer", "cellx", "celly", "scatter_bin",
            "capture_bin", "fission_bin", "alive", "particle_id", "rng_counter",
        ):
            assert getattr(a, field) == getattr(b, field), field


def test_store_nbytes_positive():
    assert ParticleArena(100).nbytes() > 100 * 10 * 8


def test_store_negative_count():
    with pytest.raises(ValueError):
        ParticleArena(-1)


# ---------------------------------------------------------------------------
# Source sampling
# ---------------------------------------------------------------------------

def test_source_region_validation():
    with pytest.raises(ValueError):
        SourceRegion(x0=0.5, x1=0.5, y0=0.0, y1=1.0, energy_ev=1e6)
    with pytest.raises(ValueError):
        SourceRegion(x0=0.0, x1=1.0, y0=0.0, y1=1.0, energy_ev=-1.0)
    with pytest.raises(ValueError):
        SourceRegion(x0=0.0, x1=1.0, y0=0.0, y1=1.0, energy_ev=1e6, weight=0.0)


def test_sampled_particles_inside_region():
    mesh = _mesh()
    region = _region()
    for p in sample_source_aos(mesh, region, 50, seed=1, dt=1e-7):
        assert region.x0 <= p.x <= region.x1
        assert region.y0 <= p.y <= region.y1
        assert abs(p.omega_x**2 + p.omega_y**2 - 1.0) < 1e-12
        assert p.energy == region.energy_ev
        assert p.mfp_to_collision >= 0.0
        assert p.rng_counter == 4  # exactly the four birth draws


def test_sampled_cells_match_positions():
    mesh = _mesh()
    for p in sample_source_aos(mesh, _region(), 50, seed=1, dt=1e-7):
        assert (p.cellx, p.celly) == mesh.cell_of_point(p.x, p.y)
        assert p.local_density == mesh.density_at(p.cellx, p.celly)


def test_aos_soa_sampling_bit_identical():
    mesh = _mesh()
    aos = sample_source_aos(mesh, _region(), 64, seed=9, dt=1e-7)
    soa = sample_source(mesh, _region(), 64, seed=9, dt=1e-7)
    for i, p in enumerate(aos):
        assert p.x == soa.x[i]
        assert p.y == soa.y[i]
        assert p.omega_x == soa.omega_x[i]
        assert p.omega_y == soa.omega_y[i]
        assert p.mfp_to_collision == soa.mfp_to_collision[i]
        assert p.cellx == soa.cellx[i]
        assert p.celly == soa.celly[i]
        assert p.rng_counter == int(soa.rng_counter[i])


def test_start_id_offsets_streams():
    mesh = _mesh()
    a = sample_source_aos(mesh, _region(), 4, seed=9, dt=1e-7, start_id=0)
    b = sample_source_aos(mesh, _region(), 4, seed=9, dt=1e-7, start_id=2)
    # particle 2 of batch a has the same id (and hence state) as particle 0 of b
    assert a[2].x == b[0].x and a[2].y == b[0].y
    assert a[0].x != b[0].x


def test_sampling_deterministic_in_seed():
    mesh = _mesh()
    a = sample_source_aos(mesh, _region(), 8, seed=5, dt=1e-7)
    b = sample_source_aos(mesh, _region(), 8, seed=5, dt=1e-7)
    c = sample_source_aos(mesh, _region(), 8, seed=6, dt=1e-7)
    assert all(p.x == q.x for p, q in zip(a, b))
    assert any(p.x != q.x for p, q in zip(a, c))


def test_bytes_per_particle_aos():
    assert ParticleArena.bytes_per_particle_aos() == 136
