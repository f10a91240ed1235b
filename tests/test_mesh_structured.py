"""Structured mesh: indexing, geometry, validation — the one mesh in 2-D
and 3-D."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.structured import StructuredMesh
from repro.volume import StructuredMesh3D


def test_basic_properties():
    m = StructuredMesh(8, 4, width=2.0, height=1.0)
    assert m.ncells == 32
    assert m.dx == pytest.approx(0.25)
    assert m.dy == pytest.approx(0.25)
    assert m.shape == (8, 4) and m.deltas == (m.dx, m.dy)
    # The 3-D spelling is the same type over one more axis.
    m = StructuredMesh3D(4, 5, 6)
    assert type(m) is StructuredMesh
    assert m.ncells == 120
    assert (m.nx, m.ny, m.nz) == m.shape == (4, 5, 6)
    assert m.deltas == (m.dx, m.dy, m.dz) == (0.25, 0.2, 1.0 / 6.0)
    assert m.density.shape == (6, 5, 4)
    assert m.cell_of_point(0.999, 0.999, 0.999) == (3, 4, 5)


def test_flat_index_row_major():
    m = StructuredMesh(10, 5)
    assert m.flat_index(0, 0) == 0
    assert m.flat_index(9, 0) == 9
    assert m.flat_index(0, 1) == 10
    assert m.flat_index(9, 4) == 49
    # x fastest in 3-D too: (iz·ny + iy)·nx + ix.
    m = StructuredMesh3D(10, 5, 3)
    assert m.flat_index(9, 0, 0) == 9
    assert m.flat_index(0, 1, 0) == 10
    assert m.flat_index(0, 0, 1) == 50
    assert m.flat_index(9, 4, 2) == 149 == m.ncells - 1
    cells = np.array([1, 9]), np.array([2, 4]), np.array([1, 0])
    assert np.array_equal(m.flat_index(*cells), [71, 49])


@given(
    x=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    y=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_cell_of_point_in_range(x, y):
    m = StructuredMesh(16, 16)
    ix, iy = m.cell_of_point(x, y)
    assert 0 <= ix < 16 and 0 <= iy < 16
    x0, x1, y0, y1 = m.cell_bounds(ix, iy)
    assert x0 <= x <= x1 + 1e-12
    assert y0 <= y <= y1 + 1e-12


def test_cell_of_point_boundary_clamps():
    m = StructuredMesh(4, 4)
    assert m.cell_of_point(1.0, 1.0) == (3, 3)
    assert m.cell_of_point(0.0, 0.0) == (0, 0)


def test_cell_of_point_outside_raises():
    m = StructuredMesh(4, 4)
    with pytest.raises(ValueError):
        m.cell_of_point(1.5, 0.5)
    with pytest.raises(ValueError, match="outside mesh"):
        StructuredMesh3D(4, 5, 6).cell_of_point(1.5, 0.5, 0.5)


def test_cell_of_point_vec_matches_scalar():
    rng = np.random.default_rng(0)
    for m in (StructuredMesh(13, 7, width=3.0, height=2.0),
              StructuredMesh3D(13, 7, 5, 3.0, 2.0, 0.5)):
        points = [rng.uniform(0, e, 200) for e in m.extent]
        cells = m.cell_of_point_vec(*points)
        for i in range(200):
            assert tuple(int(c[i]) for c in cells) == m.cell_of_point(
                *(float(p[i]) for p in points)
            )


def test_cell_bounds_tile_the_domain():
    m = StructuredMesh(5, 3, width=1.0, height=0.6)
    assert m.cell_bounds(0, 0)[0] == 0.0
    assert m.cell_bounds(4, 0)[1] == pytest.approx(1.0)
    assert m.cell_bounds(0, 2)[3] == pytest.approx(0.6)
    # adjacent cells share a face
    assert m.cell_bounds(1, 0)[0] == m.cell_bounds(0, 0)[1]
    m = StructuredMesh3D(5, 3, 2, 1.0, 0.6, 0.4)
    assert m.cell_bounds(4, 2, 1) == pytest.approx((0.8, 1.0, 0.4, 0.6, 0.2, 0.4))
    assert m.cell_bounds(0, 0, 1)[4] == m.cell_bounds(0, 0, 0)[5]


def test_density_roundtrip():
    d = np.arange(12, dtype=float).reshape(3, 4)
    m = StructuredMesh(4, 3, density=d)
    assert m.density_at(2, 1) == 6.0
    ix = np.array([0, 3])
    iy = np.array([2, 0])
    assert np.array_equal(m.density_at_vec(ix, iy), np.array([8.0, 3.0]))
    d = np.arange(24, dtype=float).reshape(2, 3, 4)
    m = StructuredMesh3D(4, 3, 2, density=d)
    assert m.density_at(2, 1, 1) == d[1, 1, 2] == 18.0
    assert np.array_equal(
        m.density_at_vec(ix, np.array([2, 0]), np.array([0, 1])), [8.0, 15.0]
    )


def test_density_shape_validation():
    with pytest.raises(ValueError):
        StructuredMesh(4, 3, density=np.zeros((4, 3)))
    with pytest.raises(ValueError):
        StructuredMesh3D(4, 3, 2, density=np.zeros((4, 3, 2)))
    with pytest.raises(ValueError):
        StructuredMesh(4, 3, density=-np.ones((3, 4)))


def test_invalid_dims():
    with pytest.raises(ValueError):
        StructuredMesh(0, 4)
    with pytest.raises(ValueError):
        StructuredMesh(4, 4, width=0.0)
    with pytest.raises(ValueError):
        StructuredMesh3D(0, 4, 4)
    with pytest.raises(ValueError):
        StructuredMesh3D(4, 4, 4, depth=0.0)


def test_density_nbytes():
    m = StructuredMesh(100, 100)
    assert m.density_nbytes() == 100 * 100 * 8
