"""Samplers: ranges, invariants, scalar/vector parity."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import batch
from tests.oracle import (
    sample_isotropic_direction,
    sample_mean_free_paths,
    sample_position_in_box,
)

UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)


@given(u=UNIT)
@settings(max_examples=200, deadline=None)
def test_direction_is_unit(u):
    ox, oy = sample_isotropic_direction(u)
    assert abs(ox * ox + oy * oy - 1.0) < 1e-12


@given(u=UNIT)
@settings(max_examples=200, deadline=None)
def test_direction_scalar_vector_parity(u):
    ox, oy = sample_isotropic_direction(u)
    vx, vy = batch.sample_isotropic_direction(np.array([u]))
    assert ox == vx[0] and oy == vy[0]


def test_direction_covers_all_quadrants():
    dirs = [sample_isotropic_direction(u) for u in np.linspace(0, 0.999, 40)]
    assert any(ox > 0 and oy > 0 for ox, oy in dirs)
    assert any(ox < 0 and oy > 0 for ox, oy in dirs)
    assert any(ox < 0 and oy < 0 for ox, oy in dirs)
    assert any(ox > 0 and oy < 0 for ox, oy in dirs)


@given(u=UNIT)
@settings(max_examples=200, deadline=None)
def test_mfp_nonnegative_and_parity(u):
    m = sample_mean_free_paths(u)
    assert m >= 0.0
    assert m == batch.sample_mean_free_paths(np.array([u]))[0]


def test_mfp_mean_is_one():
    """Unit exponential: mean 1."""
    u = (np.arange(100000) + 0.5) / 100000
    m = batch.sample_mean_free_paths(u)
    assert abs(m.mean() - 1.0) < 0.01


@given(u1=UNIT, u2=UNIT)
@settings(max_examples=200, deadline=None)
def test_position_in_box(u1, u2):
    x, y = sample_position_in_box(u1, u2, 0.25, 0.75, 0.1, 0.2)
    assert 0.25 <= x <= 0.75
    assert 0.1 <= y <= 0.2
    vx, vy = batch.sample_position_in_box(
        np.array([u1]), np.array([u2]), 0.25, 0.75, 0.1, 0.2
    )
    assert x == vx[0] and y == vy[0]


def test_position_uniformity():
    u = (np.arange(10000) + 0.5) / 10000
    x, _ = batch.sample_position_in_box(u, u, 0.0, 2.0, 0.0, 2.0)
    assert abs(x.mean() - 1.0) < 0.01
