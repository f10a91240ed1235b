"""Event timers: facet intersection, collision/census distances, selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import HUGE_DISTANCE, EventKind, batch
from tests.oracle import (
    distance_to_census,
    distance_to_collision,
    distance_to_facet,
    select_event,
)

#: The unit cell's lower and upper facets.
LO, HI = (0.0, 0.0), (1.0, 1.0)


def test_facet_straight_right():
    d, axis = distance_to_facet((0.25, 0.5), (1.0, 0.0), LO, HI)
    assert d == pytest.approx(0.75)
    assert axis == 0


def test_facet_straight_up():
    d, axis = distance_to_facet((0.5, 0.25), (0.0, 1.0), LO, HI)
    assert d == pytest.approx(0.75)
    assert axis == 1


def test_facet_negative_directions():
    d, axis = distance_to_facet((0.25, 0.5), (-1.0, 0.0), LO, HI)
    assert d == pytest.approx(0.25)
    assert axis == 0
    d, axis = distance_to_facet((0.5, 0.25), (0.0, -1.0), LO, HI)
    assert d == pytest.approx(0.25)
    assert axis == 1


def test_facet_diagonal_picks_nearer():
    ox = oy = np.sqrt(0.5)
    d, axis = distance_to_facet((0.9, 0.5), (ox, oy), LO, HI)
    assert axis == 0  # x boundary at 0.1/ox is nearer than y at 0.5/oy
    assert d == pytest.approx(0.1 / ox)


def test_facet_corner_tie_prefers_x():
    ox = oy = np.sqrt(0.5)
    d, axis = distance_to_facet((0.5, 0.5), (ox, oy), LO, HI)
    assert axis == 0


@given(
    x=st.floats(min_value=0.01, max_value=0.99),
    y=st.floats(min_value=0.01, max_value=0.99),
    theta=st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True),
)
@settings(max_examples=300, deadline=None)
def test_facet_distance_positive_and_lands_on_boundary(x, y, theta):
    ox, oy = np.cos(theta), np.sin(theta)
    d, axis = distance_to_facet((x, y), (ox, oy), LO, HI)
    assert d > 0.0
    hx, hy = x + ox * d, y + oy * d
    if axis == 0:
        assert hx == pytest.approx(1.0 if ox > 0 else 0.0, abs=1e-9)
    else:
        assert hy == pytest.approx(1.0 if oy > 0 else 0.0, abs=1e-9)


def test_facet_vec_matches_scalar():
    rng = np.random.default_rng(7)
    n = 300
    x = rng.uniform(0.01, 0.99, n)
    y = rng.uniform(0.01, 0.99, n)
    th = rng.uniform(0, 2 * np.pi, n)
    ox, oy = np.cos(th), np.sin(th)
    lo = np.zeros(n)
    hi = np.ones(n)
    dv, av = batch.distance_to_facet(x, y, ox, oy, lo, hi, lo, hi)
    for i in range(n):
        ds, as_ = distance_to_facet((x[i], y[i]), (ox[i], oy[i]), LO, HI)
        assert dv[i] == ds
        assert av[i] == as_


def test_zero_direction_component_never_hits():
    d, axis = distance_to_facet((0.5, 0.5), (0.0, 1.0), LO, HI)
    assert axis == 1  # x distance is HUGE, y wins
    d, _ = distance_to_facet((0.5, 0.5), (1.0, 0.0), LO, HI)
    assert d < HUGE_DISTANCE


def test_collision_distance():
    assert distance_to_collision(2.0, 4.0) == pytest.approx(0.5)
    assert distance_to_collision(2.0, 0.0) == HUGE_DISTANCE
    v = batch.distance_to_collision(np.array([2.0, 2.0]), np.array([4.0, 0.0]))
    assert v[0] == pytest.approx(0.5)
    assert v[1] == HUGE_DISTANCE


def test_census_distance():
    assert distance_to_census(1e-7, 1e7) == pytest.approx(1.0)


def test_select_event_ordering():
    assert select_event(1.0, 2.0, 3.0) is EventKind.COLLISION
    assert select_event(2.0, 1.0, 3.0) is EventKind.FACET
    assert select_event(3.0, 2.0, 1.0) is EventKind.CENSUS


def test_select_event_tie_breaks():
    """Ties resolve collision < facet < census, in both code paths."""
    assert select_event(1.0, 1.0, 1.0) is EventKind.COLLISION
    assert select_event(2.0, 1.0, 1.0) is EventKind.FACET
    ev = batch.select_events(
        np.array([1.0, 2.0]), np.array([1.0, 1.0]), np.array([1.0, 1.0])
    )
    assert list(ev) == [int(EventKind.COLLISION), int(EventKind.FACET)]


@given(
    dc=st.floats(min_value=0, max_value=10),
    df=st.floats(min_value=0, max_value=10),
    dz=st.floats(min_value=0, max_value=10),
)
@settings(max_examples=300, deadline=None)
def test_select_event_vec_matches_scalar(dc, df, dz):
    s = select_event(dc, df, dz)
    v = batch.select_events(np.array([dc]), np.array([df]), np.array([dz]))
    assert int(s) == v[0]
