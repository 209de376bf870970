"""Property test of is_complete on random cyclic 2-D cone complexes.

Random primitive rays r_0, ..., r_{n-1} with the consecutive pairs
(r_i, r_{i+1 mod n}) as cones.  Such a complex is a complete fan exactly
when it turns one way at every ray (all det(r_i, r_{i+1}) share a sign)
and its closed polygon winds once around the origin.  The winding number
is computed independently, by counting signed crossings of the positive
x-axis.  Turning one way alone is not enough (a double wrap turns one way
twice around), and winding once alone is not enough (a path that steps
back at some ray still winds once while covering a sector three times).
"""

from __future__ import annotations

import math

import pytest

from bott_towers import GeneralFan, is_complete

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def cross(p, q) -> int:
    return p[0] * q[1] - p[1] * q[0]


def winding_number(points) -> int:
    """Signed crossings of the positive x-axis by the closed polygon.

    An edge crossing upward (start y <= 0 < end y) to the right of the
    origin counts +1, downward -1; the half-open rule counts a vertex on
    the axis once.  For an edge p -> q crossing y = 0, the crossing point
    lies right of the origin exactly when cross(p, q) has the sign of the
    edge's direction in y.
    """
    total = 0
    for p, q in zip(points, points[1:] + points[:1]):
        if p[1] <= 0 < q[1] and cross(p, q) > 0:
            total += 1
        elif q[1] <= 0 < p[1] and cross(p, q) < 0:
            total -= 1
    return total


primitive_rays = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(
    lambda v: math.gcd(*v) == 1)


@st.composite
def cyclic_complexes(draw):
    """Rays in random order, sorted by angle, or interleaved (twice round)."""
    rays = draw(st.lists(primitive_rays, min_size=3, max_size=9, unique=True))
    order = draw(st.sampled_from(["drawn", "angle", "interleaved"]))
    if order != "drawn":
        rays.sort(key=lambda v: math.atan2(v[1], v[0]))
        if order == "interleaved":
            rays = rays[0::2] + rays[1::2]
    return rays


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(cyclic_complexes())
def test_cyclic_complex_complete_iff_it_winds_once(rays):
    n = len(rays)
    turns = [cross(rays[i], rays[(i + 1) % n]) for i in range(n)]
    hypothesis.assume(all(turns))  # no flat cone
    fan = GeneralFan(2, rays, [(i, (i + 1) % n) for i in range(n)])
    one_way = all(t > 0 for t in turns) or all(t < 0 for t in turns)
    expected = one_way and abs(winding_number(rays)) == 1
    assert is_complete(fan) is expected
