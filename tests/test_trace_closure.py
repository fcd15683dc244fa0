"""A closed trace ends at its closest approach to the seed.

The closure test fires within half a step on either side of vertex 0.  A
last step that passes the seed must not count the overlap: the traced
length then converges like O(h^2) at every h, with no jump at the steps
that overshoot (on ``offset_sphere`` from (2, 0), h = 0.005 does).
Criterion 10 (tests/test_acceptance.py) measures vertex deviation on a
coordinate-line locus, which cannot show this.
"""

import math

from test_tracer_oracle import ELLIPSOID

from tpcurves import parse_surface, trace_tangent_curve

STEPS = (0.02, 0.01, 0.005, 0.0025)


def _shrinking(values):
    return all(a > b for a, b in zip(values, values[1:]))


def test_sphere_length_error_shrinks(scene):
    patch = scene.surface("offset_sphere")
    exact = 2.0 * math.pi * math.sin(2.0 * math.pi / 3.0)
    errors = []
    for h in STEPS:
        traced = trace_tangent_curve(patch, (2.0, 0.0), h=h)
        assert traced.status == "closed", h
        errors.append(abs(traced.arc_length - exact))
    assert _shrinking(errors), errors
    assert max(errors) < 1e-4, errors


def test_ellipsoid_lengths_converge():
    patch = parse_surface(ELLIPSOID, (0.05, 3.09), (-10.0, 10.0),
                          name="ellipsoid")
    lengths = []
    for h in STEPS:
        traced = trace_tangent_curve(patch, (2.0, -1.0), h=h)
        assert traced.status == "closed", h
        lengths.append(traced.arc_length)
    gaps = [abs(a - b) for a, b in zip(lengths, lengths[1:])]
    assert _shrinking(gaps), gaps
