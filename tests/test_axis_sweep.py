"""The registration sweep over a grid's axes against the sweep over its
flattened nodes.

``isometry._metric_residuals`` passes ``metric_batch`` a (m, 1) column of u
and a (1, n) row of v, and numpy broadcasting computes a value of u alone
at m entries, one of v alone at n and only mixed values at all m * n nodes.
Its oracle is the sweep it replaced, kept here as ``flat_residuals``: the
same nodes flattened by ``np.repeat`` and ``np.tile``.  Each node gets the
same scalar operations on the same inputs, so the residuals, the skipped
count and every coefficient at every node keep their bits, and the first
failing node in row-major order is the flattened sweep's first, so errors
name the same node.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_batch_program import outcome, patch_of, raised
from test_metric_program import DEGENERATE, SINGULAR_SCENE, assert_same
from test_tangency_kernel import _trees

from tpcurves import cli, isometry, jets, parse_surface
from tpcurves.forms import REGULARITY_THRESHOLD
from tpcurves.isometry import INTRINSIC, register_pair


def flat_residuals(source, target, u_range, v_range, grid):
    """``_metric_residuals`` as it ran over m * n flattened nodes."""
    m, n = grid
    us = np.repeat(np.linspace(u_range[0], u_range[1], m), n)
    vs = np.tile(np.linspace(v_range[0], v_range[1], n), m)
    coeffs = []
    degenerate = np.zeros(us.shape, dtype=bool)
    worst = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for patch in (source,) if target is source else (source, target):
            coeffs.append(patch.metric_batch(us, vs))
            E, F, G = coeffs[-1][:3]
            degenerate |= E * G - F * F <= REGULARITY_THRESHOLD
        keep = ~degenerate
        for key, a, b in zip(isometry._METRIC_KEYS, coeffs[0], coeffs[-1]):
            diff = np.broadcast_to(np.abs(a - b), us.shape)[keep]
            worst[key] = float(diff.max()) if diff.size else math.nan
    return worst, int(np.count_nonzero(degenerate))


def on_nodes(coeffs, shape):
    """Each array coefficient broadcast to the grid and flattened in
    row-major order, the flattened sweep's node order; floats stay."""
    return tuple(x if isinstance(x, float)
                 else np.broadcast_to(x, shape).ravel() for x in coeffs)


def assert_sweeps_agree(source, target, grid):
    """The same error, or the same residual bits and skipped count, and
    each patch's coefficients with the same type and bits at every node."""
    u_range, v_range = isometry._shared_domain(source, target)
    got = outcome(lambda: isometry._metric_residuals(
        source, target, u_range, v_range, grid))
    want = outcome(lambda: flat_residuals(
        source, target, u_range, v_range, grid))
    if raised(want):
        assert got == want
        return
    (worst, skipped), (old, old_skipped) = got, want
    assert skipped == old_skipped
    assert {k: x.hex() for k, x in worst.items()} == \
        {k: x.hex() for k, x in old.items()}
    m, n = grid
    us, vs = np.linspace(*u_range, m), np.linspace(*v_range, n)
    for patch in (source, target):
        axes = patch.metric_batch(us[:, None], vs[None, :])
        flat = patch.metric_batch(np.repeat(us, n), np.tile(vs, m))
        assert_same(on_nodes(axes, (m, n)), flat)


GRIDS = [(30, 40), (1, 9), (9, 1), (1, 1), (2, 200)]


@pytest.mark.parametrize("grid", GRIDS)
def test_builtin_pairs_sweep_their_axes_as_their_nodes(scene, grid):
    for name in ("catenoid_helicoid", "offset_rotation", "plane_cylinder",
                 "identity_catenoid"):
        pair = scene.pair(name)
        assert_sweeps_agree(pair.source, pair.target, grid)


@pytest.mark.parametrize("case", sorted(DEGENERATE))
@pytest.mark.parametrize("grid", [(20, 20), (1, 7), (7, 1)])
def test_degenerate_nodes_are_skipped_as_the_flat_sweep_skips_them(case,
                                                                   grid):
    source, target, u_range, _ = DEGENERATE[case]
    source = parse_surface(source, u_range, (0.0, 6.0), name="source")
    target = parse_surface(target, u_range, (0.0, 6.0), name="target")
    assert_sweeps_agree(source, target, grid)
    if grid[0] > 1:  # the grid's first row is the apex or a pole
        assert isometry._metric_residuals(
            source, target, u_range, (0.0, 6.0), grid)[1] >= grid[1]


@pytest.mark.parametrize("grid", [(7, 5), (5, 7), (1, 5), (7, 1)])
def test_math_of_mixed_values_keeps_each_nodes_bits(grid):
    """``math`` at values of both u and v runs at every node of the (m, n)
    broadcast, each at its own node."""
    source = parse_surface("(u, v, sin(u*v) + (1 + u*u*v*v)^1.5)",
                           (-1.0, 2.0), (-2.0, 1.0), name="source")
    target = parse_surface("(v, u, exp(u - v) * cosh(u*v - 0.5))",
                           (-1.0, 2.0), (-2.0, 1.0), name="target")
    assert_sweeps_agree(source, target, grid)


@given(st.lists(_trees(), min_size=6, max_size=6),
       st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_random_pairs_sweep_their_axes_as_their_nodes(components, m, n):
    source, target = patch_of(components[:3]), patch_of(components[3:])
    assert_sweeps_agree(source, target, (m, n))


@pytest.mark.parametrize("z,err", [
    ("log(u)", "error: log of non-positive value -1.0\n"),
    ("1/(u - 0.5)", "error: division by zero\n"),  # a node at u = 0.5
    ("log(v)", "error: log of non-positive value -1.0\n"),  # a (1, n) row
    ("1/(v - 0.5)", "error: division by zero\n"),  # a node at v = 0.5
])
@pytest.mark.parametrize("grid", ["9x5", "5x9"])
def test_a_failing_config_pair_reports_as_the_flat_sweep(
        tmp_path, capsys, monkeypatch, z, err, grid):
    path = tmp_path / "scene.ini"
    path.write_text(SINGULAR_SCENE.format(z=z))
    argv = ["isometry", "p", "--config", str(path), "--grid", grid]
    assert cli.main(argv) == 1
    new = capsys.readouterr()
    assert new.err == err
    monkeypatch.setattr(isometry, "_metric_residuals", flat_residuals)
    assert cli.main(argv) == 1
    assert capsys.readouterr() == new


def test_no_math_call_sees_more_values_than_an_axis(scene, monkeypatch):
    """On a 30x40 catenoid_helicoid sweep, each per-node ``math`` call takes
    the 30 values of u or the 40 of v, never the 1,200 nodes."""
    seen = []

    def spy(fn):
        def counted(w, *args):
            seen.append(np.size(w))
            return fn(w, *args)
        return counted

    for name in ("sin", "cos", "sinh", "cosh", "tanh", "exp", "log", "pow"):
        monkeypatch.setattr(jets._NODE_MATH, name,
                            spy(getattr(jets._NODE_MATH, name)))
    # New patches, whose programs compile with the spies in scope.
    source, target = (dataclasses.replace(scene.surface(name))
                      for name in ("catenoid", "helicoid"))
    register_pair(source, target, INTRINSIC, (30, 40))
    assert set(seen) == {30, 40}
    seen.clear()
    flat_residuals(source, target, source.u_range, source.v_range, (30, 40))
    assert set(seen) == {1200}  # the spy sees what the flattened sweep did
