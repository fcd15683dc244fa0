"""Batched jets against the per-node scalar path.

The oracle is the public scalar API: ``first_form(patch.jet(u, v))`` at one
node at a time.  The batched path must give the same numbers, to 1e-14
relative (the implementation aims at equal bits), and fail where the scalar
path fails.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from test_expr import _ast_strategy

from tpcurves import (
    first_form,
    parse_surface,
    register_pair,
    verify_metric_match,
)
from tpcurves.errors import DegeneratePoint, EvalError
from tpcurves.expr import Var
from tpcurves.surface import SurfacePatch

PAIRS = ("catenoid_helicoid", "plane_cylinder", "offset_rotation",
         "identity_catenoid")
METRIC_KEYS = ("E", "F", "G", "E_u", "E_v", "F_u", "F_v", "G_u", "G_v")
JET_FIELDS = ("value", "du", "dv", "duu", "duv", "dvv",
              "duuu", "duuv", "duvv", "dvvv")
REL = 1e-14


def oracle_sweep(source, target, u_range, v_range, grid):
    """Max metric residuals and degenerate-node count, node by node."""
    m, n = grid
    worst = {k: 0.0 for k in METRIC_KEYS}
    skipped = 0
    for u in np.linspace(u_range[0], u_range[1], m).tolist():
        for v in np.linspace(v_range[0], v_range[1], n).tolist():
            try:
                f_src = first_form(source.jet(u, v))
                f_tgt = first_form(target.jet(u, v))
            except DegeneratePoint:
                skipped += 1
                continue
            for key in METRIC_KEYS:
                worst[key] = max(worst[key],
                                 abs(getattr(f_src, key) - getattr(f_tgt, key)))
    return worst, skipped


def assert_same_sweep(pair, grid):
    report = verify_metric_match(pair, grid)
    worst, skipped = oracle_sweep(pair.source, pair.target,
                                  pair.u_range, pair.v_range, grid)
    assert report.skipped == skipped
    for key in METRIC_KEYS:
        assert report.residuals[key] == pytest.approx(worst[key], rel=REL,
                                                      abs=0.0), key
    return report, worst


@pytest.mark.parametrize("grid", [(20, 20), (23, 9)])
@pytest.mark.parametrize("name", PAIRS)
def test_sweep_matches_scalar_oracle(scene, name, grid):
    pair = scene.pair(name)
    _, worst = assert_same_sweep(pair, grid)
    registered = register_pair(pair.source, pair.target, pair.kind, grid)
    assert registered.registration_residual == pytest.approx(
        max(worst["E"], worst["F"], worst["G"]), rel=REL, abs=0.0)


def test_degenerate_nodes_skipped_like_oracle():
    # phi_v = 0 on the line v = 0, which an odd n puts on the grid.
    source = parse_surface("(u, v^3, 0)", (0, 1), (-1, 1), name="cubic")
    target = parse_surface("(v^3, u, 0)", (0, 1), (-1, 1), name="swapped")
    pair = register_pair(source, target, "intrinsic", (6, 9))
    report, _ = assert_same_sweep(pair, (6, 9))
    assert report.skipped == 6


def assert_paths_agree(patch, us, vs):
    """Either both paths raise EvalError or every coefficient agrees."""
    try:
        scalar = [patch.jet(u, v) for u, v in zip(us.tolist(), vs.tolist())]
    except EvalError:
        scalar = None
    try:
        batch = patch.jet_batch(us, vs)
    except EvalError:
        assert scalar is None, "only the batched path raised"
        return
    assert scalar is not None, "only the scalar path raised"
    for name in JET_FIELDS:
        expected = np.array([getattr(j, name) for j in scalar]).T
        np.testing.assert_allclose(getattr(batch, name), expected, rtol=REL,
                                   atol=0.0, equal_nan=True, err_msg=name)


def _grid(u_range, v_range, m, n):
    us = np.repeat(np.linspace(u_range[0], u_range[1], m), n)
    vs = np.tile(np.linspace(v_range[0], v_range[1], n), m)
    return us, vs


@given(_ast_strategy())
@settings(max_examples=150, deadline=None)
def test_random_trees_agree(node):
    u_range, v_range = (-1.5, 2.0), (0.0, 3.0)
    patch = SurfacePatch(name="tree", components=(node, Var("v"), Var("u")),
                         u_range=u_range, v_range=v_range)
    assert_paths_agree(patch, *_grid(u_range, v_range, 5, 4))


@pytest.mark.parametrize("text, u_range, v_range", [
    ("(u^2.5 + sqrt(v), v^-0.5 * log(u), tanh(u*v) / (u + v))",
     (0.5, 2), (0.5, 3)),
    ("(sinh(u) * cosh(v), exp(-u*v), sin(u) * cos(v))", (-2, 2), (-1, 1)),
    # d/du u^100 reaches 6e130, whose cube overflows to inf on both paths.
    ("(sin(u^100), v, 0)", (10, 20), (0, 1)),
])
def test_named_surfaces_agree(text, u_range, v_range):
    patch = parse_surface(text, u_range, v_range)
    us, vs = _grid(u_range, v_range, 7, 6)
    patch.jet_batch(us, vs)  # no node is singular here
    assert_paths_agree(patch, us, vs)


@pytest.mark.parametrize("text, u_range, v_range", [
    ("(exp(exp(u)), v, 0)", (5, 7), (0, 1)),  # math.exp overflows
    ("(u, sqrt(v), 0)", (0, 1), (0, 1)),  # singular at v = 0
    ("(sin(u^400), v, 0)", (10, 20), (0, 1)),  # math.sin(inf)
    ("(u, sqrt(exp(-v^2 * 600)), 0)", (0, 1), (0, 1)),  # r * w underflows
    ("(u, (v - 1)^2.5, 0)", (0, 1), (0, 2)),  # negative base
    ("(u, v^-2.5, 0)", (1e-130, 1), (1e-130, 1)),  # ** overflows
])
def test_failures_raise_on_both_paths(text, u_range, v_range):
    patch = parse_surface(text, u_range, v_range)
    us, vs = _grid(u_range, v_range, 7, 6)
    with pytest.raises(EvalError):
        patch.jet_batch(us, vs)
    with pytest.raises(EvalError):
        for u, v in zip(us.tolist(), vs.tolist()):
            patch.jet(u, v)
