"""The Christoffel oracle over batched records, and the gauss checks' one
record per surface.

``christoffel`` takes a point or a batched :class:`PointGeometry` and
returns its own ``chris``, and ``christoffel_from_metric`` its metric
fields; every node must carry the bits of the one-point call, and the
oracle must check every node.  The numpy matrix version of the oracle
that the tuple version replaced is kept here as its bitwise oracle, and
the per-point chain the gauss checks ran before is kept as theirs.
"""

import dataclasses
import math

import numpy as np
import pytest

from tpcurves import (
    FirstForm,
    PointGeometry,
    christoffel,
    christoffel_from_metric,
    first_form,
    gauss_equation_residual,
    parse_surface,
    point_geometry,
)
from tpcurves import checks, forms
from tpcurves.errors import DegeneratePoint, OracleMismatch
from tpcurves.jets import Field1, Field2
from tpcurves.surface import SurfacePatch

_METRIC = ("E", "F", "G", "E_u", "E_v", "F_u", "F_v", "G_u", "G_v")
_FIELDS = tuple(f.name for f in dataclasses.fields(FirstForm))
_FIELD2 = ("f", "fu", "fv", "fuu", "fuv", "fvv")


def numpy_christoffel_from_metric(E, F, G, E_u, E_v, F_u, F_v, G_u, G_v):
    """The oracle as it was: numpy 2x2 and 2x2x2 matrices, all eight
    symbols computed."""
    det = E * G - F * F
    if det <= 1e-14:
        raise DegeneratePoint(f"EG - F^2 = {det}")
    g_inv = np.array([[G, -F], [-F, E]]) / det
    dg = np.array([[[E_u, F_u], [F_u, G_u]],
                   [[E_v, F_v], [F_v, G_v]]])
    gamma = np.zeros((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                total = 0.0
                for l in range(2):
                    total += g_inv[k, l] * (dg[i, j, l] + dg[j, i, l]
                                            - dg[l, i, j])
                gamma[k, i, j] = 0.5 * total
    return (gamma[0, 0, 0], gamma[1, 0, 0], gamma[0, 0, 1],
            gamma[1, 0, 1], gamma[0, 1, 1], gamma[1, 1, 1])


def bits(x):
    """The IEEE bits of a float or array, sign of zero and NaN included."""
    return np.asarray(x, dtype=float).view(np.uint64)


def same_bits(a, b):
    a, b = np.broadcast_arrays(bits(a), bits(b))
    return np.array_equal(a, b)


def points(patch, count, rng):
    (u0, u1), (v0, v1) = patch.u_range, patch.v_range
    du, dv = u1 - u0, v1 - v0
    return (rng.uniform(u0 + 0.02 * du, u1 - 0.02 * du, count),
            rng.uniform(v0 + 0.02 * dv, v1 - 0.02 * dv, count))


def metric(geom, key):
    """The record's metric field named as in :class:`FirstForm`: ``E`` is
    ``geom.E.f``, ``E_uv`` is ``geom.E.fuv``."""
    name, _, partial = key.partition("_")
    return getattr(getattr(geom, name), "f" + partial)


def at_node(x, i, n):
    return np.broadcast_to(x, (n,))[i].item()


def corrupt(geom, key, nodes, value):
    """Set the record's metric field ``key`` to ``value`` at ``nodes`` (a
    point record takes ``nodes=None``); its symbols are built from it."""
    name, _, partial = key.partition("_")
    field = getattr(geom, name)
    coeffs = [getattr(field, d) for d in _FIELD2]
    k = _FIELD2.index("f" + partial)
    if nodes is None:
        coeffs[k] = value
    else:
        coeffs[k] = np.broadcast_to(coeffs[k], geom.jet.u.shape).copy()
        coeffs[k][nodes] = value
    setattr(geom, name, Field2(*coeffs))
    return geom


def batched_record(scene, name, count, seed):
    patch = scene.surface(name)
    us, vs = points(patch, count, np.random.default_rng(seed))
    return patch, us, vs, point_geometry(patch, us, vs)


def test_tuple_oracle_matches_numpy_oracle_bitwise(scene):
    rng = np.random.default_rng(20261019)
    compared = 0
    for patch in scene.surfaces.values():
        us, vs = points(patch, 1800 // len(scene.surfaces) + 1, rng)
        geom = point_geometry(patch, us, vs)
        batch = christoffel_from_metric(*(metric(geom, k) for k in _METRIC))
        for i in range(us.size):
            args = [at_node(metric(geom, k), i, us.size) for k in _METRIC]
            got = christoffel_from_metric(*args)
            assert same_bits(got, numpy_christoffel_from_metric(*args))
            assert all(same_bits(np.broadcast_to(b, us.shape)[i], g)
                       for b, g in zip(batch, got))
            compared += 1
    assert compared >= 1800
    # Signed zeros: both terms of Gamma^2_11 are -0.0 here, and the sum
    # from 0 makes it +0.0, as the numpy loop's ``total = 0.0`` did.
    args = (1.0, 0.0, 1.0, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0)
    assert same_bits(christoffel_from_metric(*args),
                     numpy_christoffel_from_metric(*args))


@pytest.mark.parametrize("name", ["plane", "cone", "sphere", "offset_sphere",
                                  "catenoid", "helicoid"])
def test_batched_christoffel_equals_per_point_bitwise(scene, name):
    patch, us, vs, geom = batched_record(scene, name, 40, 7)
    chris = christoffel(geom)
    for i, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
        one_geom = point_geometry(patch, u, v)
        one = christoffel(one_geom)
        for k, (batch, point) in enumerate(zip(chris, one)):
            for d in ("f", "fu", "fv"):
                assert same_bits(at_node(getattr(batch, d), i, us.size),
                                 getattr(point, d)), (name, k, d, i)
        assert same_bits(at_node(geom.area.f, i, us.size), one_geom.area.f)


def test_christoffel_returns_the_record_symbols(scene):
    patch, _, _, batch = batched_record(scene, "catenoid", 5, 2)
    for geom in (point_geometry(patch, 0.3, 0.4), batch):
        got = christoffel(geom)
        assert len(got) == 6
        assert all(a is b for a, b in zip(got, geom.chris))


@pytest.mark.parametrize("key, value", [("G_v", math.inf), ("F_v", math.nan),
                                        ("E_u", -math.inf)])
def test_non_finite_symbol_fails_the_oracle(scene, key, value):
    geom = corrupt(point_geometry(scene.surface("sphere"), 0.7, 0.4),
                   key, None, value)
    with pytest.raises(OracleMismatch, match="Christoffel routes disagree"):
        christoffel(geom)


def test_infinite_symbol_fails_against_a_finite_oracle(scene, monkeypatch):
    # An infinite symbol makes the scale infinite, which no finite
    # tolerance test alone rejects.
    geom = point_geometry(scene.surface("sphere"), 0.7, 0.4)
    fields = list(forms.christoffel_fields(geom.E, geom.F, geom.G))
    fields[5] = Field1(math.inf, 0.0, 0.0)
    monkeypatch.setattr(forms, "christoffel_fields", lambda E, F, G: fields)
    with pytest.raises(OracleMismatch, match="disagree by inf"):
        christoffel(geom)


@pytest.mark.parametrize("key, value", [("G_v", math.inf), ("F_v", math.nan),
                                        ("E_v", -math.inf)])
def test_batch_names_first_failing_node(scene, key, value):
    patch, us, vs, geom = batched_record(scene, "sphere", 9, 11)
    bad = corrupt(geom, key, [4, 6], value)

    def point(i):
        return point_geometry(patch, us[i].item(), vs[i].item())

    for check in (christoffel, gauss_equation_residual):
        with pytest.raises(OracleMismatch) as raised, \
                np.errstate(invalid="ignore"):
            check(bad)
        with pytest.raises(OracleMismatch) as scalar:
            check(corrupt(point(4), key, None, value))
        assert str(raised.value) == str(scalar.value)
        assert str(raised.value).endswith(
            "at (E, F, G) = ({}, {}, {})".format(*(
                at_node(metric(geom, k), 4, us.size) for k in "EFG")))
        for i in range(4):  # the nodes before it pass
            check(point(i))


def test_oracle_checks_every_node(scene, monkeypatch):
    _, us, _, geom = batched_record(scene, "catenoid", 12, 3)
    oracle = christoffel_from_metric

    def off_at_last_node(*args):
        out = [np.broadcast_to(x, us.shape).copy() for x in oracle(*args)]
        out[2][-1] += 1e-6
        return out

    monkeypatch.setattr(forms, "christoffel_from_metric", off_at_last_node)
    with pytest.raises(OracleMismatch) as raised:
        christoffel(geom)
    assert str(raised.value).endswith(
        "at (E, F, G) = ({}, {}, {})".format(*(
            at_node(metric(geom, k), -1, us.size) for k in "EFG")))


def test_batched_oracle_names_first_degenerate_node():
    # EG - F^2 is 1, 1e-15 and 0 at the three nodes.
    G = np.array([1.0, 1e-15, 0.0])
    with pytest.raises(DegeneratePoint, match=r"^EG - F\^2 = 1e-15$"):
        christoffel_from_metric(1.0, 0.0, G, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_first_form_is_the_record_form():
    patch = parse_surface("(u, v^3, 0)", (0.0, 1.0), (-1.0, 1.0))
    with pytest.raises(DegeneratePoint) as raised:
        first_form(patch.jet(0.4, 0.0))
    assert str(raised.value) == "EG - F^2 = 0.0 at (u, v) = (0.4, 0.0)"
    form = first_form(patch.jet(0.4, 0.5))
    geom = point_geometry(patch, 0.4, 0.5)
    for key in _FIELDS:
        assert same_bits(getattr(form, key), metric(geom, key)), key


def test_gauss_checks_equal_the_per_point_chain(scene, monkeypatch):
    calls = {"jet": 0, "_record_batch": 0}
    for method in calls:
        original = getattr(SurfacePatch, method)

        def counting(self, u, v, _original=original, _name=method):
            calls[_name] += 1
            return _original(self, u, v)

        monkeypatch.setattr(SurfacePatch, method, counting)
    got = checks.run_checks(scene, "gauss")
    assert calls == {"jet": 0, "_record_batch": 6}
    monkeypatch.undo()

    rng = np.random.default_rng(checks._RNG_SEED)
    for check, name in zip(got, checks._GAUSS_SURFACES):
        patch = scene.surface(name)
        us, vs = points(patch, 100, rng)
        batched = gauss_equation_residual(point_geometry(patch, us, vs))
        worst = 0.0
        for i, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
            residuals = gauss_equation_residual(PointGeometry(patch.jet(u, v)))
            for r_batch, r_point in zip(batched, residuals):
                assert same_bits(r_batch[:, i], r_point), (name, i)
            worst = max(worst, max(float(np.max(np.abs(r)))
                                   for r in residuals))
        assert check.name == f"gauss-residual/{name}"
        assert same_bits(check.value, worst), name
