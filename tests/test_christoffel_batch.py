"""The Christoffel oracle over batched forms, and the gauss checks' one
record per surface.

``christoffel`` and ``christoffel_from_metric`` take a point or a batched
:class:`FirstForm`; every node must carry the bits of the one-point call,
and the oracle must check every node.  The numpy matrix version of the
oracle that the tuple version replaced is kept here as its bitwise oracle,
and the per-point chain the gauss checks ran before is kept as theirs.
"""

import dataclasses
import math

import numpy as np
import pytest

from tpcurves import (
    FirstForm,
    christoffel,
    christoffel_from_metric,
    first_form,
    gauss_equation_residual,
    parse_surface,
    point_geometry,
    second_form,
)
from tpcurves import checks, forms
from tpcurves.errors import DegeneratePoint, OracleMismatch
from tpcurves.jets import Field1
from tpcurves.surface import SurfacePatch

_METRIC = ("E", "F", "G", "E_u", "E_v", "F_u", "F_v", "G_u", "G_v")
_FIELDS = tuple(f.name for f in dataclasses.fields(FirstForm))
_CHRIS = ("g111", "g112", "g121", "g122", "g221", "g222",
          "g111_u", "g111_v", "g112_u", "g112_v", "g121_u", "g121_v",
          "g122_u", "g122_v", "g221_u", "g221_v", "g222_u", "g222_v")


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


def node(form, i, n):
    """The one-point FirstForm at node ``i`` of a batched one of ``n``."""
    return FirstForm(**{k: np.broadcast_to(getattr(form, k), (n,))[i].item()
                        for k in _FIELDS})


def batched_form(scene, name, count, seed):
    patch = scene.surface(name)
    us, vs = points(patch, count, np.random.default_rng(seed))
    return patch, us, vs, point_geometry(patch, us, vs).form


def test_tuple_oracle_matches_numpy_oracle_bitwise(scene):
    rng = np.random.default_rng(20261019)
    compared = 0
    for patch in scene.surfaces.values():
        us, vs = points(patch, 1800 // len(scene.surfaces) + 1, rng)
        form = point_geometry(patch, us, vs).form
        batch = christoffel_from_metric(*(getattr(form, k) for k in _METRIC))
        for i in range(us.size):
            one = node(form, i, us.size)
            args = [getattr(one, k) for k in _METRIC]
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
    patch, us, vs, form = batched_form(scene, name, 40, 7)
    chris = christoffel(form)
    for i, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
        one_form = first_form(patch.jet(u, v))
        one = christoffel(one_form)
        for key in _CHRIS:
            assert same_bits(np.broadcast_to(getattr(chris, key),
                                             us.shape)[i],
                             getattr(one, key)), (name, key, i)
        assert same_bits(np.broadcast_to(form.area_element, us.shape)[i],
                         one_form.area_element)


@pytest.mark.parametrize("key, value", [("G_v", math.inf), ("F_v", math.nan),
                                        ("E_u", -math.inf)])
def test_non_finite_symbol_fails_the_oracle(scene, key, value):
    form = first_form(scene.surface("sphere").jet(0.7, 0.4))
    with pytest.raises(OracleMismatch, match="Christoffel routes disagree"):
        christoffel(dataclasses.replace(form, **{key: value}))


def test_infinite_symbol_fails_against_a_finite_oracle(scene, monkeypatch):
    # An infinite symbol makes the scale infinite, which no finite
    # tolerance test alone rejects.
    geom = point_geometry(scene.surface("sphere"), 0.7, 0.4)
    fields = list(forms.christoffel_fields(geom.E, geom.F, geom.G))
    fields[5] = Field1(math.inf, 0.0, 0.0)
    monkeypatch.setattr(forms, "christoffel_fields", lambda E, F, G: fields)
    with pytest.raises(OracleMismatch, match="disagree by inf"):
        christoffel(geom.form)


@pytest.mark.parametrize("key, value", [("G_v", math.inf), ("F_v", math.nan),
                                        ("E_v", -math.inf)])
def test_batch_names_first_failing_node(scene, key, value):
    _, us, _, form = batched_form(scene, "sphere", 9, 11)
    column = np.broadcast_to(getattr(form, key), us.shape).copy()
    column[[4, 6]] = value
    bad = dataclasses.replace(form, **{key: column})
    with pytest.raises(OracleMismatch) as raised, \
            np.errstate(invalid="ignore"):
        christoffel(bad)
    with pytest.raises(OracleMismatch) as scalar:
        christoffel(node(bad, 4, us.size))
    assert str(raised.value) == str(scalar.value)
    christoffel(node(bad, 3, us.size))  # the nodes before it pass


def test_oracle_checks_every_node(scene, monkeypatch):
    _, us, _, form = batched_form(scene, "catenoid", 12, 3)
    oracle = christoffel_from_metric

    def off_at_last_node(*args):
        out = [np.broadcast_to(x, us.shape).copy() for x in oracle(*args)]
        out[2][-1] += 1e-6
        return out

    monkeypatch.setattr(forms, "christoffel_from_metric", off_at_last_node)
    with pytest.raises(OracleMismatch) as raised:
        christoffel(form)
    assert str(raised.value).endswith(
        "at (E, F, G) = ({}, {}, {})".format(*(
            np.broadcast_to(getattr(form, k), us.shape)[-1].item()
            for k in ("E", "F", "G"))))


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
    jet = patch.jet(0.4, 0.5)
    assert first_form(jet) == point_geometry(patch, 0.4, 0.5).form


def test_gauss_checks_equal_the_per_point_chain(scene, monkeypatch):
    calls = {"jet": 0, "jet_batch": 0}
    for method in calls:
        original = getattr(SurfacePatch, method)

        def counting(self, u, v, _original=original, _name=method):
            calls[_name] += 1
            return _original(self, u, v)

        monkeypatch.setattr(SurfacePatch, method, counting)
    got = checks.run_checks(scene, "gauss")
    assert calls == {"jet": 0, "jet_batch": 6}
    monkeypatch.undo()

    rng = np.random.default_rng(checks._RNG_SEED)
    for check, name in zip(got, checks._GAUSS_SURFACES):
        patch = scene.surface(name)
        us, vs = points(patch, 100, rng)
        geom = point_geometry(patch, us, vs)
        batched = gauss_equation_residual(geom.jet, geom.second,
                                          christoffel(geom.form))
        worst = 0.0
        for i, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
            jet = patch.jet(u, v)
            residuals = gauss_equation_residual(
                jet, second_form(jet), christoffel(first_form(jet)))
            for r_batch, r_point in zip(batched, residuals):
                assert same_bits(r_batch[:, i], r_point), (name, i)
            worst = max(worst, max(float(np.max(np.abs(r)))
                                   for r in residuals))
        assert check.name == f"gauss-residual/{name}"
        assert same_bits(check.value, worst), name
