"""Parts of one batched record against records built alone.

``run_checks`` plans first (``checks._plan``): one PointGeometry per patch
over every node set its checks read there, split into a part per set
(``PointGeometry.split``).  Each part must have the bits of a record built
over its nodes alone: every field coefficient, the jet arrays, the second
form and the checked connection symbols.  Where planning raises, the
checks build their own records and raise what the per-check path raises.
"""

import contextlib
import functools
import io

import numpy as np
import pytest
from test_batch_program import assert_same_coeffs, same_bits
from test_record_program import FIELDS

from tpcurves import checks, christoffel, cli, forms, point_geometry
from tpcurves.curves import sample_arclength
from tpcurves.errors import DegeneratePoint, DomainError, EvalError
from tpcurves.jets import ZERO
from tpcurves.scene import BUILTIN_SCENE_TEXT, load_scene

JET_ARRAYS = ("u", "v", "value", "du", "dv", "duu", "duv", "dvv", "duuu",
              "duuv", "duvv", "dvvv")


def planned(scene, target="all"):
    """(patch, node set, record) of each node set the plan builds."""
    records = {}
    sample = functools.cache(sample_arclength)
    checks._plan(checks._NodeSets(checks._node_sets(scene, target, sample)),
                 records)
    return [(patch, *entry) for (patch, _), entry in records.items()]


def assert_same_record(part, alone):
    assert_same_coeffs([getattr(part, k) for k in FIELDS],
                       [getattr(alone, k) for k in FIELDS])
    for key in JET_ARRAYS:
        got, want = getattr(part.jet, key), getattr(alone.jet, key)
        assert got.shape == want.shape and same_bits(got, want), key
    for key in ("L", "M", "N", "unit_normal", "area_element"):
        got, want = getattr(part.second, key), getattr(alone.second, key)
        assert np.shape(got) == np.shape(want), key
        assert same_bits(got, want), key
    assert_same_coeffs(christoffel(part), christoffel(alone))


def builtin_copy(tmp_path):
    """The built-in scene loaded from a file: new patches, so each record
    on them counts toward its own program's tier."""
    path = tmp_path / "scene.ini"
    path.write_text(BUILTIN_SCENE_TEXT)
    return load_scene(str(path))


@pytest.mark.parametrize("source", ["builtin", "config"])
def test_each_part_has_the_bits_of_a_record_of_its_own(scene, tmp_path,
                                                       source):
    if source == "config":
        scene = builtin_copy(tmp_path)
    sets = planned(scene)
    # 6 gauss point sets, 8 curves and the 9-sample circle on their hosts,
    # and the targets of 3 pairs (identity_catenoid's is its source).
    assert len(sets) == 18
    shared = [patch.name for patch, _, part in sets
              if part._whole is not None]
    assert sorted(set(shared)) == ["catenoid", "cone", "cylinder",
                                   "helicoid", "offset_sphere", "plane",
                                   "sphere"]
    for patch, nodes, part in sets:
        assert same_bits(part.jet.u, nodes.u), patch.name
        assert_same_record(part, point_geometry(patch, nodes.u, nodes.v))


def test_a_plane_part_keeps_float_and_absent_coefficients(tmp_path):
    scene = builtin_copy(tmp_path)
    parts = [part for patch, _, part in planned(scene)
             if patch.name == "plane"]
    assert len(parts) == 3
    for part in parts:
        coeffs = [getattr(getattr(part, k), slot) for k in FIELDS
                  for slot in type(part.E).__slots__]
        assert any(c is ZERO for c in coeffs)
        assert any(type(c) is float for c in coeffs)
        assert any(type(c) is np.ndarray for c in coeffs)


def test_a_part_computes_its_own_forms_where_the_wholes_raise(
        scene, monkeypatch):
    """Where the whole record's second form or symbols raise, each part
    computes its own; here they raise on more than 30 nodes."""
    patch = scene.surface("cone")
    rng = np.random.default_rng(7)
    u = rng.uniform(*patch.u_range, 50)
    v = rng.uniform(*patch.v_range, 50)
    alone = [point_geometry(patch, u[:30], v[:30]),
             point_geometry(patch, u[30:], v[30:])]
    parts = point_geometry(patch, u, v).split([30, 20])
    second_form, fields = forms.second_form, forms.christoffel_fields

    def small_second(jet):
        if jet.u.size > 30:
            raise DegeneratePoint("the whole's")
        return second_form(jet)

    def small_fields(E, F, G):
        if E.f.size > 30:
            raise EvalError("the whole's")
        return fields(E, F, G)

    monkeypatch.setattr(forms, "second_form", small_second)
    monkeypatch.setattr(forms, "christoffel_fields", small_fields)
    for part, want in zip(parts, alone):
        assert_same_record(part, want)


def test_one_node_set_is_its_own_part(scene):
    patch = scene.surface("sphere")
    geom = point_geometry(patch, np.array([0.5, 1.0]), np.array([0.2, 0.4]))
    assert geom.split([2]) == [geom]


# A gauss surface degenerate everywhere (cone), and plane_circle swapped
# for a curve that passes the load-time domain check, zero at each of its
# 129 parameters, but leaves the plane between them.
FAULTS = (BUILTIN_SCENE_TEXT
          .replace("components = (v*cos(u), v*sin(u), v)",
                   "components = (v, v, v)")
          .replace("u = 2*cos(t)\nv = 2*sin(t)\nt_range = 0, 2*pi",
                   "u = 5.5*sin(128*t)\nv = t\nt_range = 0, pi"))


def verify(path):
    """Exit code and standard error of ``verify --config path``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--config", str(path)])
    return code, err.getvalue()


def test_a_failing_plan_gives_the_per_check_error(tmp_path, monkeypatch):
    path = tmp_path / "faults.ini"
    path.write_text(FAULTS)
    scene = load_scene(str(path))
    # The plan samples the curve before any record: it meets the curve.
    with pytest.raises(DomainError):
        planned(scene)
    got = verify(path)

    def no_plan(*args):
        raise DomainError("no plan")

    monkeypatch.setattr(checks, "_plan", no_plan)
    want = verify(path)
    # The per-check path meets the cone's gauss record first.
    assert want[0] == 2 and want[1].startswith("error: EG - F^2 = 0.0 at")
    assert want[1].count("\n") == 1
    assert got == want


def test_a_plan_that_fails_otherwise_is_not_dropped(scene, monkeypatch):
    """Only an error of the geometry drops the plan: any other is a fault
    of the plan itself, and surfaces."""
    def broken_plan(*args):
        raise TypeError("broken plan")

    monkeypatch.setattr(checks, "_plan", broken_plan)
    with pytest.raises(TypeError, match="broken plan"):
        checks.run_checks(scene, "gauss")
