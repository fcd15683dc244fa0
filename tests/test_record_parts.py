"""Parts of one batched record against records built alone.

``run_checks`` plans first (``checks._plan``): one PointGeometry per patch
over every node set its checks read there, split into a part per set
(``PointGeometry.split``).  Each part must have the bits of a record built
over its nodes alone: every field coefficient, the jet arrays, the second
form and the checked connection symbols, sliced from the whole's.  Where
planning raises, even in the whole's second form or symbols, the checks
build their own records, and give what the per-check path gives.
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
from tpcurves.errors import DegeneratePoint, DomainError, GeometryError
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
    # A part's forms are slices of its whole's: views.
    shared = [patch.name for patch, _, part in sets
              if part.second.unit_normal.base is not None]
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


def stdout_of_verify(*config):
    """Exit code and standard output of ``verify --format json``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--format", "json", *config])
    return code, out.getvalue()


# The forms a record builds, and the nodes each is built over.
FORMS = {"second_form": lambda jet: jet.u,
         "christoffel_fields": lambda E, F, G: E.f}


@pytest.mark.parametrize("name", FORMS)
def test_a_whole_whose_forms_raise_drops_the_plan(scene, monkeypatch,
                                                  name):
    """Where the whole's second form or symbols raise, ``split`` raises,
    and the per-check path gives verify's output.  They raise here on more
    than 100 nodes: on a planned whole alone, since a gauss set has 100
    nodes and a curve or pair set 50."""
    want = stdout_of_verify()
    real = getattr(forms, name)

    def small(*args):
        if np.size(FORMS[name](*args)) > 100:
            raise DegeneratePoint("the whole's")
        return real(*args)

    monkeypatch.setattr(forms, name, small)
    with pytest.raises(DegeneratePoint, match="the whole's"):
        planned(scene)
    assert want[0] == 0
    assert stdout_of_verify() == want


@pytest.mark.parametrize("source", ["builtin", "config"])
def test_the_plan_only_saves_work(tmp_path, monkeypatch, source):
    """verify's output is the same with the plan and without it."""
    config = []
    if source == "config":
        path = tmp_path / "scene.ini"
        path.write_text(BUILTIN_SCENE_TEXT)
        config = ["--config", str(path)]
    planned_run = stdout_of_verify(*config)

    def no_plan(*args):
        raise GeometryError("no plan")

    monkeypatch.setattr(checks, "_plan", no_plan)
    assert planned_run[0] == 0
    assert stdout_of_verify(*config) == planned_run


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
