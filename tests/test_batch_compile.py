"""When batched programs are compiled, and sweeps of a patch paired with
itself.

``SurfacePatch.metric_batch`` and the batched ``ambient_jet`` each compile
one array program per patch on first use (the latter serves every curve on
the patch), not at import or scene load; the shared built-in scene then
reuses them in every later op of the process, and a curve used once
compiles nothing.  A metric grid sweep runs the metric program alone.  A
patch's batched records (``SurfacePatch._record_batch``) compile its
record program in tiers: the first three are built on the rings and the
fourth compiles it, so no one-shot CLI op compiles one, and an op gives
the same bytes before and after its patch has compiled.  Each kind of
``surface._PROGRAMS`` compiles once, at its call past its tier.
"""

import functools
import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import tpcurves
import tpcurves.surface
import tpcurves.tangent
from tpcurves import builtin_scene, cli, parse_curve, point_geometry
from tpcurves import scene as scene_module
from tpcurves.curves import sample_arclength
from tpcurves.isometry import invariance_report
from tpcurves.scene import BUILTIN_SCENE_TEXT
from tpcurves.surface import (_PROGRAMS, SurfacePatch, ambient_jet,
                              ambient_velocity)


@pytest.fixture
def fresh_builtin(monkeypatch):
    """A built-in scene of this test's own, as a fresh process builds it."""
    monkeypatch.setattr(scene_module, "_builtin",
                        functools.cache(scene_module._builtin.__wrapped__))


def count_compiles(monkeypatch, *kinds):
    """A list that gets (kind, components) of each program of ``kinds``
    compiled from now on, in order: the kinds of ``surface._PROGRAMS``,
    at their one compile site, and the tracer's walk ("walk")."""
    seen = []
    kind_of = {build: kind for kind, (build, *_) in _PROGRAMS.items()}
    compile_program = tpcurves.surface.straight_line
    compile_walk = tpcurves.tangent.compile_tangency_walk

    def counted(build, params, ring):
        if kind_of[build.func] in kinds:
            seen.append((kind_of[build.func], build.args[0]))
        return compile_program(build, params, ring)

    def counted_walk(patch):
        if "walk" in kinds:
            seen.append(("walk", patch.components))
        return compile_walk(patch)

    monkeypatch.setattr(tpcurves.surface, "straight_line", counted)
    monkeypatch.setattr(tpcurves.tangent, "compile_tangency_walk",
                        counted_walk)
    return seen


@pytest.fixture
def compiled(monkeypatch):
    """(kind, components) of every record ("record") and metric_batch
    ("metric") program compiled, in order."""
    return count_compiles(monkeypatch, "record", "metric")


def counting(monkeypatch, calls, *methods):
    """Record (method, patch name, node count) of each call of the named
    SurfacePatch methods in ``calls``; the nodes are those of ``u`` and
    ``v`` broadcast together (a grid sweep passes a grid's axes)."""
    def count(name):
        method = getattr(SurfacePatch, name)

        def counted(self, u, v):
            calls.append((name, self.name, np.broadcast(u, v).size))
            return method(self, u, v)

        monkeypatch.setattr(SurfacePatch, name, counted)

    for name in methods:
        count(name)


def test_loading_the_scene_compiles_nothing():
    code = (
        "import tpcurves\n"
        "from tpcurves.surface import _PROGRAMS\n"
        "scene = tpcurves.builtin_scene()\n"
        "def cached():\n"
        "    return [(p.name, kind) for p in scene.surfaces.values()\n"
        "            for kind in (*_PROGRAMS, 'walk')\n"
        "            if kind in vars(p).get('_programs', {})\n"
        "            or kind == 'walk' and 'tangency_walk' in vars(p)]\n"
        "print(cached())\n"
        "plane = scene.surface('plane')\n"
        "plane.metric_batch([plane.u_range[0]], [plane.v_range[0]])\n"
        "plane.tangency_walk\n"
        "print(cached())\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(tpcurves.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, env=env)
    # A batched call and a trace's first use show in what it reads.
    assert out.stdout == "[]\n[('plane', 'metric'), ('plane', 'walk')]\n"


def test_repeated_isometry_ops_compile_one_program_per_patch(
        fresh_builtin, compiled, capsys):
    argv = ["isometry", "catenoid_helicoid", "--format", "json"]
    for _ in range(5):
        assert cli.main(argv) == 0
    outputs = capsys.readouterr().out
    scene = builtin_scene()
    # The registration sweep runs the metric program alone.
    assert compiled == [("metric", scene.surface("catenoid").components),
                        ("metric", scene.surface("helicoid").components)]
    assert outputs == outputs[:len(outputs) // 5] * 5


def test_config_patch_compiles_its_own_program(tmp_path, compiled, capsys,
                                               monkeypatch):
    argv = ["isometry", "catenoid_helicoid", "--curve", "catenoid_line",
            "--format", "json"]
    assert cli.main(argv) == 0
    builtin = capsys.readouterr().out
    compiled.clear()
    records = []
    counting(monkeypatch, records, "_record_batch")
    path = tmp_path / "scene.ini"
    path.write_text(BUILTIN_SCENE_TEXT)
    assert cli.main(argv + ["--config", str(path)]) == 0
    assert capsys.readouterr().out == builtin
    scene = builtin_scene()
    catenoid = scene.surface("catenoid").components
    helicoid = scene.surface("helicoid").components
    # The registration sweep compiles; the invariance report's records,
    # the first of each patch, are built on the rings.
    assert compiled == [("metric", catenoid), ("metric", helicoid)]
    assert records == [("_record_batch", "catenoid", 50),
                       ("_record_batch", "helicoid", 50)]


def test_a_discarded_curve_leaves_nothing_on_a_builtin_patch():
    scene = builtin_scene()
    patch = scene.surface("catenoid")
    ts = np.linspace(0.0, 1.0, 9)
    ambient_jet(patch, scene.curve("catenoid_line"), ts)
    before = dict(vars(patch))
    curve = parse_curve("0.5 + t", "0.25 * t", (0.0, 1.0))
    ambient_jet(patch, curve, ts)  # runs the patch's program
    gone = weakref.ref(curve)
    del curve
    gc.collect()
    assert gone() is None
    assert vars(patch) == before


def test_identity_pair_evaluates_its_patch_once(scene, monkeypatch):
    calls = []
    counting(monkeypatch, calls, "_record_batch", "metric_batch")
    pair = scene.pair("identity_catenoid")  # registers the pair again
    assert calls == [("metric_batch", "catenoid", 400)]
    patch = pair.source
    assert pair.registration_residual == 0.0
    samples = sample_arclength(patch, scene.curve("catenoid_line"), 30)
    calls.clear()
    report = invariance_report(pair, samples)
    assert calls == [("_record_batch", "catenoid", 30)]
    src, tgt = report.geometry
    assert src is tgt
    assert np.array_equal(report.kappa_g_residuals, np.zeros(30))
    # One record for both sides has the bits of two.
    other = point_geometry(patch, src.jet.u, src.jet.v)
    assert other.g.f.tobytes() == src.g.f.tobytes()


ONE_SHOT_OPS = {
    "verify": ["verify", "--target", "all"],
    "report": ["report-thm31", "catenoid_line"],
    "trace": ["trace", "offset_sphere", "--seed", "2,0"],
    "isometry": ["isometry", "catenoid_helicoid", "--curve", "catenoid_line"],
}


@pytest.mark.parametrize("op", sorted(ONE_SHOT_OPS))
def test_a_one_shot_op_compiles_no_record_program(
        op, fresh_builtin, compiled, tmp_path, capsys):
    assert cli.main(ONE_SHOT_OPS[op] + ["--out", str(tmp_path)]) == 0
    assert [kind for kind, _ in compiled if kind == "record"] == []


def record_bits(geom):
    fields = (getattr(geom, key) for key in
              ("E", "F", "G", "det", "area", "g", "lam", "mu"))
    return [np.asarray(getattr(x, name), float).tobytes()
            for x in fields for name in x._names] + \
        [geom.jet.value.tobytes(), geom.jet.dvvv.tobytes()]


U = np.linspace(0.1, 6.0, 40)
V = np.linspace(-1.0, 1.0, 40)
T = np.linspace(0.0, 1.0, 40)
# The bits of one batched call of each kind on a catenoid patch.
BATCHED_CALLS = {
    "record": lambda patch: record_bits(point_geometry(patch, U, V)),
    "ambient": lambda patch: [x.tobytes() for x in ambient_jet(
        patch, builtin_scene().curve("catenoid_line"), T)[1:]],
    "velocity": lambda patch: [ambient_velocity(
        patch, builtin_scene().curve("catenoid_line"), T).tobytes()],
    "metric": lambda patch: [np.asarray(x, float).tobytes()
                             for x in patch.metric_batch(U, V)],
}


@pytest.mark.parametrize("kind", sorted(_PROGRAMS))
def test_a_patchs_batched_call_past_the_tier_compiles_one_program(
        kind, monkeypatch):
    catenoid = builtin_scene().surface("catenoid")
    patch = SurfacePatch("fresh", catenoid.components, catenoid.u_range,
                         catenoid.v_range)
    compiled = count_compiles(monkeypatch, kind)
    call = BATCHED_CALLS[kind]
    runs = [call(patch) for _ in range(_PROGRAMS[kind][3])]
    assert compiled == []
    runs.append(call(patch))
    assert compiled == [(kind, patch.components)]
    runs.append(call(patch))
    # Then the ring path, as below the tier.
    monkeypatch.setitem(_PROGRAMS, kind, (*_PROGRAMS[kind][:3], math.inf))
    runs.append(call(patch))
    assert compiled == [(kind, patch.components)]
    # The program's calls have the ring path's bits (no NaN here).
    assert all(run == runs[-1] for run in runs)


def _op_bytes(argv, out, capsys):
    """stdout and every written file of one CLI op into ``out``."""
    assert cli.main(argv + ["--out", str(out)]) == 0
    return capsys.readouterr(), {p.name: p.read_bytes()
                                for p in sorted(out.iterdir())}


def test_an_op_gives_the_same_bytes_before_and_after_its_patch_compiled(
        fresh_builtin, compiled, tmp_path, capsys):
    argv = ["report-thm31", "catenoid_line"]
    runs = [_op_bytes(argv, tmp_path / str(i), capsys) for i in range(5)]
    # The 4th op builds the patch's 4th batched record and compiles.
    assert [kind for kind, _ in compiled] == ["record"]
    assert runs[0][1] and all(run == runs[0] for run in runs)
