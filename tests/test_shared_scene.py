"""The built-in scene is one shared, read-only instance per process.

``builtin_scene()`` and ``load_scene(None)`` build it on first use; later
calls, and every CLI op without ``--config``, reuse it and the programs
its patches compiled.  A ``--config`` file is read and parsed on
every call.  Sharing must not leak: an op repeated in one process, with
another op run in between, writes the same bytes as its first run.
"""

import dataclasses
import functools

import pytest

import tpcurves.tangent
from tpcurves import builtin_scene, cli, load_scene, scene as scene_module


@pytest.fixture
def fresh_builtin(monkeypatch):
    """A built-in scene cache of this test's own: its first op builds the
    scene and compiles programs as a fresh process would."""
    monkeypatch.setattr(scene_module, "_builtin",
                        functools.cache(scene_module._builtin.__wrapped__))


def test_builtin_scene_is_shared(fresh_builtin):
    scene = builtin_scene()
    assert builtin_scene() is scene
    assert load_scene(None) is scene


def test_builtin_scene_is_read_only(scene):
    with pytest.raises(TypeError):
        scene.surfaces["plane"] = scene.surface("cone")
    with pytest.raises(TypeError):
        scene.curves["extra"] = scene.curve("plane_circle")
    with pytest.raises(TypeError):
        del scene.pairs["catenoid_helicoid"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        scene.options = scene.options
    with pytest.raises(dataclasses.FrozenInstanceError):
        scene.path = "elsewhere"


def test_repeated_trace_ops_compile_one_kernel(fresh_builtin, monkeypatch):
    """The tracer's kernel is its walk program: compiled once."""
    compiled = []
    compile_walk = tpcurves.tangent.compile_tangency_walk

    def counted_walk(patch):
        compiled.append(("walk", patch.components))
        return compile_walk(patch)

    monkeypatch.setattr(tpcurves.tangent, "compile_tangency_walk",
                        counted_walk)
    for _ in range(5):
        assert cli.main(["trace", "offset_sphere", "--seed", "2,0"]) == 0
    assert compiled == [
        ("walk", builtin_scene().surface("offset_sphere").components)]


OPS = {
    "verify": ["verify", "--format", "json"],
    "trace": ["trace", "offset_sphere", "--seed", "2,0.5", "--h", "0.02"],
    "report-thm31": ["report-thm31", "plane_circle", "--samples", "40"],
    "isometry": ["isometry", "catenoid_helicoid", "--curve", "catenoid_line"],
    "forms": ["forms", "catenoid", "2.5", "0.6", "--format", "json"],
}


def _run(argv, out_dir, capsys):
    capsys.readouterr()
    code = cli.main(argv + ["--out", str(out_dir)])
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return code, capsys.readouterr(), files


@pytest.mark.parametrize("name", sorted(OPS))
def test_repeated_op_writes_the_same_bytes(name, fresh_builtin, tmp_path,
                                           capsys):
    other = next(n for n in sorted(OPS) if n != name)
    first = _run(OPS[name], tmp_path / "first", capsys)
    _run(OPS[other], tmp_path / "between", capsys)
    again = _run(OPS[name], tmp_path / "again", capsys)
    assert first[0] == 0
    assert first[2]  # the op wrote files
    assert again == first


def test_config_file_is_read_on_every_call(tmp_path, capsys):
    path = tmp_path / "scene.ini"
    text = ("[surface disc]\ncomponents = (u, v, 0)\n"
            "u_range = -2, 2\nv_range = -2, 2\n")
    argv = ["forms", "disc", "0.5", "0.25", "--config", str(path)]
    path.write_text(text)
    assert cli.main(argv) == 0
    assert "E          = 1" in capsys.readouterr().out
    path.write_text(text.replace("(u, v, 0)", "(2*u, v, 0)"))
    assert cli.main(argv) == 0
    assert "E          = 4" in capsys.readouterr().out
    path.write_text(text.replace("[surface disc]", "[surface plate]"))
    assert cli.main(argv) == 1
    assert "surface not found: disc" in capsys.readouterr().err


def test_equal_patches_and_paths_compare_and_hash_equal(scene):
    # A patch or path keeps its hash once taken: a second parse of the
    # same scene gives equal objects with equal hashes, the dataclass's.
    again = scene_module.load_scene_text(scene_module.BUILTIN_SCENE_TEXT)
    for table, twins in ((scene.surfaces, again.surfaces),
                         (scene.curves, again.curves)):
        for name, obj in table.items():
            twin = twins[name]
            assert twin is not obj and twin == obj
            fields = (getattr(obj, f.name) for f in dataclasses.fields(obj))
            assert hash(twin) == hash(obj) == hash(tuple(fields))
            other = dataclasses.replace(obj, name=name + "'")
            assert other != obj and {obj: 1}.get(other) is None
