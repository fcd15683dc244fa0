"""Scene loading, CLI subcommands, exit codes, output determinism."""

import json
import math
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcurves import cli
from tpcurves.checks import Check
from tpcurves.errors import ConfigError, GeometryError
from tpcurves.scene import load_scene, load_scene_text

GOOD_SCENE = """\
[surface disc]
components = (u, v, 0)
u_range = -2, 2
v_range = -2, 2

[curve loop]
surface = disc
u = cos(t)
v = sin(t)
t_range = 0, 2*pi

[pair same]
source = disc
target = disc
kind = intrinsic

[options]
grid = 8x8
samples = 20
h = 0.02
max_steps = 500
"""


def test_load_scene_text():
    scene = load_scene_text(GOOD_SCENE, "mem.ini")
    assert scene.surface("disc").u_range == (-2.0, 2.0)
    assert scene.curve("loop").surface == "disc"
    assert scene.options.grid == (8, 8)
    assert scene.options.h == 0.02
    pair = scene.pair("same")
    assert pair.kind == "intrinsic"


def test_builtin_scene_complete(scene):
    for name in ("plane", "cone", "sphere", "offset_sphere", "catenoid",
                 "helicoid", "cylinder", "paraboloid"):
        assert scene.surface(name) is not None
    assert scene.pairs.keys() >= {"catenoid_helicoid", "plane_cylinder",
                                  "offset_rotation"}


def test_unknown_surface_message(scene):
    with pytest.raises(ConfigError, match="surface not found: nope"):
        scene.surface("nope")


def test_unresolved_curve_reference_is_load_error(tmp_path):
    bad = GOOD_SCENE.replace("surface = disc\nu = cos(t)",
                             "surface = missing\nu = cos(t)")
    path = tmp_path / "bad.ini"
    path.write_text(bad)
    with pytest.raises(ConfigError, match=r"bad\.ini:\d+.*surface not found"):
        load_scene(path)


def test_curve_leaving_domain_is_load_error():
    bad = GOOD_SCENE.replace("u = cos(t)", "u = 3*cos(t)")
    with pytest.raises(ConfigError):
        load_scene_text(bad, "mem.ini")


def test_missing_key_reports_section_line():
    bad = GOOD_SCENE.replace("u_range = -2, 2\n", "")
    with pytest.raises(ConfigError, match=r"mem2\.ini:1"):
        load_scene_text(bad, "mem2.ini")


def test_overflowing_range_reports_section_line(tmp_path, capsys):
    # The error is on the key's line, 3, under the section's header on 1.
    bad = GOOD_SCENE.replace("u_range = -2, 2", "u_range = 0, exp(1000)")
    with pytest.raises(ConfigError, match=r"mem3\.ini:3: exp at 1000"):
        load_scene_text(bad, "mem3.ini")
    path = tmp_path / "scene.ini"
    path.write_text(bad)
    rc = cli.main(["forms", "disc", "0.5", "0.5", "--config", str(path)])
    assert rc == 1
    assert re.search(r"scene\.ini:3: exp at 1000", capsys.readouterr().err)


def line_of(text, part):
    """The line of ``text`` on which ``part``, a piece of it, ends."""
    return text[:text.index(part) + len(part)].count("\n") + 1


def test_an_error_names_its_key_under_its_own_section():
    """A key that several sections have: the line is the one under the
    section that fails, and a missing key's is the header's."""
    second = "\n[surface disk]\ncomponents = (u, v, 1)\nu_range = -1, 1\n" \
        "v_range = 1, 1\n"
    with pytest.raises(ConfigError, match=r"^mem\.ini:26: v_range must"):
        load_scene_text(GOOD_SCENE + second, "mem.ini")
    with pytest.raises(ConfigError, match=r"^mem\.ini:23: missing key "
                       r"'v_range'"):
        load_scene_text(GOOD_SCENE + second.replace("v_range = 1, 1\n", ""),
                        "mem.ini")
    with pytest.raises(ConfigError, match=r"^mem\.ini:13: surface not "
                       r"found: nope"):
        load_scene_text(GOOD_SCENE.replace("source = disc", "source = nope"),
                        "mem.ini")


# ``header`` is the line of the section's header.  The error is on the line
# of the key that ``new`` ends with, or on the header's own line.
@pytest.mark.parametrize("old,new,header,message", [
    ("[surface disc]", "[surface ]", 1, "section [surface ] has no name"),
    ("[curve loop]", "[curve ]", 6, "section [curve ] has no name"),
    ("[pair same]", "[pair ]", 12, "section [pair ] has no name"),
    ("kind = intrinsic", "kind = bogus", 12,
     "kind must be intrinsic or rigid-origin-fixing, got 'bogus'"),
    ("u_range = -2, 2", "u_range = 2, -2", 1,
     "u_range must be finite with low < high, got '2, -2'"),
    ("v_range = -2, 2", "v_range = 2, 2", 1,
     "v_range must be finite with low < high, got '2, 2'"),
    ("t_range = 0, 2*pi", "t_range = 2*pi, 0", 6,
     "t_range must be finite with low < high, got '2*pi, 0'"),
    ("v_range = -2, 2", "v_range = -2, 1e308*10", 1,
     "v_range must be finite with low < high, got '-2, 1e308*10'"),
    ("u_range = -2, 2", "u_range = 1/0, 2", 1, "division by zero"),
    # A key that a section of its kind does not read: a misspelling or an
    # extra key would change nothing.
    ("v_range = -2, 2", "v_range = -2, 2\ncolour = red", 1,
     "unknown key 'colour'"),
    ("t_range = 0, 2*pi", "t_range = 0, 2*pi\ncomponents = (u, v, 0)", 6,
     "unknown key 'components'"),
    ("kind = intrinsic", "kind = intrinsic\ngrid = 8x8", 12,
     "unknown key 'grid'"),
    ("h = 0.02", "h = 0.02\nsample = 7", 17, "unknown key 'sample'"),
    ("max_steps = 500", "max_step = 3", 17, "unknown key 'max_step'"),
    # 1,200 nested parentheses: rejected at the 65th, no RecursionError.
    pytest.param("(u, v, 0)", "(u, v, " + "(" * 1200 + "0" + ")" * 1200 + ")",
                 1, "expression nested deeper than 64 levels (at position 71)",
                 id="1200 nested parentheses"),
])
def test_malformed_section_reports_line(tmp_path, capsys, old, new, header,
                                        message):
    bad = GOOD_SCENE.replace(old, new)
    line = line_of(bad, new)
    assert bad.splitlines()[header - 1].startswith("[")
    assert not any(x.startswith("[")
                   for x in bad.splitlines()[header:line])
    expected = re.escape(f"mem.ini:{line}: {message}")
    with pytest.raises(ConfigError, match=expected):
        load_scene_text(bad, "mem.ini")
    path = tmp_path / "scene.ini"
    path.write_text(bad)
    assert cli.main(["isometry", "same", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:{line}: {message}\n"


_LINES = st.one_of(
    st.sampled_from(["[surface a]", "[surface b]", "[curve c]", "[pair p]",
                     "[options]", "[surface ]", "[curve ]", "[pair ]",
                     "[surface]", "[mystery m]"]),
    st.builds("{} = {}".format,
              st.sampled_from(["components", "u_range", "v_range", "t_range",
                               "u", "v", "surface", "source", "target",
                               "kind", "grid", "samples", "h", "max_steps"]),
              st.sampled_from(["(u, v, 0)", "(u, v, u*v)", "(u, 0, 0)",
                               "(cos(u), sin(u), v)", "(u, v)", "0, 1",
                               "1, 0", "0, 0", "-1, 1", "0, 2*pi", "t",
                               "t/2", "cos(t)", "0.5", "log(0)",
                               "0, 1e308*10", "a", "b", "intrinsic",
                               "rigid-origin-fixing", "bogus", "8x8", "2",
                               "0", "0.01", ""])
              | st.text("uvt0123456789.,+-*/^()x ab", max_size=12)),
    st.text(max_size=10))


@given(st.lists(_LINES, max_size=30))
@settings(max_examples=300, deadline=None)
def test_load_scene_text_ends_in_error_or_valid_scene(lines):
    try:
        scene = load_scene_text("\n".join(lines), "fuzz.ini")
    except GeometryError:  # ConfigError among them
        return
    for patch in scene.surfaces.values():
        for low, high in (patch.u_range, patch.v_range):
            assert -math.inf < low < high < math.inf
    for curve in scene.curves.values():
        assert -math.inf < curve.t_range[0] < curve.t_range[1] < math.inf
        assert curve.surface in scene.surfaces
    for name, pdef in scene.pairs.items():
        assert pdef.kind in ("intrinsic", "rigid-origin-fixing")
        try:
            scene.pair(name, grid=(3, 3))
        except GeometryError:
            pass


@pytest.mark.parametrize("line,message", [
    ("samples = fifty", "samples must be an integer, got 'fifty'"),
    ("samples = 1", "samples must be at least 2, got 1"),
    ("grid = axb", "grid must be an integer, got 'a'"),
    ("grid = 8x0", "grid must be at least 1, got 0"),
    ("max_steps = x", "max_steps must be an integer, got 'x'"),
    ("max_steps = 0", "max_steps must be at least 1, got 0"),
    ("h = 0", "h must be positive and finite, got '0'"),
    ("h = -0.01", "h must be positive and finite, got '-0.01'"),
    ("h = 1e308*10 - 1e308*10",  # NaN
     "h must be positive and finite, got '1e308*10 - 1e308*10'"),
    ("h = 1e308*10", "h must be positive and finite, got '1e308*10'"),
])
def test_malformed_option_reports_section_line(tmp_path, capsys, line,
                                               message):
    key = line.split()[0]
    bad = re.sub(rf"^{key} = .*$", line, GOOD_SCENE, flags=re.M)
    # The error is on the key's line, under [options] on line 17.
    at = line_of(bad, line)
    assert at > 17
    with pytest.raises(ConfigError,
                       match=re.escape(f"mem.ini:{at}: {message}")):
        load_scene_text(bad, "mem.ini")
    path = tmp_path / "scene.ini"
    path.write_text(bad)
    argv = ["verify", "--target", "gauss", "--config", str(path)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}:{at}: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["report-thm31", "plane_circle", "--samples", "1"],
     "--samples must be at least 2, got 1"),
    (["report-thm31", "plane_circle", "--samples", "0"],
     "--samples must be at least 2, got 0"),
    (["trace", "offset_sphere", "--seed", "2,0", "--max-steps", "0"],
     "--max-steps must be at least 1, got 0"),
    (["isometry", "plane_cylinder", "--grid", "0x5"],
     "--grid must be at least 1, got 0"),
    (["trace", "offset_sphere", "--seed", "2,0", "--h", "0"],
     "--h must be positive and finite, got '0'"),
    (["trace", "offset_sphere", "--seed", "2,0", "--h", "-0.01"],
     "--h must be positive and finite, got '-0.01'"),
    (["trace", "offset_sphere", "--seed", "2,0", "--h", "1e308*10-1e308*10"],
     "--h must be positive and finite, got '1e308*10-1e308*10'"),
    (["trace", "offset_sphere", "--seed", "2,0", "--h", "1e308*10"],
     "--h must be positive and finite, got '1e308*10'"),
    (["trace", "offset_sphere", "--seed", "2,0", "--h", "nan"],
     "--h: unknown identifier 'nan' (at position 0)"),
    (["trace", "offset_sphere", "--seed", "2,0", "--h", "inf"],
     "--h: unknown identifier 'inf' (at position 0)"),
])
def test_cli_rejects_counts_below_minimum(capsys, argv, message):
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_curve_leaving_domain_names_first_failing_t():
    """The batched domain check names the first of its 129 equally spaced
    parameters that leaves the domain, as a point-by-point loop would."""
    bad = GOOD_SCENE.replace("u = cos(t)\nv = sin(t)\nt_range = 0, 2*pi",
                             "u = t/3\nv = 0\nt_range = 0, 8")
    # t = 6 (i = 96) ends on the edge u = 2; i = 97 is past it.
    t = 8.0 * 97 / 128
    message = re.escape(f"at t={t}: (u, v)=(2.02")
    with pytest.raises(ConfigError, match=message):
        load_scene_text(bad, "mem.ini")


def test_cli_forms_json(capsys):
    rc = cli.main(["forms", "cone", "0", "1", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["E"] == 1.0
    assert payload["G"] == 2.0
    assert payload["Gamma1_12"] == 1.0
    assert payload["Gamma2_11"] == -0.5


def test_cli_forms_unknown_surface_exit_1(capsys):
    rc = cli.main(["forms", "nope", "0", "1"])
    assert rc == 1
    assert "surface not found: nope" in capsys.readouterr().err


def test_cli_trace_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["trace", "offset_sphere", "--seed", "2.0,0.0",
                   "--out", str(out)])
    assert rc == 0
    csv_text = (out / "trace.csv").read_text()
    header, first = csv_text.splitlines()[:2]
    assert header == "index,s,u,v,g,lambda,mu,rho"
    row = first.split(",")
    assert float(row[4]) < 1e-8  # g
    assert float(row[7]) == pytest.approx(3.0, abs=1e-6)  # rho
    svg = (out / "trace.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_cli_trace_no_seed_exit_2(capsys):
    rc = cli.main(["trace", "sphere", "--seed", "2.0,0.0"])
    assert rc == 2
    assert "no tangent-position locus" in capsys.readouterr().err


def test_cli_trace_singular_exit_2(capsys):
    rc = cli.main(["trace", "paraboloid", "--seed", "0.1,0.1"])
    assert rc == 2


def test_cli_report_components(tmp_path, capsys):
    out = tmp_path / "rep"
    rc = cli.main(["report-thm31", "offset_latitude", "--samples", "12",
                   "--out", str(out), "--format", "json"])
    assert rc == 0
    payload = json.loads((out / "components.json").read_text())
    assert payload["max_residual"] < 1e-7
    assert len(payload["samples"]) == 12
    sample = payload["samples"][0]
    assert sample["rho"] == pytest.approx(3.0, abs=1e-9)


def test_cli_verify_gauss(capsys):
    rc = cli.main(["verify", "--target", "gauss", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_asserted_pass"]
    names = {c["name"] for c in payload["checks"]}
    assert any(n.startswith("gauss-residual/") for n in names)


def test_cli_verify_thm32_counterexample_flagged(capsys):
    rc = cli.main(["verify", "--target", "thm32", "--format", "json"])
    assert rc == 0  # empirical failures do not affect the exit code
    payload = json.loads(capsys.readouterr().out)
    by_name = {c["name"]: c for c in payload["checks"]}
    flagged = by_name["tangent-position-preserved/plane_cylinder"]
    assert flagged["kind"] == "empirical"
    assert flagged["verdict"] == "empirical: fails"
    assert by_name["kappa-g-invariance/plane_cylinder"]["passed"]


def test_cli_verify_exit_3_on_asserted_failure(monkeypatch, capsys):
    failing = Check(name="broken", target="gauss", kind="asserted",
                    value=1.0, threshold=1e-8, passed=False)
    monkeypatch.setattr(cli, "run_checks", lambda scene, target: [failing])
    rc = cli.main(["verify", "--target", "gauss"])
    assert rc == 3


def test_cli_isometry(capsys):
    rc = cli.main(["isometry", "plane_cylinder", "--curve", "plane_circle",
                   "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metric_residuals"]["E"] < 1e-10
    inv = payload["invariance"]
    assert inv["source_tangent_position"] is True
    assert inv["tangent_position_preserved"] is False
    assert inv["max_kappa_g_residual"] < 1e-7


def test_cli_forms_overflow_exit_1(tmp_path, capsys):
    path = tmp_path / "scene.ini"
    path.write_text("[surface boom]\n"
                    "components = (exp(exp(u)), v, 0)\n"
                    "u_range = 5, 7\n"
                    "v_range = 0, 1\n")
    rc = cli.main(["forms", "boom", "6.9", "0.5", "--config", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: exp at ")
    assert "range error" in err


OVERFLOW_SCENE = """\
[surface boom]
components = {components}
u_range = 0, 2
v_range = 0, 1

[curve line]
surface = boom
u = t
v = 0.5
t_range = 0, {t1}
"""


@pytest.mark.parametrize("components,t1,argv,code", [
    # ds/dt ** 5 overflows in the arc-length chain rule; the report runs.
    ("(exp(200*u), v, u*v)", 1, ["report-thm31", "line"], 0),
    # |gamma'|^2 overflows: the speed is inf.
    ("(exp(340*u), v, u*v)", 2, ["report-thm31", "line"], 2),
    # The point's second form overflows with E; the symbols then disagree.
    ("(exp(200*u), v, u*v)", 1, ["forms", "boom", "1.9", "0.2"], 2),
    # |gamma|^2 and the closed-form components overflow; the report runs.
    ("(1e200 + u, v, u*v)", 2, ["report-thm31", "line", "--samples", "5"],
     0),
], ids=["samples", "speed", "second_form", "position"])
def test_overflowing_config_scene_prints_no_warning(tmp_path, capsys,
                                                    components, t1, argv,
                                                    code):
    path = tmp_path / "scene.ini"
    path.write_text(OVERFLOW_SCENE.format(components=components, t1=t1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv + ["--config", str(path)])
    assert [str(w.message) for w in caught] == []
    assert rc == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and err.startswith("error: ")
        assert err.count("\n") == 1
    else:
        assert out.startswith("position-component report for line: ")
        assert err == ""


def test_report_with_unchecked_identities_reads_nan(tmp_path, capsys):
    # |gamma|^2 overflows: every rho or t residual is NaN, so no identity
    # was checked and the worst residual is NaN, not 0.
    path = tmp_path / "scene.ini"
    path.write_text(OVERFLOW_SCENE.format(components="(1e200 + u, v, u*v)",
                                          t1=2))
    argv = ["report-thm31", "line", "--samples", "5", "--config", str(path),
            "--out", str(tmp_path), "--format", "json"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == \
        "position-component report for line: 5 samples, max residual nan\n"
    payload = json.loads((tmp_path / "components.json").read_text())
    assert math.isnan(payload["max_residual"])
    assert all(math.isnan(row["rho"] - row["rho_direct"])
               or math.isnan(row["t_comp"] - row["t_direct"])
               for row in payload["samples"])


@pytest.mark.parametrize("argv", [
    ["trace", "offset_sphere", "--seed", "2.0,0.0"],
    ["report-thm31", "plane_circle"],
    ["verify", "--target", "gauss"],
    ["isometry", "plane_cylinder", "--curve", "plane_circle",
     "--format", "csv"],
    ["forms", "sphere", "0.7", "0.4"],
], ids=lambda argv: argv[0])
def test_cli_unwritable_out_exit_1(tmp_path, capsys, argv):
    path = tmp_path / "taken"
    path.write_text("a file, not a directory")
    rc = cli.main(argv + ["--out", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err
    assert path.read_text() == "a file, not a directory"


def test_cli_custom_config(tmp_path, capsys):
    path = tmp_path / "scene.ini"
    path.write_text(GOOD_SCENE)
    rc = cli.main(["forms", "disc", "0.5", "0.5", "--config", str(path),
                   "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["E"] == 1.0


def test_outputs_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = ["trace", "offset_sphere", "--seed", "2.0,0.0"]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "trace.svg").read_bytes() == (out2 / "trace.svg").read_bytes()

    outj1, outj2 = tmp_path / "j1", tmp_path / "j2"
    argv = ["verify", "--target", "thm32"]
    assert cli.main(argv + ["--out", str(outj1)]) == 0
    assert cli.main(argv + ["--out", str(outj2)]) == 0
    assert ((outj1 / "verify.json").read_bytes()
            == (outj2 / "verify.json").read_bytes())


def test_csv_uses_lf_and_17_digits(tmp_path):
    out = tmp_path / "fmt"
    cli.main(["trace", "offset_sphere", "--seed", "2.0,0.0",
              "--out", str(out)])
    raw = (out / "trace.csv").read_bytes()
    assert b"\r" not in raw
    text = raw.decode("utf-8")
    # u stays at the traced latitude: full-precision repr appears.
    assert format(2 * math.pi / 3, ".17g")[:12] in text
