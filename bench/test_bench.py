"""Tests of the benchmark itself: seeded inputs, output validators and the
traced pass.  Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

import cProfile
import inspect
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer, layer_metrics
from workloads import Op, make_ops, validate

tpcurves = run.load_program()


# --- seeded input generation -------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert make_ops(workload, 7) == make_ops(workload, 7)


@pytest.mark.parametrize("workload",
                         [w for w in workloads.WORKLOADS if w != "verify_all"])
def test_different_seeds_give_different_inputs(workload):
    assert make_ops(workload, 7) != make_ops(workload, 8)


def test_grid_shapes_have_equal_node_counts():
    assert len(workloads.GRID_SHAPES) > 4
    assert {m * n for m, n in workloads.GRID_SHAPES} == {workloads.GRID_NODES}


# --- validators: real outputs pass, corrupted ones fail ----------------------

def _run(op, tmp_path):
    result = run.run_op(tpcurves.cli, op, tmp_path / "out")
    assert result.failure is None
    return result


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ops")
    ops = {
        "verify": Op(("verify", "--target", "all", "--format", "json"),
                     "verify"),
        "isometry": Op(("isometry", "offset_rotation", "--grid", "6x5",
                        "--format", "json"), "isometry",
                       ("offset_rotation", 6, 5)),
        "trace": Op(("trace", "helicoid", "--seed", "5.5,0.02", "--h", "0.01",
                     "--out", "{out}"), "trace"),
        "report_csv": Op(("report-thm31", "offset_latitude", "--samples",
                          "12", "--out", "{out}", "--format", "csv"),
                         "report", ("csv", 12)),
        "report_json": Op(("report-thm31", "cone_circle", "--samples", "12",
                           "--out", "{out}", "--format", "json"),
                          "report", ("json", 12)),
    }
    return {name: (op, _run(op, tmp / name)) for name, op in ops.items()}


def _check(outputs, name, code=None, stdout=None, files=None):
    op, res = outputs[name]
    return validate(op, res.code if code is None else code,
                    res.stdout if stdout is None else stdout,
                    dict(res.files, **(files or {})))


def test_real_outputs_pass(outputs):
    for name in outputs:
        assert _check(outputs, name) is None, name


def test_nonzero_exit_fails(outputs):
    for name in outputs:
        assert _check(outputs, name, code=2) is not None, name


def test_corrupted_verify_fails(outputs):
    payload = json.loads(outputs["verify"][1].stdout)
    assert _check(outputs, "verify", stdout=json.dumps(
        dict(payload, all_asserted_pass=False))) is not None
    assert _check(outputs, "verify", stdout=json.dumps(
        dict(payload, checks=payload["checks"][1:]))) is not None
    assert _check(outputs, "verify", stdout="{") is not None


def test_corrupted_isometry_fails(outputs):
    payload = json.loads(outputs["isometry"][1].stdout)
    bad = dict(payload, metric_residuals=dict(payload["metric_residuals"],
                                              G=2e-9))
    assert _check(outputs, "isometry", stdout=json.dumps(bad)) is not None
    bad = dict(payload, grid=[5, 6])
    assert _check(outputs, "isometry", stdout=json.dumps(bad)) is not None


def test_corrupted_trace_fails(outputs):
    _, res = outputs["trace"]
    assert "status=domain_exit" in res.stdout
    stdout = res.stdout.replace("status=domain_exit", "status=max_steps")
    assert _check(outputs, "trace", stdout=stdout) is not None
    lines = res.files["trace.csv"].decode().splitlines()
    cells = lines[1].split(",")
    cells[4] = "3e-8"  # the g column
    csv_text = "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"
    assert _check(outputs, "trace",
                  files={"trace.csv": csv_text.encode()}) is not None
    files = dict(res.files)
    del files["trace.svg"]
    op, _ = outputs["trace"]
    assert validate(op, 0, res.stdout, files) is not None


def test_corrupted_report_fails(outputs):
    lines = outputs["report_csv"][1].files["components.csv"].decode() \
        .splitlines()
    short = "\n".join(lines[:-1]) + "\n"
    assert _check(outputs, "report_csv",
                  files={"components.csv": short.encode()}) is not None
    cells = lines[3].split(",")
    cells[4] = repr(float(cells[4]) + 1e-6)  # rho against rho_direct
    bad = "\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n"
    assert _check(outputs, "report_csv",
                  files={"components.csv": bad.encode()}) is not None
    payload = json.loads(outputs["report_json"][1].files["components.json"])
    payload["samples"][5]["t_comp"] += 1e-6
    assert _check(outputs, "report_json", files={
        "components.json": json.dumps(payload).encode()}) is not None


def test_failing_op_counts_as_failed(tmp_path):
    ops = [Op(("trace", "helicoid", "--seed", "99,0", "--out", "{out}"),
              "trace"),
           Op(("no-such-command",), "verify")]
    done = run.run_pass(tpcurves.cli, ops, tmp_path)
    assert [r.failure is not None for r in done.results] == [True, True]


# --- traced pass -------------------------------------------------------------

def _profile_counts(tmp_path):
    profile = cProfile.Profile()
    profile.enable()
    try:
        run.run_op(tpcurves.cli, make_ops("verify_all", 0)[0], tmp_path)
    finally:
        profile.disable()
    stats = pstats.Stats(profile).stats

    def calls(fn):
        code = inspect.unwrap(fn).__code__
        return stats[(code.co_filename, code.co_firstlineno,
                      code.co_name)][1]

    return calls


def test_traced_counts_match_profiler(tmp_path):
    import numpy

    from tpcurves import curves, isometry, surface

    calls = _profile_counts(tmp_path / "profiled")
    tracer = Tracer(tpcurves)
    done = run.run_pass(tpcurves.cli, make_ops("verify_all", 0),
                        tmp_path / "traced", tracer)
    assert done.results[0].failure is None
    metrics = layer_metrics(tracer)
    assert metrics["surface.jet_calls"] == calls(surface.SurfacePatch.jet)
    assert metrics["surface.ambient_jet_calls"] == calls(surface.ambient_jet)
    assert metrics["numpy.cross_calls"] == calls(numpy.cross)
    assert metrics["curves.reparametrize_calls"] == \
        calls(curves.reparametrize_arclength)
    assert metrics["isometry.sweep_calls"] == (
        calls(isometry.register_pair) + calls(isometry.verify_metric_match))


def test_tracer_restores_every_binding(tmp_path):
    import numpy

    from tpcurves import forms, surface, tangent

    before = (forms.first_form, tangent.second_form, surface.SurfacePatch.jet,
              tpcurves.cli.main, numpy.cross, tpcurves.expr.evaluate)
    tracer = Tracer(tpcurves)
    with tracer:
        assert tangent.second_form is not before[1]
        assert forms.second_form is tangent.second_form
    after = (forms.first_form, tangent.second_form, surface.SurfacePatch.jet,
             tpcurves.cli.main, numpy.cross, tpcurves.expr.evaluate)
    assert all(a is b for a, b in zip(before, after))


def test_traced_outputs_are_byte_identical(tmp_path):
    ops = make_ops("trace_loci", 3)[:3] + make_ops("curve_reports", 3)[:2]
    plain = run.run_pass(tpcurves.cli, ops, tmp_path)
    traced = run.run_pass(tpcurves.cli, ops, tmp_path, Tracer(tpcurves))
    for a, b in zip(plain.results, traced.results):
        assert a.failure is None and b.failure is None
        assert a.output() == b.output()


# --- BENCHMARK.json and packaging --------------------------------------------

def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "trace_loci",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "no tpcurves package" in proc.stderr
    assert "correct" not in proc.stdout
