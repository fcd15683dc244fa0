"""Benchmark of the tpcurves CLI paths.

Usage, from the repository root:

    python3 bench/run.py --workload trace_loci --seed 1 --seconds 20 --trace 0

Each workload is a fixed list of CLI operations drawn from ``--seed`` (see
``workloads.py``).  One caller runs them in-process through
``tpcurves.cli.main(argv)`` as a closed loop: the next operation starts when
the previous one returns; one process, no extra threads.  Every operation's
output is validated.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced pass (``tracing.py``).
``--workload all`` runs the four workloads one after another.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for
people.  README.md describes every metric.
"""

import argparse
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from calibration import reference_seconds, scale
from tracing import Tracer, layer_metrics
from workloads import (TAIL_PERCENTILE, WORKLOADS, describe, make_ops,
                       validate)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MiB"}
# Per-layer metrics of the result line.  Self times of layers that some
# workload never enters (and so read exactly 0 s on every run of it) are
# printed in the table but left out of the result line.
PER_LAYER = {
    "scene.load_calls": "count", "scene.load_s": "s",
    "expr.evaluate_calls": "count",
    "surface.jet_calls": "count", "surface.jet_self_s": "s",
    "surface.ambient_jet_calls": "count", "surface.value_calls": "count",
    "forms.first_form_calls": "count", "forms.second_form_calls": "count",
    "forms.christoffel_calls": "count", "numpy.cross_calls": "count",
    "curves.reparametrize_calls": "count", "curves.samples": "count",
    "curves.ambient_jets_per_sample": "jets/sample",
    "curves.repeat_reparametrize": "count",
    "tangent.trace_calls": "count", "tangent.trace_vertices": "count",
    "tangent.jets_per_vertex": "jets/vertex",
    "tangent.identity_calls": "count",
    "tangent.jets_per_identity": "jets/call",
    "tangent.decompose_calls": "count",
    "isometry.sweep_calls": "count", "isometry.grid_nodes": "count",
    "isometry.repeat_sweeps": "count",
    "report.write_calls": "count", "report.write_s": "s",
    "report.bytes_written": "B",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
SETUP_RUNS = 7

_SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tpcurves
tpcurves.builtin_scene()
elapsed = time.perf_counter() - start
if not tpcurves.__file__.startswith(sys.argv[1]):
    sys.exit("tpcurves was not imported from " + sys.argv[1])
print(repr(elapsed))
"""


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a child failed)."""


def load_program():
    """Import ``tpcurves`` from this checkout's ``src``, never elsewhere."""
    if not (SRC / "tpcurves" / "__init__.py").is_file():
        raise BenchError(f"no tpcurves package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tpcurves
    import tpcurves.cli

    if Path(tpcurves.__file__).resolve().parent != SRC / "tpcurves":
        raise BenchError(f"tpcurves imported from {tpcurves.__file__}")
    return tpcurves


# --- running operations ----------------------------------------------------

@dataclass
class OpResult:
    code: object
    stdout: str
    stderr: str
    files: dict
    seconds: float
    scale: float = 1.0
    failure: object = None

    def output(self):
        return (self.code, self.stdout, self.stderr, self.files)


@dataclass
class Pass:
    results: list = field(default_factory=list)

    @property
    def raw_s(self):
        return sum(r.seconds for r in self.results)

    @property
    def wall_s(self):
        return sum(r.seconds * r.scale for r in self.results)


def run_op(cli, op, out_dir):
    shutil.rmtree(out_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(op.command(str(out_dir)))
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception as exc:  # an op that raises counts as failed
        code, error = None, f"raised {exc!r}"
    seconds = perf_counter() - start
    files = {}
    if out_dir.is_dir():
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return OpResult(code, out.getvalue(), err.getvalue(), files, seconds,
                    failure=error)


def run_pass(cli, ops, work, tracer=None):
    """One pass over ``ops``, each timed and calibrated, then validated."""
    done = Pass()
    ref_before = reference_seconds()
    for i, op in enumerate(ops):
        if tracer is None:
            result = run_op(cli, op, work / f"op{i:02d}")
        else:
            # Installed per operation, so the reference task is not traced.
            with tracer:
                result = run_op(cli, op, work / f"op{i:02d}")
        ref_after = reference_seconds()
        result.scale = scale(ref_before, ref_after)
        ref_before = ref_after
        if result.failure is None:
            result.failure = validate(op, result.code, result.stdout,
                                      result.files)
        done.results.append(result)
    return done


def timed_passes(cli, ops, work, seconds):
    """Passes until ``seconds`` have elapsed (at least one)."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(run_pass(cli, ops, work))
    return passes


# --- fresh-interpreter measurements ---------------------------------------

def measure_setup(runs=SETUP_RUNS):
    """Seconds of ``import tpcurves`` plus ``builtin_scene()`` in fresh
    interpreters.  Not calibrated: the reference task runs in this process
    while the child runs, and after each wait the host starts it slow."""
    times = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed: {proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def measure_peak_rss(workload, seed):
    """Peak resident memory of a fresh process that runs one pass."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--rss-child",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise BenchError(f"memory child failed: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rss_child(workload, seed):
    tpcurves = load_program()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as work:
        done = run_pass(tpcurves.cli, make_ops(workload, seed), Path(work))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_kb": peak_kb,
                      "attempted": len(done.results),
                      "failed": sum(r.failure is not None
                                    for r in done.results)}))


# --- statistics and reporting ----------------------------------------------

def percentile(values, p):
    if p == 50 or len(values) < 2:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _failures(passes):
    return [r for p in passes for r in p.results if r.failure is not None]


def end_to_end(workload, seed, seconds):
    """Untraced run: returns (correct, failed ops, attempted ops, metrics)."""
    tpcurves = load_program()
    ops = make_ops(workload, seed)
    print(f"== {workload}: seed {seed}, {len(ops)} ops per pass, "
          "closed loop, 1 caller, in-process")
    print("inputs: " + json.dumps({"workload": workload, "seed": seed,
                                   "ops": describe(ops)}))
    rss = measure_peak_rss(workload, seed)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        work = Path(tmp)
        warm = run_pass(tpcurves.cli, ops, work)
        passes = timed_passes(tpcurves.cli, ops, work, seconds)
    ops_ms = [r.seconds * r.scale * 1e3 for p in passes for r in p.results]
    raw_ms = [r.seconds * 1e3 for p in passes for r in p.results]
    tail_p = TAIL_PERCENTILE[workload]
    tail = percentile(ops_ms, tail_p)
    failed = _failures([warm] + passes)
    attempted = rss["attempted"] + len(ops) * (1 + len(passes))
    n_failed = rss["failed"] + len(failed)
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "op_p50_ms": statistics.median(ops_ms),
        "op_tail_ms": tail,
        "peak_rss_mb": rss["peak_rss_kb"] / 1024.0,
    }
    print(f"wall_s       {metrics['wall_s']:.6f} s    median of "
          f"{len(passes)} passes "
          f"(raw {statistics.median(p.raw_s for p in passes):.6f} s)")
    print(f"op_p50_ms    {metrics['op_p50_ms']:.4f} ms   median of "
          f"{len(ops_ms)} ops (raw {statistics.median(raw_ms):.4f} ms)")
    print(f"op_tail_ms   {tail:.4f} ms   p{tail_p} of {len(ops_ms)} ops, "
          f"{sum(x > tail for x in ops_ms)} beyond it "
          f"(raw {percentile(raw_ms, tail_p):.4f} ms)")
    print(f"peak_rss_mb  {metrics['peak_rss_mb']:.3f} MiB  fresh process, "
          "one pass")
    print(f"fail_ratio   {n_failed / attempted:.6g}      {n_failed} of "
          f"{attempted} ops")
    for r in failed[:5]:
        print(f"  failed: {r.failure}")
    return n_failed == 0, n_failed, attempted, metrics


def per_layer(workload, seed, seconds):
    """Traced run: returns (correct, failed ops, attempted ops, metrics).
    A traced op whose output differs from its untraced output has failed;
    the run is correct when no op failed and every count repeats."""
    tpcurves = load_program()
    ops = make_ops(workload, seed)
    print(f"== {workload} (traced): seed {seed}, {len(ops)} ops per pass")
    print("inputs: " + json.dumps({"workload": workload, "seed": seed,
                                   "ops": describe(ops)}))
    traced = []
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        work = Path(tmp)
        warm = run_pass(tpcurves.cli, ops, work)
        untraced = timed_passes(tpcurves.cli, ops, work, seconds / 2.0)
        for _ in range(2):
            tracer = Tracer(tpcurves)
            done = run_pass(tpcurves.cli, ops, work, tracer)
            traced.append((done, layer_metrics(tracer,
                                               done.wall_s / done.raw_s)))
    identical = True
    for done, _ in traced:
        for t, w in zip(done.results, warm.results):
            if t.output() != w.output():
                identical = False
                t.failure = t.failure or "traced output differs from untraced"
    passes = [warm] + untraced + [done for done, _ in traced]
    failed = _failures(passes)
    attempted = len(ops) * len(passes)
    first, second = traced[0][1], traced[1][1]
    counts_repeat = all(first[k] == second[k] for k in first
                        if not k.endswith("_s"))
    metrics = {k: first[k] if not k.endswith("_s")
               else (first[k] + second[k]) / 2.0 for k in first}
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    traced_wall = statistics.mean(done.wall_s for done, _ in traced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    print(f"traced outputs byte-identical to untraced: {identical}")
    print(f"counts repeat across two traced passes: {counts_repeat}")
    print(f"wall_s untraced {untraced_wall:.6f} s (median of "
          f"{len(untraced)} passes), traced {traced_wall:.6f} s")
    for name in sorted(metrics):
        unit = "s" if name.endswith("_s") else PER_LAYER.get(name, "count")
        print(f"  {name:36s} {metrics[name]:.10g} {unit}")
    for r in failed[:5]:
        print(f"  failed: {r.failure}")
    return (not failed and counts_repeat, len(failed), attempted,
            {k: metrics[k] for k in PER_LAYER})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.rss_child:
            rss_child(args.workload, args.seed)
            return 0
        load_program()
        units, metrics, correct, failed, attempted = {}, {}, True, 0, 0
        if not args.trace:
            setup = measure_setup()
            metrics["setup_s"] = statistics.median(setup)
            units["setup_s"] = END_TO_END["setup_s"]
            print(f"setup_s      {metrics['setup_s']:.6f} s    median of "
                  f"{len(setup)} fresh interpreters (not calibrated)")
        for workload in names:
            measure = per_layer if args.trace else end_to_end
            ok, n_failed, n_ops, met = measure(workload, args.seed,
                                               args.seconds)
            correct = correct and ok
            failed, attempted = failed + n_failed, attempted + n_ops
            for name, value in met.items():
                key = name if len(names) == 1 else f"{workload}.{name}"
                metrics[key] = value
                units[key] = (PER_LAYER if args.trace else END_TO_END)[name]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
