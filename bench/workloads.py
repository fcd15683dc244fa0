"""Seeded operation lists for the four benchmark workloads, and the output
validators that decide whether an operation failed.

Every operation is one ``tpcurves`` CLI command, run through
``tpcurves.cli.main(argv)``.  ``make_ops(workload, seed)`` draws the inputs
from the seed alone; a draw is never filtered by its outcome, so an input
that makes the program fail is counted as a failed operation.
"""

import csv
import io
import json
import math
import random
from dataclasses import dataclass

# Which layers each workload stresses is documented in README.md.
WORKLOADS = ("verify_all", "isometry_grid", "trace_loci", "curve_reports")

# Percentile reported as op_tail_ms: the highest one that keeps at least ten
# operations beyond it at the benchmark's run length (see README.md).
TAIL_PERCENTILE = {"verify_all": 50, "isometry_grid": 75,
                   "trace_loci": 90, "curve_reports": 90}

VERIFY_CHECKS = 69  # checks that ``verify --target all`` runs at the baseline

PAIRS = ("catenoid_helicoid", "plane_cylinder", "offset_rotation",
         "identity_catenoid")
PAIR_TOLERANCE = {"catenoid_helicoid": 1e-10, "plane_cylinder": 1e-10,
                  "identity_catenoid": 1e-10, "offset_rotation": 1e-9}
GRID_NODES = 1200
GRID_SHAPES = tuple((m, GRID_NODES // m)
                    for m in range(20, GRID_NODES // 20 + 1)
                    if GRID_NODES % m == 0)

TRACE_H = 0.01
TRACES_PER_SURFACE = 4
# Latitude of the offset-sphere locus and |v| of the catenoid loci
# (v tanh v = 1).
_OFFSET_LATITUDE = 2.0 * math.pi / 3.0
_CATENOID_V = 1.19967864

CURVES = ("plane_circle", "cone_circle", "cone_circle_v2", "cone_ruling",
          "sphere_latitude", "sphere_meridian", "offset_latitude",
          "catenoid_line", "cylinder_helix")
REPORT_SAMPLES = 200

LOCUS_TOL = 1e-8
COMPONENT_TOL = 1e-7


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``"{out}"`` in argv is replaced by the op's output
    directory; ``check`` names the validator and ``params`` feeds it."""

    argv: tuple
    check: str
    params: tuple = ()

    def command(self, out_dir):
        return [out_dir if a == "{out}" else a for a in self.argv]


def make_ops(workload, seed):
    """The fixed list of operations one pass of ``workload`` runs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify_all":
        # checks.py fixes its own RNG, so the seed changes nothing here.
        return [Op(("verify", "--target", "all", "--format", "json"),
                   "verify")]
    if workload == "isometry_grid":
        ops = []
        for pair in PAIRS:
            m, n = rng.choice(GRID_SHAPES)
            ops.append(Op(("isometry", pair, "--grid", f"{m}x{n}",
                           "--format", "json"), "isometry", (pair, m, n)))
    elif workload == "trace_loci":
        ops = []
        for _ in range(TRACES_PER_SURFACE):
            # Closed latitude circle; the whole loop fits in v <= 7.
            u = _OFFSET_LATITUDE + rng.uniform(-0.15, 0.15)
            v = rng.uniform(-6.0, 0.5)
            ops.append(_trace_op("offset_sphere", u, v))
            # Circle v = +-1.2, traced in +u until it leaves at u = 2 pi.
            u = rng.uniform(0.9, 1.1)
            v = rng.choice((-1.0, 1.0)) * (_CATENOID_V
                                           + rng.uniform(-0.1, 0.1))
            ops.append(_trace_op("catenoid", u, v))
            # Line v = 0, traced in +u until it leaves at u = 2 pi.
            ops.append(_trace_op("helicoid", rng.uniform(0.9, 1.1),
                                 rng.uniform(-0.1, 0.1)))
    elif workload == "curve_reports":
        ops = []
        for curve in CURVES:
            fmt = rng.choice(("csv", "json"))
            ops.append(Op(("report-thm31", curve, "--samples",
                           str(REPORT_SAMPLES), "--out", "{out}",
                           "--format", fmt), "report", (fmt, REPORT_SAMPLES)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def _trace_op(surface, u, v):
    seed = f"{u!r},{v!r}"
    return Op(("trace", surface, "--seed", seed, "--h", repr(TRACE_H),
               "--out", "{out}"), "trace")


def describe(ops):
    """The generated inputs, in order, as plain data for the run record."""
    return [" ".join(op.argv) for op in ops]


# --- validators: each returns None when the output is right, else why ----

def validate(op, code, stdout, files):
    """Check one operation's exit code, stdout and written files."""
    if code != 0:
        return f"exit code {code}"
    try:
        return _VALIDATORS[op.check](op, stdout, files)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _check_verify(op, stdout, files):
    payload = json.loads(stdout)
    if payload["all_asserted_pass"] is not True:
        return "an asserted check failed"
    if len(payload["checks"]) != VERIFY_CHECKS:
        return f"{len(payload['checks'])} checks, expected {VERIFY_CHECKS}"
    return None


def _check_isometry(op, stdout, files):
    pair, m, n = op.params
    payload = json.loads(stdout)
    if payload["grid"] != [m, n]:
        return f"grid {payload['grid']}, expected {[m, n]}"
    worst = max(payload["metric_residuals"][k] for k in ("E", "F", "G"))
    if not worst < PAIR_TOLERANCE[pair]:
        return f"metric residual {worst} >= {PAIR_TOLERANCE[pair]}"
    return None


def _check_trace(op, stdout, files):
    status = stdout.split("status=", 1)[1].split()[0]
    if status not in ("closed", "domain_exit"):
        return f"trace status {status}"
    rows = list(csv.DictReader(io.StringIO(files["trace.csv"].decode())))
    if not rows:
        return "trace.csv has no rows"
    off = [r["g"] for r in rows if not abs(float(r["g"])) < LOCUS_TOL]
    if off:
        return f"|g| = {off[0]} is not below {LOCUS_TOL}"
    if "trace.svg" not in files:
        return "trace.svg missing"
    return None


def _check_report(op, stdout, files):
    fmt, samples = op.params
    if fmt == "json":
        rows = json.loads(files["components.json"])["samples"]
    else:
        rows = list(csv.DictReader(
            io.StringIO(files["components.csv"].decode())))
    if len(rows) != samples:
        return f"{len(rows)} rows, expected {samples}"
    if any(math.isnan(float(r["g"])) for r in rows):
        return "g column holds NaN"
    if not all(abs(float(r["g"])) < LOCUS_TOL for r in rows):
        return None  # off the tangent-position locus: no identity to hold
    for i, r in enumerate(rows):
        for comp, direct in (("rho", "rho_direct"), ("t_comp", "t_direct"),
                             ("n_comp", "n_direct"), ("b_comp", "b_direct")):
            a, b = float(r[comp]), float(r[direct])
            if math.isnan(a) and math.isnan(b):
                continue  # component undefined where the curvature vanishes
            if not abs(a - b) < COMPONENT_TOL:
                return f"row {i}: |{comp} - {direct}| = {abs(a - b)}"
    return None


_VALIDATORS = {"verify": _check_verify, "isometry": _check_isometry,
               "trace": _check_trace, "report": _check_report}
