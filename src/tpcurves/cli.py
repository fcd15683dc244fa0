"""Command-line front end.

Subcommands: ``forms``, ``trace``, ``report-thm31``, ``verify``,
``isometry``.  Exit codes: 0 success, 1 load/config error or an
``--out`` that cannot be created or written, 2 analysis-level failure
(no reachable locus, degenerate point, ...), 3 asserted-check failure in
``verify``.

All file output is deterministic: identical config and flags produce
byte-identical CSV/JSON/SVG.
"""

import argparse
import functools
import math
import os
import sys

import numpy as np

from .checks import TARGETS, run_checks
from .curves import ambient_dot, sample_arclength
from .errors import (
    ConfigError,
    DegeneratePoint,
    DomainError,
    FrameUndefined,
    GeometryError,
    IdenticallyTangent,
    IrregularCurve,
    MetricMismatch,
    NoSeed,
    OracleMismatch,
    SingularLocus,
)
from .forms import christoffel, point_geometry
from .isometry import invariance_report, verify_metric_match
from .report import fmt, parameter_plot_svg, to_json, write_csv, write_text
from .scene import load_scene, parse_count, parse_grid, parse_positive
from .tangent import position_component_report, trace_tangent_curve

_ANALYSIS_ERRORS = (NoSeed, SingularLocus, IdenticallyTangent, DegeneratePoint,
                    DomainError, FrameUndefined, IrregularCurve,
                    MetricMismatch, OracleMismatch)


def _out_path(directory, name):
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, name)


def _rows(columns):
    """(index, value, ...) rows from per-sample columns; a float repeats."""
    n = len(columns[0])
    return list(zip(range(n), *(np.broadcast_to(c, (n,)).tolist()
                                for c in columns)))


def _forms_payload(scene, surface_name, u, v):
    geom = point_geometry(scene.surface(surface_name), u, v)
    E, F, G, sec = geom.E, geom.F, geom.G, geom.second
    g111, g112, g121, g122, g221, g222 = christoffel(geom)
    return {
        "surface": surface_name,
        "u": u,
        "v": v,
        "E": E.f, "F": F.f, "G": G.f,
        "E_u": E.fu, "E_v": E.fv,
        "F_u": F.fu, "F_v": F.fv,
        "G_u": G.fu, "G_v": G.fv,
        "L": sec.L, "M": sec.M, "N": sec.N,
        "unit_normal": list(sec.unit_normal),
        "Gamma1_11": g111.f, "Gamma2_11": g112.f,
        "Gamma1_12": g121.f, "Gamma2_12": g122.f,
        "Gamma1_22": g221.f, "Gamma2_22": g222.f,
    }


def cmd_forms(args):
    scene = load_scene(args.config)
    payload = _forms_payload(scene, args.surface, args.u, args.v)
    text = to_json(payload) if args.format == "json" or args.out else None
    if args.format == "json":
        sys.stdout.write(text)
    else:
        print(f"surface {args.surface} at (u, v) = ({fmt(args.u)}, {fmt(args.v)})")
        for key in ("E", "F", "G", "E_u", "E_v", "F_u", "F_v", "G_u", "G_v",
                    "L", "M", "N", "Gamma1_11", "Gamma2_11", "Gamma1_12",
                    "Gamma2_12", "Gamma1_22", "Gamma2_22"):
            print(f"  {key:10s} = {fmt(payload[key])}")
        nx, ny, nz = payload["unit_normal"]
        print(f"  normal     = ({fmt(nx)}, {fmt(ny)}, {fmt(nz)})")
    if args.out:
        write_text(_out_path(args.out, "forms.json"), text)
    return 0


def cmd_trace(args):
    scene = load_scene(args.config)
    patch = scene.surface(args.surface)
    seed = _parse_seed(args.seed)
    h = scene.options.h if args.h is None else parse_positive(args.h, "--h")
    max_steps = scene.options.max_steps if args.max_steps is None else \
        parse_count(args.max_steps, "--max-steps", 1)
    traced = trace_tangent_curve(patch, seed, h=h, max_steps=max_steps,
                                 resample=scene.options.samples)
    print(f"trace on {args.surface}: status={traced.status} "
          f"closed={traced.closed} vertices={len(traced.vertices)} "
          f"length={fmt(traced.arc_length)}")
    if args.out:
        s, geom = traced.samples, traced.geometry
        rows = _rows((s.s, s.u, s.v, geom.g.f, geom.lam.f, geom.mu.f,
                      ambient_dot(s.gamma, s.gamma)))
        write_csv(_out_path(args.out, "trace.csv"),
                  ("index", "s", "u", "v", "g", "lambda", "mu", "rho"), rows)
        svg = parameter_plot_svg(patch.u_range, patch.v_range,
                                 traced.vertices, seed=seed)
        write_text(_out_path(args.out, "trace.svg"), svg)
    return 0


def cmd_report_components(args):
    scene = load_scene(args.config)
    patch, curve = scene.curve_host(args.curve)
    n = scene.options.samples if args.samples is None else \
        parse_count(args.samples, "--samples", 2)
    samples = sample_arclength(patch, curve, n)
    rep = position_component_report(point_geometry(patch, samples.u,
                                                   samples.v), samples)
    # The running max over samples from 0, as Python's max takes it: a NaN
    # residual never replaces the current worst.  A NaN rho or t residual
    # means an identity went unchecked, so the worst is NaN; n and b are
    # NaN below the frame threshold by design.
    worst = max([0.0, *rep.max_residual().tolist()])
    if np.isnan([rep.rho_residual, rep.t_residual]).any():
        worst = math.nan
    columns = (samples.s, samples.u, samples.v, rep.rho, rep.rho_direct,
               rep.t_comp, rep.t_direct, rep.n_comp, rep.n_direct,
               rep.b_comp, rep.b_direct, rep.normal_component)
    rows = _rows(columns)
    print(f"position-component report for {args.curve}: "
          f"{n} samples, max residual {fmt(worst)}")
    header = ("index", "s", "u", "v", "rho", "rho_direct", "t_comp",
              "t_direct", "n_comp", "n_direct", "b_comp", "b_direct", "g")
    if args.out:
        if args.format == "json":
            payload = {
                "curve": args.curve,
                "max_residual": worst,
                "samples": [dict(zip(header, row)) for row in rows],
            }
            write_text(_out_path(args.out, "components.json"),
                       to_json(payload))
        else:
            write_csv(_out_path(args.out, "components.csv"), header, rows)
    return 0


def cmd_verify(args):
    scene = load_scene(args.config)
    checks = run_checks(scene, args.target)
    payload = {
        "target": args.target,
        "checks": [
            {
                "name": c.name,
                "kind": c.kind,
                "max_residual": c.value,
                "threshold": c.threshold,
                "passed": c.passed,
                "verdict": c.verdict(),
                "note": c.note,
            }
            for c in checks
        ],
    }
    asserted_failures = [c for c in checks
                         if c.kind == "asserted" and not c.passed]
    payload["all_asserted_pass"] = not asserted_failures
    text = to_json(payload) if args.format == "json" or args.out else None
    if args.format == "json":
        sys.stdout.write(text)
    else:
        for c in checks:
            if c.kind == "asserted":
                thr = fmt(c.threshold)
                print(f"[{c.verdict():4s}] {c.name}: max={fmt(c.value)} "
                      f"thr={thr}")
            else:
                print(f"[{c.verdict()}] {c.name}: observed={fmt(c.value)}")
        print(f"{len(checks)} checks, "
              f"{len(asserted_failures)} asserted failure(s)")
    if args.out:
        write_text(_out_path(args.out, "verify.json"), text)
    return 3 if asserted_failures else 0


def cmd_isometry(args):
    scene = load_scene(args.config)
    grid = parse_grid(args.grid, "--grid") if args.grid else scene.options.grid
    pair = scene.pair(args.pair, grid=grid)
    match = verify_metric_match(pair, grid)
    payload = {
        "pair": args.pair,
        "kind": pair.kind,
        "grid": list(match.grid),
        "metric_residuals": match.residuals,
        "skipped_nodes": match.skipped,
    }
    rep = None
    if args.curve:
        _, curve = scene.curve_host(args.curve)
        rep = invariance_report(pair, sample_arclength(
            pair.source, curve, scene.options.samples))
        payload["curve"] = args.curve
        payload["invariance"] = {
            "max_rho_residual": rep.max_rho_residual,
            "max_t_comp_residual": rep.max_t_comp_residual,
            "max_kappa_g_residual": rep.max_kappa_g_residual,
            "max_lam_residual": rep.max_lam_residual,
            "max_mu_residual": rep.max_mu_residual,
            "max_target_tangency": rep.max_target_tangency,
            "source_tangent_position": rep.source_tangent_position,
            "tangent_position_preserved": rep.tangent_position_preserved,
        }
    text = to_json(payload) if args.format == "json" or args.out else None
    if args.format == "json":
        sys.stdout.write(text)
    else:
        print(f"pair {args.pair} ({pair.kind}): "
              f"max metric residual {fmt(match.max_residual)} "
              f"on {match.grid[0]}x{match.grid[1]} grid")
        if args.curve:
            inv = payload["invariance"]
            for key, value in inv.items():
                print(f"  {key} = {value if isinstance(value, bool) else fmt(value)}")
    if args.out:
        write_text(_out_path(args.out, "isometry.json"), text)
        if args.format == "csv" and rep is not None:
            rows = _rows((rep.rho_source, rep.rho_target,
                          rep.t_comp_source, rep.t_comp_target,
                          rep.kappa_g_source, rep.kappa_g_target,
                          rep.source_tangency, rep.target_tangency))
            write_csv(_out_path(args.out, "invariance.csv"),
                      ("index", "rho", "rho_bar", "t_comp", "t_comp_bar",
                       "kappa_g", "kappa_g_bar", "g", "g_bar"), rows)
    return 0


def _parse_seed(raw):
    parts = raw.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--seed expects 'u,v', got {raw!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad seed {raw!r}: {exc}") from exc


@functools.cache
def build_parser():
    """The argument parser, built once: parsing keeps no state on it."""
    parser = argparse.ArgumentParser(
        prog="tpcurves",
        description="Differential geometry of curves on parametric surfaces "
                    "whose position vector lies in the tangent plane.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None,
                       help="scene file (defaults to the built-in scene)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="machine output format")

    p = sub.add_parser("forms", help="fundamental forms and connection "
                                     "symbols at a point")
    common(p)
    p.add_argument("surface")
    p.add_argument("u", type=float)
    p.add_argument("v", type=float)
    p.set_defaults(func=cmd_forms)

    p = sub.add_parser("trace", help="trace a tangent-position curve")
    common(p)
    p.add_argument("surface")
    p.add_argument("--seed", required=True, help="u,v seed point")
    p.add_argument("--h", default=None, help="step size (positive, finite)")
    p.add_argument("--max-steps", type=int, default=None)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("report-thm31",
                       help="closed-form position-vector components vs "
                            "ambient dot products along a curve")
    common(p)
    p.add_argument("curve")
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(func=cmd_report_components)

    p = sub.add_parser("verify", help="run the named verification checks")
    common(p)
    p.add_argument("--target", choices=TARGETS, default="all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("isometry", help="metric match and invariance report "
                                        "for a registered pair")
    common(p)
    p.add_argument("pair")
    p.add_argument("--curve", default=None)
    p.add_argument("--grid", default=None, help="MxN grid")
    p.set_defaults(func=cmd_isometry)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _ANALYSIS_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
