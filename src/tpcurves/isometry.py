"""Coordinate-matched surface pairs and isometry-invariance checks.

A pair registers two patches over a shared parameter rectangle with the
correspondence (u, v) -> (u, v); it is accepted only if the first
fundamental forms agree to 1e-9 on a registration grid, since every
downstream comparison is meaningless off that premise.

What is literally invariant and what is only empirical:

* Geodesic curvature depends only on E, F, G, their derivatives and the
  parameter derivatives of the curve, all shared across a pair, so
  |kappa_g - kappa_g_bar| is asserted for every pair.
* Length of the position vector, its tangential component, the
  decomposition coordinates and the tangency residual involve the ambient
  position; they are preserved by origin-fixing rigid motions but not by
  general metric-preserving pairs (the plane-to-cylinder pair is the
  standing counterexample).  Reports carry observed residuals and a
  verdict flag instead of asserting.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curves import ambient_dot, transfer_sample
from .errors import MetricMismatch
from .forms import REGULARITY_THRESHOLD, point_geometry
from .tangent import geodesic_curvature_formula, velocity_coefficients

__all__ = [
    "IsometryPair", "MetricMatchReport", "InvarianceReport",
    "register_pair", "verify_metric_match", "second_form_relation",
    "invariance_report", "tangent_position_preservation",
    "REGISTRATION_TOLERANCE",
]

REGISTRATION_TOLERANCE = 1e-9
_LOCUS_TOL = 1e-8

RIGID_ORIGIN_FIXING = "rigid-origin-fixing"
INTRINSIC = "intrinsic"
_KINDS = (RIGID_ORIGIN_FIXING, INTRINSIC)


@dataclass(frozen=True)
class IsometryPair:
    """Two patches identified along shared (u, v) coordinates."""

    source: object
    target: object
    kind: str
    u_range: tuple
    v_range: tuple
    registration_residual: float  # max metric deviation on the grid
    metric: "MetricMatchReport" = None  # the registration sweep, when known


@dataclass(frozen=True)
class MetricMatchReport:
    """Max-absolute metric residuals over a grid, one entry per
    coefficient and first derivative."""

    residuals: dict  # keys E, F, G, E_u, E_v, F_u, F_v, G_u, G_v
    grid: tuple
    skipped: int  # degenerate grid nodes

    @property
    def max_residual(self):
        return float(np.max(list(self.residuals.values())))  # NaN wins


@dataclass(frozen=True)
class InvarianceReport:
    """Per-sample invariance data for a curve pushed across a pair."""

    rho_source: np.ndarray
    rho_target: np.ndarray
    t_comp_source: np.ndarray
    t_comp_target: np.ndarray
    kappa_g_source: np.ndarray
    kappa_g_target: np.ndarray
    rho_residuals: np.ndarray
    t_comp_residuals: np.ndarray
    kappa_g_residuals: np.ndarray
    lam_residuals: np.ndarray
    mu_residuals: np.ndarray
    source_tangency: np.ndarray  # g along the source curve
    target_tangency: np.ndarray  # g-bar along the image curve
    geometry: tuple = ()  # (source, target) PointGeometry over all samples

    @property
    def source_tangent_position(self):
        return float(np.max(np.abs(self.source_tangency))) < _LOCUS_TOL

    @property
    def tangent_position_preserved(self):
        return float(np.max(np.abs(self.target_tangency))) < _LOCUS_TOL

    @property
    def max_rho_residual(self):
        return float(np.max(self.rho_residuals))

    @property
    def max_t_comp_residual(self):
        return float(np.max(self.t_comp_residuals))

    @property
    def max_kappa_g_residual(self):
        return float(np.max(self.kappa_g_residuals))

    @property
    def max_lam_residual(self):
        return float(np.max(self.lam_residuals))

    @property
    def max_mu_residual(self):
        return float(np.max(self.mu_residuals))

    @property
    def max_target_tangency(self):
        return float(np.max(np.abs(self.target_tangency)))


def _shared_domain(source, target):
    u0 = max(source.u_range[0], target.u_range[0])
    u1 = min(source.u_range[1], target.u_range[1])
    v0 = max(source.v_range[0], target.v_range[0])
    v1 = min(source.v_range[1], target.v_range[1])
    if u0 >= u1 or v0 >= v1:
        raise MetricMismatch(
            f"'{source.name}' and '{target.name}' share no parameter domain")
    return (u0, u1), (v0, v1)


_METRIC_KEYS = ("E", "F", "G", "E_u", "E_v", "F_u", "F_v", "G_u", "G_v")


def _metric_residuals(source, target, u_range, v_range, grid):
    """Max |source - target| of each metric coefficient over the grid nodes
    where neither patch is degenerate, and the number of degenerate nodes.

    Each patch is evaluated once, on the grid's axes, and a patch paired
    with itself once in all, by
    :meth:`~tpcurves.surface.SurfacePatch.metric_batch`: the patch's metric
    program, of order 2, not its order-3 jet or ambient program.  It takes
    a (m, 1) column of u and a (1, n) row of v, so a value of u alone is
    computed m times and one of v alone n times; each node still gets the
    scalar operations it got as one of m * n flattened nodes, and the first
    failing node in row-major order is the first of those.  A NaN or inf
    difference at any kept node makes that maximum NaN or inf, never 0,
    and so does a grid on which no node is kept.
    """
    m, n = grid
    us = np.linspace(u_range[0], u_range[1], m)[:, None]
    vs = np.linspace(v_range[0], v_range[1], n)[None, :]
    coeffs = []
    degenerate = np.zeros((m, n), dtype=bool)
    worst = {}
    # Overflow and inf - inf pass silently, as they do in float arithmetic.
    with np.errstate(over="ignore", invalid="ignore"):
        for patch in (source,) if target is source else (source, target):
            coeffs.append(patch.metric_batch(us, vs))
            E, F, G = coeffs[-1][:3]
            # PointGeometry's regularity test, at every node at once.
            degenerate |= E * G - F * F <= REGULARITY_THRESHOLD
        skipped = int(np.count_nonzero(degenerate))
        keep = ~degenerate if skipped or not degenerate.size else None
        for key, a, b in zip(_METRIC_KEYS, coeffs[0], coeffs[-1]):
            diff = np.abs(a - b)
            if keep is not None:
                diff = np.broadcast_to(diff, keep.shape)[keep]
            # NaN when every node is degenerate: nothing was compared.
            worst[key] = float(diff.max()) if diff.size else math.nan
    return worst, skipped


def register_pair(source, target, kind, grid=(20, 20)):
    """Validate metric agreement on a grid and build the pair.

    Candidates whose first fundamental forms disagree above 1e-9 anywhere
    on the grid are rejected outright.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    u_range, v_range = _shared_domain(source, target)
    worst, skipped = _metric_residuals(source, target, u_range, v_range, grid)
    max_metric = float(np.max([worst["E"], worst["F"], worst["G"]]))
    # ``not <`` so that a NaN residual rejects the pair too.
    if not max_metric < REGISTRATION_TOLERANCE:
        raise MetricMismatch(
            f"metric deviation {max_metric} between '{source.name}' and "
            f"'{target.name}' is not below {REGISTRATION_TOLERANCE}")
    return IsometryPair(source=source, target=target, kind=kind,
                        u_range=u_range, v_range=v_range,
                        registration_residual=max_metric,
                        metric=MetricMatchReport(residuals=worst,
                                                 grid=tuple(grid),
                                                 skipped=skipped))


def verify_metric_match(pair, grid=(20, 20)):
    """Max residuals of E, F, G and their six derivatives over a grid.

    On the registration grid this is the report :func:`register_pair`
    kept, with no second sweep."""
    if pair.metric is not None and pair.metric.grid == tuple(grid):
        return pair.metric
    worst, skipped = _metric_residuals(
        pair.source, pair.target, pair.u_range, pair.v_range, grid)
    return MetricMatchReport(residuals=worst, grid=tuple(grid), skipped=skipped)


def second_form_relation(pair, sample, geometry=None):
    """Residual of u'^2 (L Mbar - Lbar M) + v'^2 (M Nbar - Mbar N)
    + u'v' (L Nbar - Lbar N) at one sample, or at every sample of a
    stacked one (arrays out).

    ``geometry`` is the sample's (source, target) PointGeometry pair, as in
    :attr:`InvarianceReport.geometry`; it is built here when not given.
    Returns (residual, premise_holds): the vanishing is only implied where
    both curves are tangent-position with equal decomposition coordinates,
    so callers must gate any pass/fail on the premise flag.
    """
    src, tgt = geometry or (point_geometry(pair.source, sample.u, sample.v),
                            point_geometry(pair.target, sample.u, sample.v))
    s2, t2 = src.second, tgt.second
    du, dv = sample.du, sample.dv
    residual = (du * du * (s2.L * t2.M - t2.L * s2.M)
                + dv * dv * (s2.M * t2.N - t2.M * s2.N)
                + du * dv * (s2.L * t2.N - t2.L * s2.N))
    premise = ((abs(src.g.f) < _LOCUS_TOL)
               & (abs(tgt.g.f) < _LOCUS_TOL)
               & (abs(src.lam.f - tgt.lam.f) < _LOCUS_TOL)
               & (abs(src.mu.f - tgt.mu.f) < _LOCUS_TOL))
    return residual, premise


def invariance_report(pair, samples, geometry=None):
    """Evaluate the invariance claims along a curve given in shared
    parameters.

    ``samples`` are the curve's unit-speed samples on the source patch,
    stacked (:func:`~tpcurves.curves.sample_arclength`); the same
    (u(s), v(s)) data is pushed through the target patch (unit speed
    transfers because the metrics agree).  Geodesic curvature is computed
    intrinsically on both sides, so it stays defined even where the
    ambient frame degenerates.  Each side is one PointGeometry over all
    samples, one for both sides when the pair is a patch and itself; the
    report keeps the pair in ``geometry``.  A caller that has them passes
    them as ``geometry``, as to :func:`second_form_relation`; they are
    built here when not given.
    """
    if geometry:
        src, tgt = geometry
    else:
        src = point_geometry(pair.source, samples.u, samples.v)
        tgt = (src if pair.target is pair.source
               else point_geometry(pair.target, samples.u, samples.v))
    t = transfer_sample(tgt, samples)
    rho_src = ambient_dot(samples.gamma, samples.gamma)
    rho_tgt = ambient_dot(t.gamma, t.gamma)
    tc_src = ambient_dot(samples.dgamma, samples.gamma)
    tc_tgt = ambient_dot(t.dgamma, t.gamma)
    kg_src = geodesic_curvature_formula(velocity_coefficients(src, samples),
                                        src)
    kg_tgt = geodesic_curvature_formula(velocity_coefficients(tgt, t), tgt)

    def per_sample(x):  # a field that is the same at every node is a float
        return np.broadcast_to(x, samples.u.shape)

    return InvarianceReport(
        rho_source=rho_src, rho_target=rho_tgt,
        t_comp_source=tc_src, t_comp_target=tc_tgt,
        kappa_g_source=per_sample(kg_src), kappa_g_target=per_sample(kg_tgt),
        rho_residuals=np.abs(rho_src - rho_tgt),
        t_comp_residuals=np.abs(tc_src - tc_tgt),
        kappa_g_residuals=per_sample(np.abs(kg_src - kg_tgt)),
        lam_residuals=per_sample(np.abs(src.lam.f - tgt.lam.f)),
        mu_residuals=per_sample(np.abs(src.mu.f - tgt.mu.f)),
        source_tangency=per_sample(src.g.f),
        target_tangency=per_sample(tgt.g.f),
        geometry=(src, tgt))


def tangent_position_preservation(pair, samples):
    """Max |g-bar| along the image of a source tangent-position curve,
    given by its stacked unit-speed ``samples`` on the source patch.

    Raises ValueError when the source curve is not tangent-position (the
    claim under test has no content then).  Both maxima are read from
    :func:`invariance_report`.
    """
    rep = invariance_report(pair, samples)
    if not rep.source_tangent_position:
        worst_src = float(np.max(np.abs(rep.source_tangency)))
        raise ValueError(
            f"source curve is not tangent-position (max |g| = {worst_src})")
    return rep.max_target_tangency
