"""Independent 3-D oracles and the consolidated claim report.

`mean_curvature_residual` measures the mean curvature of any parametrized
surface through the ambient connection and finite differences of the
parametrization only; it deliberately never touches the 2-D graph-operator
code, so solver output can be validated against it without circularity.

`run_claim_checks` re-verifies the structural claims about the geometry
(totally geodesic slice, product splitting, circle-action isometry, radial
geodesics and the distance formula, the curvature profile, catenoid
minimality) and emits one report entry per claim.  "discrepancy" is a
first-class verdict distinct from "fail": it marks the curvature constant
whose doubled closed-form candidate is inconsistent with the connection
data, as established by two agreeing independent oracles.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .nilcore import (
    ChartPoint,
    GroupElement,
    TangentVector,
    balanced_metric_from_translations,
    christoffel_closed_form,
    integrate_geodesic,
    metric_closed_form,
    tangent_from_matrix_velocity,
)
from . import surface as sf
from .radial import CatenoidParams, catenoid_height, t0_min

SQRT2 = math.sqrt(2.0)

__all__ = [
    "SurfaceSample",
    "ClaimReport",
    "DegenerateImmersionError",
    "mean_curvature_residual",
    "graph_embed",
    "slice_sample",
    "catenoid_sample",
    "fd_pushforward",
    "balanced_gram",
    "run_claim_checks",
    "claims_table",
    "claims_to_json",
]


class DegenerateImmersionError(ValueError):
    """First fundamental form is numerically degenerate at the sample point."""


@dataclass
class SurfaceSample:
    """Parametrized surface patch: (u, v) -> chart coordinates (x, y, zeta).

    u_grid/v_grid are the sample parameters (used by mesh export and batch
    residual sweeps); fd_step is the finite-difference step of the curvature
    oracle; periodic_v marks a closed v-direction (seam identified on export).
    """

    chart_map: "callable"
    u_grid: np.ndarray
    v_grid: np.ndarray
    fd_step: float = 1e-4
    periodic_v: bool = False


def mean_curvature_residual(surf: SurfaceSample, at) -> float:
    """Mean curvature of the patch at parameter point (u, v).

    Second-order accurate: tangents and second derivatives come from central
    finite differences of the parametrization, covariant derivatives from the
    closed-form connection, and the unit normal from the coordinate cross
    product paired with the inverse metric.
    """
    u0, v0 = float(at[0]), float(at[1])
    eps = surf.fd_step

    def pmap(uu, vv):
        return np.asarray(surf.chart_map(uu, vv), dtype=float)

    p00 = pmap(u0, v0)
    p_pu = pmap(u0 + eps, v0)
    p_mu = pmap(u0 - eps, v0)
    p_pv = pmap(u0, v0 + eps)
    p_mv = pmap(u0, v0 - eps)

    tan_u = (p_pu - p_mu) / (2.0 * eps)
    tan_v = (p_pv - p_mv) / (2.0 * eps)
    duu = (p_pu - 2.0 * p00 + p_mu) / eps**2
    dvv = (p_pv - 2.0 * p00 + p_mv) / eps**2
    duv = (
        pmap(u0 + eps, v0 + eps)
        - pmap(u0 + eps, v0 - eps)
        - pmap(u0 - eps, v0 + eps)
        + pmap(u0 - eps, v0 - eps)
    ) / (4.0 * eps**2)

    pt = ChartPoint(p00[0], p00[1], p00[2])
    gm = metric_closed_form(pt).matrix()
    gam = christoffel_closed_form(pt).gamma

    e1 = float(tan_u @ gm @ tan_u)
    f1 = float(tan_u @ gm @ tan_v)
    g1 = float(tan_v @ gm @ tan_v)
    det = e1 * g1 - f1 * f1
    if det <= 1e-10:
        raise DegenerateImmersionError(f"first fundamental form degenerate: det={det:.3g}")

    cov_uu = duu + np.einsum("kij,i,j->k", gam, tan_u, tan_u)
    cov_uv = duv + np.einsum("kij,i,j->k", gam, tan_u, tan_v)
    cov_vv = dvv + np.einsum("kij,i,j->k", gam, tan_v, tan_v)

    # covector annihilating both tangents, normalized through the inverse metric
    alpha = np.cross(tan_u, tan_v)
    nn = float(alpha @ np.linalg.solve(gm, alpha))
    scale = math.sqrt(nn)
    ii_uu = float(cov_uu @ alpha) / scale
    ii_uv = float(cov_uv @ alpha) / scale
    ii_vv = float(cov_vv @ alpha) / scale

    return float((e1 * ii_vv - 2.0 * f1 * ii_uv + g1 * ii_uu) / (2.0 * det))


def graph_embed(u: np.ndarray, grid) -> SurfaceSample:
    """Embed a solver field (fiber arc-length units) as a graph patch.

    The arc-length height converts back to the chart zeta offset by dividing
    by sqrt(2); the angular direction is padded periodically so the spline
    interpolant is smooth across the seam.
    """
    u = np.asarray(u, dtype=float)
    r = grid.r
    theta = grid.theta
    pad = 4
    th_ext = np.concatenate(
        [theta[-pad:] - 2.0 * math.pi, theta, theta[:pad] + 2.0 * math.pi]
    )
    u_ext = np.concatenate([u[:, -pad:], u, u[:, :pad]], axis=1)
    spline = RectBivariateSpline(r, th_ext, u_ext / SQRT2, kx=3, ky=3)

    def chart_map(rr, tt):
        rho = rr / SQRT2
        return (
            rho * math.cos(tt),
            rho * math.sin(tt),
            float(spline(rr, tt)[0, 0]),
        )

    return SurfaceSample(chart_map, r.copy(), theta.copy(), fd_step=1e-4, periodic_v=True)


def slice_sample(extent: float = 3.0, n: int = 10) -> SurfaceSample:
    """The flat slice zeta = 0 over a square parameter patch."""
    grid = np.linspace(-extent, extent, n)
    return SurfaceSample(lambda uu, vv: (uu, vv, 0.0), grid, grid.copy())


def catenoid_sample(
    params: CatenoidParams,
    tmax: float,
    n_t: int = 40,
    n_theta: int = 64,
    tol: float = 1e-13,
    fd_step: float = 2e-4,
) -> SurfaceSample:
    """Surface of rotation of the catenoid profile, parametrized by (t, angle)."""
    t_grid = np.linspace(params.t0, tmax, n_t)
    th_grid = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    # one quadrature per profile parameter, not one per vertex
    height = functools.lru_cache(maxsize=None)(lambda tt: catenoid_height(params, tt, tol))

    def chart_map(tt, phi):
        rho = tt / SQRT2
        return (rho * math.cos(phi), rho * math.sin(phi), height(tt))

    return SurfaceSample(chart_map, t_grid, th_grid, fd_step=fd_step, periodic_v=True)


@dataclass
class ClaimReport:
    """One verified claim: identifier, statement, verdict, measured values, tolerance."""

    claim_id: str
    statement: str
    verdict: str  # "pass" | "fail" | "discrepancy"
    values: dict
    tolerance: float


def fd_pushforward(fn, q, vel, h=1e-3):
    """Differential of a map R^3 -> Nil3 at q along vel, by central differences.

    fn takes a coordinate 3-vector and returns a GroupElement; the result is
    the matrix velocity (dx, dy, dz) of the image curve.
    """
    q = np.asarray(q, dtype=float)
    step = h * np.asarray(vel, dtype=float)
    gp = fn(q + step)
    gm = fn(q - step)
    return np.array([gp.x - gm.x, gp.y - gm.y, gp.z - gm.z]) / (2.0 * h)


def balanced_gram(g: GroupElement, vels) -> np.ndarray:
    """Gram matrix of matrix-velocity vectors at g under the balanced metric.

    One `balanced_metric_from_translations` call per upper-triangle entry;
    the lower triangle is mirrored.
    """
    base = g.to_chart()
    tans = [tangent_from_matrix_velocity(base, v) for v in vels]
    gram = np.empty((len(tans), len(tans)))
    for i, ta in enumerate(tans):
        for j in range(i, len(tans)):
            gram[i, j] = gram[j, i] = balanced_metric_from_translations(g, ta, tans[j])
    return gram


def _check_totally_geodesic(tol_ii, tol_zeta, rng):
    worst_ii = 0.0
    for _ in range(100):
        x, y = rng.uniform(-4.0, 4.0, size=2)
        ii = sf.second_fundamental_form_slice(sf.SurfacePoint(x, y))
        worst_ii = max(worst_ii, float(np.max(np.abs(ii))))
    worst_zeta = 0.0
    for ang in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
        v0 = TangentVector(ChartPoint(0.0, 0.0, 0.0), math.cos(ang) / SQRT2,
                           math.sin(ang) / SQRT2, 0.0)
        path = integrate_geodesic(ChartPoint(0.0, 0.0, 0.0), v0, 10.0, 1000)
        worst_zeta = max(worst_zeta, max(abs(p.zeta) for p, _ in path))
    ok = worst_ii <= tol_ii and worst_zeta <= tol_zeta
    return ClaimReport(
        "totally-geodesic-slice",
        "the slice zeta = 0 has vanishing second fundamental form and traps tangent geodesics",
        "pass" if ok else "fail",
        {"max_second_fundamental_form": worst_ii, "max_zeta_drift": worst_zeta},
        tol_ii,
    )


def _splitting(q) -> GroupElement:
    return sf.splitting_isometry(sf.SurfacePoint(q[0], q[1]), sf.CenterElement(q[2]))


def _check_splitting(tol, rng):
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(-4.0, 4.0, size=3)
        met = metric_closed_form(ChartPoint(q[0], q[1], 0.0))
        block = np.array(
            [
                [met.exx, met.exy, 0.0],
                [met.exy, met.eyy, 0.0],
                [0.0, 0.0, 2.0],
            ]
        )
        cols = [fd_pushforward(_splitting, q, e) for e in np.eye(3)]
        pulled = balanced_gram(_splitting(q), cols)
        worst = max(worst, float(np.max(np.abs(pulled - block))))
    return ClaimReport(
        "product-splitting",
        "the splitting map onto (slice) x (center) pulls the metric back to the product metric",
        "pass" if worst <= tol else "fail",
        {"max_pullback_defect": worst},
        tol,
    )


def _check_circle_action(tol, rng):
    worst_iso = 0.0
    worst_zeta = 0.0
    worst_center = 0.0
    frame = np.eye(3)
    for _ in range(60):
        q = rng.uniform(-3.0, 3.0, size=3)
        ang = rng.uniform(0.0, 2.0 * math.pi)

        def rotate(qq):
            return sf.circle_action(ang, GroupElement(*qq))

        pushed = [fd_pushforward(rotate, q, e) for e in frame]
        defect = balanced_gram(rotate(q), pushed) - balanced_gram(GroupElement(*q), frame)
        worst_iso = max(worst_iso, float(np.max(np.abs(defect))))
    for _ in range(40):
        x, y = rng.uniform(-4.0, 4.0, size=2)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        g = sf.SurfacePoint(x, y).to_group()
        img = sf.circle_action(ang, g)
        worst_zeta = max(worst_zeta, abs(img.z - img.x * img.y / 2.0))
        gc = GroupElement(0.0, 0.0, rng.uniform(-5.0, 5.0))
        imgc = sf.circle_action(ang, gc)
        worst_center = max(
            worst_center, abs(imgc.x), abs(imgc.y), abs(imgc.z - gc.z)
        )
    ok = worst_iso <= tol and worst_zeta == 0.0 and worst_center == 0.0
    return ClaimReport(
        "circle-action-isometry",
        "the circle action is isometric, preserves the slice, and fixes the center pointwise",
        "pass" if ok else "fail",
        {
            "max_isometry_defect": worst_iso,
            "max_slice_drift": worst_zeta,
            "max_center_motion": worst_center,
        },
        tol,
    )


def _check_radial_geodesics(tol_residual, tol_distance):
    worst_res = 0.0
    worst_dist = 0.0
    for ang in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
        vdir = np.array(
            [(math.cos(ang) - math.sin(ang)) / 2.0, (math.sin(ang) + math.cos(ang)) / 2.0, 0.0]
        )
        for t in np.linspace(0.0, 10.0, 50):
            gp = sf.geodesic_closed_form(ang, t)
            pt = ChartPoint(gp.point.x, gp.point.y, 0.0)
            gam = christoffel_closed_form(pt)
            res = gam.apply(vdir, vdir)
            worst_res = max(worst_res, float(np.max(np.abs(res))))
            worst_dist = max(
                worst_dist, abs(sf.distance_to_identity(gp.point) - abs(t))
            )
    # closed form against the numeric integrator at t = 1
    v0 = TangentVector(ChartPoint(0.0, 0.0, 0.0), 0.5, 0.5, 0.0)
    path = integrate_geodesic(ChartPoint(0.0, 0.0, 0.0), v0, 1.0, 1000)
    end = path[-1][0]
    int_err = max(abs(end.x - 0.5), abs(end.y - 0.5), abs(end.zeta))
    ok = worst_res <= tol_residual and worst_dist <= tol_distance and int_err <= 1e-8
    return ClaimReport(
        "radial-geodesics",
        "the closed-form radial curves solve the geodesic equation and realize distance sqrt(2)|.|",
        "pass" if ok else "fail",
        {
            "max_geodesic_residual": worst_res,
            "max_distance_defect": worst_dist,
            "integrator_endpoint_error": int_err,
        },
        tol_residual,
    )


def _check_curvature(tol):
    radii = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
    worst = 0.0
    for r in radii:
        p = sf.PolarCoord(r, 0.7).to_surface_point()
        k_fd = sf.gaussian_curvature_riemann(p)
        k_w = sf.curvature_from_warp(r)
        worst = max(worst, abs(k_fd - k_w))
    origin = sf.curvature_closed_forms(sf.SurfacePoint(0.0, 0.0))
    oracle_origin = sf.gaussian_curvature_riemann(sf.SurfacePoint(0.0, 0.0))
    agree = worst <= tol
    return ClaimReport(
        "curvature-constant",
        "two independent curvature oracles agree on K(r) = -2(r^2+12)/(r^2+8)^2; "
        "the doubled closed-form candidate is inconsistent with the connection data",
        "discrepancy" if agree else "fail",
        {
            "max_oracle_disagreement": worst,
            "oracle_value_at_origin": oracle_origin,
            "consistent_candidate_at_origin": origin.k_warp,
            "doubled_candidate_at_origin": origin.k_doubled,
        },
        tol,
    )


def _check_catenoid(tol_neck, tol_curvature):
    neck_defect = max(
        abs(t0_min(c) ** 2 * (t0_min(c) ** 2 + 8.0) - c * c)
        for c in (0.1, 1.0, 3.0, 10.0, 100.0)
    )
    params = CatenoidParams(3.0, 1.0)
    sample = catenoid_sample(params, 6.0, fd_step=2e-4)
    worst_h = 0.0
    for t in np.linspace(params.t0 + 0.1, 6.0, 10):
        for phi in (0.3, 2.1):
            worst_h = max(
                worst_h, abs(mean_curvature_residual(sample, (t, phi)))
            )
    ok = neck_defect <= tol_neck and worst_h <= tol_curvature
    return ClaimReport(
        "catenoid-minimality",
        "the rotational profile with the neck condition is a minimal surface",
        "pass" if ok else "fail",
        {"neck_identity_defect": neck_defect, "max_mean_curvature": worst_h},
        tol_curvature,
    )


_DEFAULT_TOLS = {
    "totally-geodesic-slice": 1e-10,
    "product-splitting": 1e-10,
    "circle-action-isometry": 1e-8,
    "radial-geodesics": 1e-10,
    "curvature-constant": 1e-5,
    "catenoid-minimality": 1e-5,
}


def run_claim_checks(tolerance: float | None = None) -> list[ClaimReport]:
    """Run every structural claim check and return one report per claim.

    A uniform tolerance override, finite and positive, replaces the per-claim
    defaults; results are deterministic (fixed random seed, fixed sample
    layout).  The acceptance suite asserts its own pinned tolerances on the
    `values` of these reports, so this is the one implementation of each
    geometric claim.
    """
    tols = dict(_DEFAULT_TOLS)
    if tolerance is not None:
        if not (math.isfinite(tolerance) and tolerance > 0):
            raise ValueError(f"claim tolerance must be finite and positive, got {tolerance}")
        tols = {k: float(tolerance) for k in tols}
    rng = np.random.default_rng(20240817)
    return [
        _check_totally_geodesic(tols["totally-geodesic-slice"], 1e-8, rng),
        _check_splitting(tols["product-splitting"], rng),
        _check_circle_action(tols["circle-action-isometry"], rng),
        _check_radial_geodesics(tols["radial-geodesics"], 1e-12),
        _check_curvature(tols["curvature-constant"]),
        _check_catenoid(1e-10, tols["catenoid-minimality"]),
    ]


def claims_table(reports) -> str:
    lines = []
    wid = max(len(r.claim_id) for r in reports)
    for r in reports:
        vals = ", ".join(f"{k}={v:.3e}" for k, v in r.values.items())
        lines.append(
            f"{r.claim_id:<{wid}}  {r.verdict.upper():<11}  tol={r.tolerance:.1e}  {vals}"
        )
    return "\n".join(lines)


def claims_to_json(reports) -> str:
    payload = [
        {
            "id": r.claim_id,
            "locus": r.statement,
            "verdict": r.verdict,
            "values": r.values,
            "tolerance": r.tolerance,
        }
        for r in reports
    ]
    return json.dumps(payload, indent=2, sort_keys=True)
