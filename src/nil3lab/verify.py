"""Independent 3-D oracles and the consolidated claim report.

`mean_curvature_residual` measures the mean curvature of any parametrized
surface through the ambient connection and the exact jet of the
parametrization only; it deliberately never touches the 2-D graph-operator
code, so solver output can be validated against it without circularity.

`run_claim_checks` re-verifies the structural claims about the geometry
(totally geodesic slice, product splitting, circle-action isometry, radial
geodesics and the distance formula, the curvature profile, catenoid
minimality) and emits one report entry per claim.  The slice check reads
|II| and `max_zeta_drift`, the second-order zeta-displacement of
slice-tangent geodesics, from the Koszul oracle's Gamma^Z.  The slice,
splitting, circle-action, radial-geodesic, curvature and catenoid checks
each take all their sample points in one array, and `balanced_gram` evaluates
`nilcore.balanced_metric_form`, the defining construction of the metric, in
one batched product.  "discrepancy" is a first-class verdict distinct from
"fail": it marks the curvature constant whose doubled closed-form candidate
is inconsistent with the connection data, as established by two agreeing
independent oracles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .nilcore import (
    ChartPoint,
    GroupElement,
    TangentVector,
    balanced_metric_form,
    christoffel_closed_form,
    christoffel_from_metric,
    integrate_geodesic,
    metric_closed_form,
)
from . import surface as sf
from .radial import CatenoidParams, FluxGraph, t0_min
from .solver import _cyclic_reduction

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

    jet takes broadcastable arrays u and v (or two floats) and returns the
    chart point and its derivatives d_u, d_v, d_uu, d_uv and d_vv, six
    (..., 3) arrays of the broadcast shape, so one call samples any set of
    parameter points.  u_grid/v_grid are the sample parameters (used by mesh
    export and batch residual sweeps); periodic_v marks a closed v-direction
    (seam identified on export).
    """

    jet: "callable"
    u_grid: np.ndarray
    v_grid: np.ndarray
    periodic_v: bool = False

    def points(self, u, v) -> np.ndarray:
        """The chart point at the broadcast parameters (u, v) as one (..., 3) array."""
        return self.jet(u, v)[0]


def _jet(*derivs) -> tuple:
    """Six (x, y, zeta) triples of floats or arrays, broadcast into six (..., 3) arrays."""
    out = np.empty((6, *np.broadcast_shapes(*(np.shape(c) for d in derivs for c in d)), 3))
    for k, d in enumerate(derivs):
        for i, c in enumerate(d):
            out[k, ..., i] = c
    return tuple(out)


def _polar_graph_jet(r, theta, zeta) -> tuple:
    """Jet of the graph (r, theta) -> (polar point, zeta), given the six derivatives of zeta."""
    return _jet(*((p.x, p.y, z) for p, z in zip(sf.PolarCoord(r, theta).jet(), zeta)))


def mean_curvature_residual(surf: SurfaceSample, at):
    """Mean curvature of the patch at the parameter points at, (2,) or (..., 2).

    Returns a float for one point (u, v), an array of shape (...) otherwise.
    Tangents and second derivatives are the patch's jet at the points, read
    in one call (with floats for one point, so a jet for one point at a time
    serves); covariant derivatives come from the closed-form connection, and
    the unit normal from the coordinate cross product paired with the
    inverse metric.  Raises DegenerateImmersionError if the first
    fundamental form is degenerate (det <= 1e-10, or nan) at any point.
    """
    u0, v0 = np.moveaxis(np.asarray(at, dtype=float), -1, 0)  # floats for one point
    p00, tan_u, tan_v, duu, duv, dvv = surf.jet(u0, v0)

    pt = ChartPoint(p00[..., 0], p00[..., 1], p00[..., 2])
    gm = metric_closed_form(pt).matrix()
    gam = christoffel_closed_form(pt).gamma

    e1 = np.einsum("...i,...ij,...j->...", tan_u, gm, tan_u)
    f1 = np.einsum("...i,...ij,...j->...", tan_u, gm, tan_v)
    g1 = np.einsum("...i,...ij,...j->...", tan_v, gm, tan_v)
    det = e1 * g1 - f1 * f1
    if not np.all(det > 1e-10):  # nan where a jet is infinite
        raise DegenerateImmersionError(
            f"first fundamental form degenerate: det={np.min(det):.3g}"
        )

    cov_uu = duu + np.einsum("...kij,...i,...j->...k", gam, tan_u, tan_u)
    cov_uv = duv + np.einsum("...kij,...i,...j->...k", gam, tan_u, tan_v)
    cov_vv = dvv + np.einsum("...kij,...i,...j->...k", gam, tan_v, tan_v)

    # covector annihilating both tangents, normalized through the inverse metric
    alpha = np.cross(tan_u, tan_v)
    nn = np.einsum("...i,...i->...", alpha, np.linalg.solve(gm, alpha[..., None])[..., 0])
    scale = np.sqrt(nn)
    ii_uu = np.einsum("...k,...k->...", cov_uu, alpha) / scale
    ii_uv = np.einsum("...k,...k->...", cov_uv, alpha) / scale
    ii_vv = np.einsum("...k,...k->...", cov_vv, alpha) / scale

    h = (e1 * ii_vv - 2.0 * f1 * ii_uv + g1 * ii_uu) / (2.0 * det)
    return float(h) if h.ndim == 0 else h


def graph_embed(u: np.ndarray, grid) -> SurfaceSample:
    """Embed a solver field (fiber arc-length units) as a graph patch.

    Heights convert to chart zeta offsets by `CenterElement.from_arc_length`.
    The interpolant is trigonometric in theta (the heights' rfft modes, so
    it is periodic and d_theta multiplies mode k by ik) and, for each mode,
    the natural cubic spline in r, which is C^2; `solver._cyclic_reduction`
    factors its symmetric, strictly diagonally dominant tridiagonal system.
    The jet reads the interpolant's exact derivatives.  A field that does
    not match grid.shape or is not finite raises ValueError, and so does a
    point whose r lies outside [grid.r[0], grid.r[-1]].
    """
    u = np.asarray(u, dtype=float)
    if u.shape != grid.shape:
        raise ValueError(f"field of shape {u.shape} does not match the grid shape {grid.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("field values must be finite")
    r, m = grid.r, len(grid.theta)
    # height = Re sum_k modes_k exp(ik theta), theta_j = 2 pi j / m; modes 0 and m/2 count once
    freq = np.arange(m // 2 + 1)
    ik = 1j * freq
    weight = np.where((freq == 0) | (2 * freq == m), 1.0, 2.0) / m
    modes = np.fft.rfft(sf.CenterElement.from_arc_length(u).t, axis=1) * weight
    h = np.diff(r)[:, None]
    slopes = np.diff(modes, axis=0) / h
    bends = np.zeros_like(modes)  # second r-derivatives at the nodes, 0 at both ends
    bends[1:-1] = _cyclic_reduction(h[1:-1], 2.0 * (h[:-1] + h[1:]), h[1:-1])(
        6.0 * np.diff(slopes, axis=0))

    def jet(rr, tt):
        outside = np.asarray(rr)[~((rr >= r[0]) & (rr <= r[-1]))]
        if outside.size:
            raise ValueError(f"radius {outside[0]} lies outside the grid's [{r[0]}, {r[-1]}]")
        k = np.minimum(np.searchsorted(r, rr, side="right") - 1, len(r) - 2)
        b = (np.asarray(rr, dtype=float) - r[k])[..., None] / h[k]
        a, lo, hi = 1.0 - b, bends[k], bends[k + 1]
        wave = np.exp(ik * np.asarray(tt, dtype=float)[..., None])
        value, d_r, d_rr = (c * wave for c in (
            a * modes[k] + b * modes[k + 1] + ((a**3 - a) * lo + (b**3 - b) * hi) * h[k] ** 2 / 6.0,
            slopes[k] + ((1.0 - 3.0 * a * a) * lo + (3.0 * b * b - 1.0) * hi) * h[k] / 6.0,
            a * lo + b * hi))
        derivs = (value, d_r, ik * value, d_rr, ik * d_r, ik * ik * value)
        return _polar_graph_jet(rr, tt, [np.sum(d, axis=-1).real for d in derivs])

    return SurfaceSample(jet, r.copy(), grid.theta.copy(), periodic_v=True)


def slice_sample(extent: float = 3.0, n: int = 10, n_v: int | None = None) -> SurfaceSample:
    """The flat slice zeta = 0 over [-extent, extent]^2, n samples in u and n_v (default n) in v."""
    grid = np.linspace(-extent, extent, n)
    v_grid = np.linspace(-extent, extent, n if n_v is None else n_v)
    return SurfaceSample(lambda uu, vv: _jet((uu, vv, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                             *[(0.0, 0.0, 0.0)] * 3), grid, v_grid)


def catenoid_sample(
    params: CatenoidParams,
    tmax: float,
    n_t: int = 40,
    n_theta: int = 64,
    tol: float = 1e-13,
) -> SurfaceSample:
    """Surface of rotation of the catenoid profile, parametrized by (t, angle).

    The n_t >= 2 rings run from the neck t0 to tmax > t0.  Every height is a
    function of its own t, whatever else one jet call samples, and its
    derivatives are exact; a parameter below the neck raises ValueError.
    """
    t_grid = np.linspace(params.t0, tmax, n_t)
    th_grid = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    # ring heights come from one cumulative profile pass, each off-ring t from its own quadrature
    graph, arc_tol = FluxGraph.catenoid(params), sf.CenterElement(tol).arc_length
    rings = graph.profile(t_grid, arc_tol).value
    heights = dict(zip(t_grid.tolist(), sf.CenterElement.from_arc_length(rings).t.tolist()))

    def height(tt):
        ts = np.asarray(tt, dtype=float)
        flat = ts.ravel().tolist()
        for t in set(flat).difference(heights):
            heights[t] = float(sf.CenterElement.from_arc_length(graph.heights([t], arc_tol)[0]).t)
        return np.array([heights[t] for t in flat]).reshape(ts.shape)

    def jet(tt, phi):
        zeta, slope = height(tt), graph.slopes(tt)
        bend = -slope * (1.0 + slope * slope) * sf.geodesic_circle_curvature(tt)  # flux' = 0
        d_t, d_tt = sf.CenterElement.from_arc_length(np.array([slope, bend])).t
        return _polar_graph_jet(tt, phi, (zeta, d_t, 0.0, d_tt, 0.0, 0.0))

    return SurfaceSample(jet, t_grid, th_grid, periodic_v=True)


@dataclass
class ClaimReport:
    """One verified claim: identifier, statement, verdict, measured values, tolerance.

    The values and the tolerance are stored as plain Python floats.
    """

    claim_id: str
    statement: str
    verdict: str  # "pass" | "fail" | "discrepancy"
    values: dict
    tolerance: float

    def __post_init__(self):
        self.values = {k: float(v) for k, v in self.values.items()}
        self.tolerance = float(self.tolerance)


def fd_pushforward(fn, q, vels) -> np.ndarray:
    """Differential of a map R^3 -> Nil3 at the points q along each row of vels.

    fn takes an (..., 3) array of coordinates and returns a GroupElement with
    coordinates of shape (...); q is (..., 3) and vels (k, 3).  Central
    differences of step 1e-3, one pair of map evaluations per direction.
    Returns the matrix velocities (dx, dy, dz) of the image curves, shape
    (..., k, 3).
    """
    q = np.asarray(q, dtype=float)
    h = 1e-3
    cols = []
    for vel in np.asarray(vels, dtype=float):
        gp = fn(q + h * vel)
        gm = fn(q - h * vel)
        cols.append(np.stack([gp.x - gm.x, gp.y - gm.y, gp.z - gm.z], axis=-1) / (2.0 * h))
    return np.stack(cols, axis=-2)


def balanced_gram(g: GroupElement, vels) -> np.ndarray:
    """Gram matrices of matrix velocities at g under the balanced metric.

    vels (..., k, 3) holds k velocities at each point of g, or one (k, 3)
    set for every point; the result is (..., k, k), one batched product with
    `balanced_metric_form`.
    """
    vels = np.asarray(vels, dtype=float)
    return vels @ balanced_metric_form(g) @ np.swapaxes(vels, -1, -2)


def _check_totally_geodesic(tol_ii, tol_zeta, rng):
    """|II| of the slice and the second-order zeta-displacement of its tangent geodesics.

    Both read Gamma^Z from the Koszul oracle.  The displacement is
    T^2/2 max |Gamma^Z_ij v^i v^j| over v = (cos a, sin a, 0)/sqrt(2), a = k pi/4,
    T = 10, at 100 points off the identity, whose radial geodesics
    (one-parameter subgroups) stay in the slice under any left-invariant metric.
    """
    x, y = rng.uniform(-4.0, 4.0, size=(100, 2)).T
    points = sf.SurfacePoint(x, y)
    gamma = christoffel_from_metric(points.to_chart()).gamma  # one oracle call for both values
    worst_ii = np.max(np.abs(sf.second_fundamental_form_slice(points, gamma)))
    ang = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    vel = np.stack([np.cos(ang), np.sin(ang)], axis=-1) / sf.SQRT2
    gam_z = gamma[:, 2, :2, :2]
    worst_zeta = 0.5 * 10.0**2 * np.max(np.abs(np.einsum("pij,ai,aj->pa", gam_z, vel, vel)))
    ok = worst_ii <= tol_ii and worst_zeta <= tol_zeta
    return ClaimReport(
        "totally-geodesic-slice",
        "the slice zeta = 0 has vanishing second fundamental form and traps tangent geodesics",
        "pass" if ok else "fail",
        {"max_second_fundamental_form": worst_ii, "max_zeta_drift": worst_zeta},
        tol_ii,
    )


def _splitting(q) -> GroupElement:
    return sf.splitting_isometry(sf.SurfacePoint(q[..., 0], q[..., 1]), sf.CenterElement(q[..., 2]))


def _check_splitting(tol, rng):
    q = rng.uniform(-4.0, 4.0, size=(100, 3))
    block = metric_closed_form(ChartPoint(q[:, 0], q[:, 1], 0.0)).matrix()
    pulled = balanced_gram(_splitting(q), fd_pushforward(_splitting, q, np.eye(3)))
    worst = np.max(np.abs(pulled - block))
    return ClaimReport(
        "product-splitting",
        "the splitting map onto (slice) x (center) pulls the metric back to the product metric",
        "pass" if worst <= tol else "fail",
        {"max_pullback_defect": worst},
        tol,
    )


def _check_circle_action(tol, rng):
    # the same draws, in the same order, as one sample at a time
    draws = rng.uniform([-3.0, -3.0, -3.0, 0.0], [3.0, 3.0, 3.0, 2.0 * math.pi], size=(60, 4))
    q, ang = draws[:, :3], draws[:, 3]
    frame = np.eye(3)

    def rotate(qq):
        return sf.circle_action(ang, GroupElement(*np.moveaxis(qq, -1, 0)))

    defect = (balanced_gram(rotate(q), fd_pushforward(rotate, q, frame))
              - balanced_gram(GroupElement(*q.T), frame))
    worst_iso = np.max(np.abs(defect))

    x, y, ang, zc = rng.uniform([-4.0, -4.0, 0.0, -5.0], [4.0, 4.0, 2.0 * math.pi, 5.0],
                                size=(40, 4)).T
    img = sf.circle_action(ang, sf.SurfacePoint(x, y).to_group())
    worst_zeta = np.max(np.abs(img.to_chart().zeta))
    imgc = sf.circle_action(ang, GroupElement(0.0, 0.0, zc))
    worst_center = np.max(np.abs([imgc.x, imgc.y, imgc.z - zc]))
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
    ang = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)[:, None]
    t = np.linspace(0.0, 10.0, 50)
    unit = sf.geodesic_closed_form(ang, 1.0).point  # the velocity: the curves are linear in t
    vdir = np.stack(np.broadcast_arrays(unit.x, unit.y, 0.0), axis=-1)
    gp = sf.geodesic_closed_form(ang, t)
    gam = christoffel_closed_form(ChartPoint(gp.point.x, gp.point.y, 0.0))
    worst_res = np.max(np.abs(gam.apply(vdir, vdir)))
    worst_dist = np.max(np.abs(sf.distance_to_identity(gp.point) - np.abs(t)))
    # closed form against the numeric integrator at t = 1
    v0 = TangentVector(ChartPoint(0.0, 0.0, 0.0), 0.5, 0.5, 0.0)
    path = integrate_geodesic(ChartPoint(0.0, 0.0, 0.0), v0, 1.0, 1000)
    x, y, zeta = path[-1, :3]
    int_err = max(abs(x - 0.5), abs(y - 0.5), abs(zeta))
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
    radii = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    k_fd = sf.gaussian_curvature_riemann(sf.PolarCoord(radii, 0.7).to_surface_point())
    worst = np.max(np.abs(k_fd - sf.curvature_from_warp(radii)))
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
    sample = catenoid_sample(params, 6.0)
    t, phi = np.meshgrid(np.linspace(params.t0 + 0.1, 6.0, 10), (0.3, 2.1), indexing="ij")
    worst_h = np.max(np.abs(mean_curvature_residual(sample, np.stack([t, phi], axis=-1))))
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

    A uniform tolerance override, finite and positive, replaces each claim's
    primary bound (its reported `tolerance`).  The secondary bounds stay
    fixed: zeta drift 1e-8, distance defect 1e-12, catenoid neck identity
    1e-10 and integrator endpoint error 1e-8.  The zeta drift is a second-order
    displacement from the Koszul oracle's Gamma^Z, not an integration.  Results are
    deterministic (fixed random seed, fixed sample layout).  The acceptance
    suite asserts its own pinned tolerances on the `values` of these
    reports, so this is the one implementation of each geometric claim.
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
