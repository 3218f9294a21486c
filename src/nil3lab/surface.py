"""The totally geodesic slice {zeta = 0} as a rotationally symmetric model surface.

Provides geodesic polar coordinates on the slice, the closed-form radial
geodesics and distance, the isometric circle action, the product splitting
onto (slice) x (center line), the warp function g(r) of the induced metric
dr^2 + g(r)^2 dtheta^2, and two independent curvature computations.

Convention: heights along the center line carry a sqrt(2) arc-length factor
(<Z, Z> = 2).  Solver modules store heights in arc-length units and convert
to matrix z-offsets only at export time.
The point maps and `second_fundamental_form_slice` broadcast over points
whose coordinates are numpy arrays.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .nilcore import (
    ChartPoint,
    GroupElement,
    christoffel_closed_form,
    christoffel_from_metric,
    frame_metric_from_translations,
    metric_closed_form,
)

SQRT2 = math.sqrt(2.0)

__all__ = [
    "SurfacePoint",
    "PolarCoord",
    "CenterElement",
    "BoundaryData",
    "GeodesicPoint",
    "CurvatureCandidates",
    "geodesic_closed_form",
    "distance_to_identity",
    "circle_action",
    "splitting_isometry",
    "splitting_isometry_inverse",
    "warp_g",
    "conformal_radius",
    "geodesic_circle_curvature",
    "orbit_circumference",
    "gaussian_curvature_riemann",
    "curvature_from_warp",
    "curvature_closed_forms",
    "second_fundamental_form_slice",
]


@dataclass(frozen=True)
class SurfacePoint:
    """Point of the slice in chart coordinates (zeta = 0)."""

    x: float
    y: float

    def to_chart(self) -> ChartPoint:
        return ChartPoint(self.x, self.y, 0.0)

    def to_group(self) -> GroupElement:
        return GroupElement(self.x, self.y, self.x * self.y / 2.0)


@dataclass(frozen=True)
class PolarCoord:
    """Geodesic polar coordinates: r is the distance to the identity,
    theta_pol the plane polar angle atan2(y, x)."""

    r: float
    theta_pol: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r >= 0):
            raise ValueError("polar radius must be finite and nonnegative")

    def to_surface_point(self) -> SurfacePoint:
        rho = self.r / SQRT2
        return SurfacePoint(rho * math.cos(self.theta_pol), rho * math.sin(self.theta_pol))

    @staticmethod
    def from_surface_point(p: SurfacePoint) -> "PolarCoord":
        return PolarCoord(distance_to_identity(p), math.atan2(p.y, p.x) % (2.0 * math.pi))


@dataclass(frozen=True)
class CenterElement:
    """Element (0, 0, t) of the center line; its arc length from e is sqrt(2)*|t|."""

    t: float

    @property
    def arc_length(self) -> float:
        return SQRT2 * self.t

    def to_group(self) -> GroupElement:
        return GroupElement(0.0, 0.0, self.t)


class BoundaryData:
    """Continuous 2*pi-periodic boundary values theta -> phi(theta)."""

    def __init__(self, fn):
        self._fn = fn

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.asarray(self._fn(theta), dtype=float)
        return np.broadcast_to(out, theta.shape).copy() if out.shape != theta.shape else out

    @classmethod
    def constant(cls, c: float) -> "BoundaryData":
        c = float(c)
        return cls(lambda th: np.full_like(np.asarray(th, dtype=float), c))

    @classmethod
    def cosine(cls, amplitude: float = 1.0, mode: int = 1, phase: float = 0.0) -> "BoundaryData":
        return cls(lambda th: amplitude * np.cos(mode * np.asarray(th, dtype=float) - phase))


GeodesicPoint = namedtuple("GeodesicPoint", ["point", "z"])


def geodesic_closed_form(theta: float, t: float) -> GeodesicPoint:
    """Unit-speed radial geodesic through the identity, launch parameter theta.

    Returns the slice point together with its matrix z entry (= xy/2, the
    curve stays in the slice).  Note the launch direction
    (cos(theta) - sin(theta), sin(theta) + cos(theta))/sqrt(2) has plane polar
    angle theta + pi/4, so the launch parameter and PolarCoord.theta_pol are
    offset by pi/4.
    """
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(t))):
        raise ValueError("geodesic launch parameter and time must be finite")
    x = 0.5 * t * (np.cos(theta) - np.sin(theta))
    y = 0.5 * t * (np.sin(theta) + np.cos(theta))
    return GeodesicPoint(SurfacePoint(x, y), x * y / 2.0)


def distance_to_identity(p: SurfacePoint):
    """Geodesic distance from p to the identity: sqrt(2) * sqrt(x^2 + y^2)."""
    return SQRT2 * np.hypot(p.x, p.y)


def circle_action(theta: float, g: GroupElement) -> GroupElement:
    """Isometric circle action: rotate (x, y) at fixed chart height zeta.

    Leaves the slice invariant (zeta is preserved bit for bit), fixes the
    center line pointwise, and satisfies the action law
    A(t1, A(t2, g)) = A(t1 + t2, g).
    """
    c, s = np.cos(theta), np.sin(theta)
    x2 = g.x * c - g.y * s
    y2 = g.x * s + g.y * c
    zeta = g.z - g.x * g.y / 2.0
    return GroupElement(x2, y2, x2 * y2 / 2.0 + zeta)


def splitting_isometry(p: SurfacePoint, c: CenterElement) -> GroupElement:
    """The product-to-group isometry (p, t) -> (x, y, xy/2 + t)."""
    return GroupElement(p.x, p.y, p.x * p.y / 2.0 + c.t)


def splitting_isometry_inverse(g: GroupElement) -> tuple[SurfacePoint, CenterElement]:
    return SurfacePoint(g.x, g.y), CenterElement(g.z - g.x * g.y / 2.0)


def warp_g(r):
    """Warp function g(r) = sqrt(r^2 + r^4/8) of the slice metric dr^2 + g(r)^2 dtheta^2.

    g(0) = 0 and g'(0) = 1.  Accepts scalars or arrays; negative radii are
    rejected.  The closed forms `geodesic_circle_curvature` (g'/g) and
    `curvature_from_warp` (-g''/g) are derived from this g.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("warp radius must be nonnegative")
    g = r * np.sqrt(1.0 + r * r / 8.0)
    return float(g) if r.ndim == 0 else g


def conformal_radius(r):
    """Conformal radius rho(r) = r / (sqrt(8) + sqrt(8 + r^2)) of the slice.

    d(log rho)/dr = 1/g, so the slice metric is (g/rho)^2 (drho^2 + rho^2
    dtheta^2): rho maps the slice conformally onto the unit disk, and a
    function harmonic in the flat polar coordinates (rho, theta) is harmonic
    on the slice.  Accepts scalars or arrays of finite r >= 0.
    """
    x = np.asarray(r, dtype=float)
    if not np.all((x >= 0) & np.isfinite(x)):
        raise ValueError("radius must be finite and nonnegative")
    out = x / (math.sqrt(8.0) + np.hypot(math.sqrt(8.0), x))
    return float(out) if x.ndim == 0 else out


def geodesic_circle_curvature(r):
    """Inward curvature g'(r)/g(r) of the geodesic circle of radius r > 0."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("geodesic circles need r > 0")
    out = 2.0 * (4.0 + r * r) / (r * (8.0 + r * r))
    return float(out) if r.ndim == 0 else out


def orbit_circumference(r: float, tol: float = 1e-12) -> float:
    """Length of the circle-action orbit through radius r, by quadrature.

    Numeric oracle for the warp: the value equals 2*pi*g(r).  tol is the
    absolute accuracy asked of the quadrature; QuadratureError is raised when
    it is below the float spacing of the length (r above about 60 at the
    default tol).
    """
    from .radial import _quad_checked  # radial imports this module

    if r < 0:
        raise ValueError("orbit radius must be nonnegative")
    rho = r / SQRT2

    def speed(phi):
        p = ChartPoint(rho * math.cos(phi), rho * math.sin(phi), 0.0)
        tang = np.array([-rho * math.sin(phi), rho * math.cos(phi), 0.0])
        return math.sqrt(metric_closed_form(p).inner(tang, tang))

    return _quad_checked(speed, 0.0, 2.0 * math.pi, tol, "orbit circumference")


def gaussian_curvature_riemann(p: SurfacePoint, h: float = 1e-4) -> float:
    """Gaussian curvature of the slice from the curvature tensor of the frame.

    K = <R(X,Y)X, Y> / (|X|^2 |Y|^2 - <X,Y>^2) with
    R(X,Y)X = nabla_Y nabla_X X - nabla_X nabla_Y X, the coefficient
    derivatives taken by central finite differences of the closed-form
    connection.  This is the curvature of record for the adjudication report.
    """
    if h <= 0:
        raise ValueError("finite-difference step h must be positive")

    def coeffs_xx(x, y):
        return christoffel_closed_form(ChartPoint(x, y, 0.0)).gamma[:, 0, 0]

    def coeffs_yx(x, y):
        return christoffel_closed_form(ChartPoint(x, y, 0.0)).gamma[:, 1, 0]

    x, y = p.x, p.y
    gam = christoffel_closed_form(ChartPoint(x, y, 0.0)).gamma

    a = coeffs_xx(x, y)  # nabla_X X components
    b = coeffs_yx(x, y)  # nabla_Y X components
    da_dy = (coeffs_xx(x, y + h) - coeffs_xx(x, y - h)) / (2.0 * h)
    db_dx = (coeffs_yx(x + h, y) - coeffs_yx(x - h, y)) / (2.0 * h)

    # nabla_Y (nabla_X X) = (Y a^k) E_k + a^m nabla_Y E_m
    term1 = da_dy + np.einsum("km,m->k", gam[:, 1, :], a)
    # nabla_X (nabla_Y X) = (X b^k) E_k + b^m nabla_X E_m
    term2 = db_dx + np.einsum("km,m->k", gam[:, 0, :], b)
    rvec = term1 - term2

    met = metric_closed_form(ChartPoint(x, y, 0.0))
    ecoef, fcoef, gcoef = met.exx, met.exy, met.eyy
    num = met.inner(rvec, np.array([0.0, 1.0, 0.0]))
    den = ecoef * gcoef - fcoef * fcoef
    return float(num / den)


def curvature_from_warp(r):
    """K(r) = -g''(r)/g(r) in closed form: -2 (r^2 + 12) / (r^2 + 8)^2."""
    r = np.asarray(r, dtype=float)
    out = -2.0 * (r * r + 12.0) / (r * r + 8.0) ** 2
    return float(out) if r.ndim == 0 else out


CurvatureCandidates = namedtuple("CurvatureCandidates", ["k_doubled", "k_warp"])


def curvature_closed_forms(p: SurfacePoint) -> CurvatureCandidates:
    """Both closed-form curvature candidates at p, for the adjudication report.

    k_warp = -g''/g, `curvature_from_warp` at the distance of p to the
    identity, agrees with the independent oracles (`gaussian_curvature_riemann`,
    orbit-length warp); k_doubled = 2 * k_warp is the competing constant and is
    kept so the discrepancy can be reported rather than silently resolved.
    """
    k_warp = curvature_from_warp(distance_to_identity(p))
    return CurvatureCandidates(2.0 * k_warp, k_warp)


def second_fundamental_form_slice(p: SurfacePoint) -> np.ndarray:
    """Second fundamental form of the slice on {X, Y}: (2, 2), or (..., 2, 2).

    II_ij = Gamma^Z_ij / sqrt(g^ZZ): the unit normal of {zeta = 0} is
    grad(zeta) / |grad(zeta)|, with Gamma from the Koszul oracle
    `christoffel_from_metric` and g^ZZ from the inverse of
    `frame_metric_from_translations`.  So it measures the defining
    construction of the metric, and vanishes exactly when the slice is
    totally geodesic.
    """
    q = p.to_chart()
    gam = christoffel_from_metric(q).gamma
    gzz = np.linalg.inv(frame_metric_from_translations(q))[..., 2, 2]
    return gam[..., 2, :2, :2] / np.sqrt(gzz)[..., None, None]
