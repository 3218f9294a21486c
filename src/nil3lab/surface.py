"""The totally geodesic slice {zeta = 0} as a rotationally symmetric model surface.

Provides geodesic polar coordinates on the slice, the closed-form radial
geodesics and distance, the isometric circle action, the product splitting
onto (slice) x (center line), the warp function g(r) of the induced metric
dr^2 + g(r)^2 dtheta^2, and two independent curvature computations.

Each convention of the splitting has one home: the graph chart zeta = z - xy/2
in `nilcore.ChartPoint`/`GroupElement`, the polar map (x, y) = r/sqrt(2) (cos, sin)
and its jet in `PolarCoord`, and the sqrt(2) arc-length factor of center heights
(<Z, Z> = 2), in which the solver stores heights, in `CenterElement`.  The point
maps, `PolarCoord` and `second_fundamental_form_slice` broadcast over numpy arrays.
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
        return self.to_chart().to_group()


@dataclass(frozen=True)
class PolarCoord:
    """Geodesic polar coordinates, floats or broadcastable arrays: r >= 0 is the
    distance to the identity, theta_pol the plane polar angle atan2(y, x)."""

    r: float
    theta_pol: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.r) & (np.asarray(self.r) >= 0)):
            raise ValueError("polar radius must be finite and nonnegative")

    def to_surface_point(self) -> SurfacePoint:
        rho = self.r / SQRT2
        return SurfacePoint(rho * np.cos(self.theta_pol), rho * np.sin(self.theta_pol))

    def jet(self) -> tuple[SurfacePoint, ...]:
        """The point, d_r (the point at r = 1), d_theta, d_rr, d_rtheta and d_thetatheta."""
        p, d_r = self.to_surface_point(), PolarCoord(1.0, self.theta_pol).to_surface_point()
        return (p, d_r, SurfacePoint(-p.y, p.x), SurfacePoint(0.0, 0.0),
                SurfacePoint(-d_r.y, d_r.x), SurfacePoint(-p.x, -p.y))

    @staticmethod
    def from_surface_point(p: SurfacePoint) -> "PolarCoord":
        return PolarCoord(distance_to_identity(p), np.arctan2(p.y, p.x) % (2.0 * math.pi))


@dataclass(frozen=True)
class CenterElement:
    """Element (0, 0, t) of the center line; its arc length from e is sqrt(2)*|t|."""

    t: float

    @property
    def arc_length(self) -> float:
        return SQRT2 * self.t

    @classmethod
    def from_arc_length(cls, s) -> "CenterElement":
        """The element at signed arc length s (a float or an array) from e."""
        return cls(s / SQRT2)

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
    p = SurfacePoint(0.5 * t * (np.cos(theta) - np.sin(theta)),
                     0.5 * t * (np.sin(theta) + np.cos(theta)))
    return GeodesicPoint(p, p.to_group().z)


def distance_to_identity(p: SurfacePoint):
    """Geodesic distance from p to the identity: sqrt(2) * sqrt(x^2 + y^2)."""
    return SQRT2 * np.hypot(p.x, p.y)


def circle_action(theta: float, g: GroupElement) -> GroupElement:
    """Isometric circle action: rotate (x, y) at fixed chart height zeta.

    Leaves the slice invariant (zeta is preserved bit for bit), fixes the
    center line pointwise, and satisfies the action law
    A(t1, A(t2, g)) = A(t1 + t2, g).
    """
    q = g.to_chart()
    c, s = np.cos(theta), np.sin(theta)
    return ChartPoint(q.x * c - q.y * s, q.x * s + q.y * c, q.zeta).to_group()


def splitting_isometry(p: SurfacePoint, c: CenterElement) -> GroupElement:
    """The product-to-group isometry (p, t) -> (x, y, xy/2 + t)."""
    return ChartPoint(p.x, p.y, c.t).to_group()


def splitting_isometry_inverse(g: GroupElement) -> tuple[SurfacePoint, CenterElement]:
    q = g.to_chart()
    return SurfacePoint(q.x, q.y), CenterElement(q.zeta)


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
    """Inward curvature g'/g = (2/r)(1 - 4/(8 + r^2)) of the geodesic circle of radius r > 0.

    Formed without r^2, so that it stays finite where r^2 overflows.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("geodesic circles need r > 0")
    out = 2.0 / r * (1.0 - (2.0 / np.hypot(math.sqrt(8.0), r)) ** 2)
    return float(out) if r.ndim == 0 else out


def orbit_circumference(r: float, tol: float = 1e-12) -> float:
    """Length of the circle-action orbit through radius r, by quadrature.

    Numeric oracle for the warp: the value equals 2*pi*g(r).  The speed comes
    from the metric along the orbit and is integrated over [0, 2 pi] by the
    package's one quadrature, `radial._quadrature`.  tol is the absolute
    accuracy asked of it; QuadratureError is raised when it is below the
    float spacing of the length (r above about 60 at the default tol).
    """
    from .radial import _quadrature  # radial imports this module

    def speed(phi):  # `PolarCoord` refuses a negative or non-finite r at the first call
        p = PolarCoord(r, phi).to_surface_point()
        tang = np.stack([-p.y, p.x, np.zeros_like(p.x)], axis=-1)
        gram = metric_closed_form(p.to_chart()).matrix()
        return np.sqrt(np.einsum("...i,...ij,...j->...", tang, gram, tang))

    return float(_quadrature(speed, [0.0, 2.0 * math.pi], tol, "orbit circumference")[-1])


def gaussian_curvature_riemann(p: SurfacePoint):
    """Gaussian curvature of the slice from the curvature tensor of the frame.

    K = <R(X,Y)X, Y> / (|X|^2 |Y|^2 - <X,Y>^2) with
    R(X,Y)X = nabla_Y nabla_X X - nabla_X nabla_Y X, the coefficient
    derivatives taken by central finite differences, of step h = 1e-4, of the
    closed-form connection.  This is the curvature of record for the
    adjudication report.  Broadcasts over points: a float for one point, an
    array of shape (...) when the coordinates of p are arrays.  A point where
    h is lost to rounding (x + h == x, say) raises ValueError.
    """
    h = 1e-4
    x, y = p.x, p.y
    if np.any((x + h == x) | (x - h == x) | (y + h == y) | (y - h == y)):
        raise ValueError(f"finite-difference step h={h:g} is lost to rounding at a point with "
                         f"|x| or |y| up to {np.max(np.maximum(np.abs(x), np.abs(y))):g}")

    def coeffs(x, y, i):
        # components of nabla_{E_i} X, i = 0 for X and 1 for Y
        return christoffel_closed_form(ChartPoint(x, y, 0.0)).gamma[..., :, i, 0]

    gam = christoffel_closed_form(ChartPoint(x, y, 0.0)).gamma

    a = gam[..., :, 0, 0]  # nabla_X X components
    b = gam[..., :, 1, 0]  # nabla_Y X components
    da_dy = (coeffs(x, y + h, 0) - coeffs(x, y - h, 0)) / (2.0 * h)
    db_dx = (coeffs(x + h, y, 1) - coeffs(x - h, y, 1)) / (2.0 * h)

    # nabla_Y (nabla_X X) = (Y a^k) E_k + a^m nabla_Y E_m
    term1 = da_dy + np.einsum("...km,...m->...k", gam[..., :, 1, :], a)
    # nabla_X (nabla_Y X) = (X b^k) E_k + b^m nabla_X E_m
    term2 = db_dx + np.einsum("...km,...m->...k", gam[..., :, 0, :], b)
    rvec = term1 - term2

    met = metric_closed_form(ChartPoint(x, y, 0.0))
    num = (rvec[..., None, :] @ met.matrix())[..., 0, 1]  # <R(X,Y)X, Y>
    k = num / (met.exx * met.eyy - met.exy * met.exy)
    return float(k) if np.ndim(k) == 0 else k


def curvature_from_warp(r):
    """K(r) = -g''(r)/g(r) in closed form: -2 (r^2 + 12) / (r^2 + 8)^2.

    Formed as -(q/4)(1 + q/2) with q = 8 / (r^2 + 8), without r^2, so that it
    stays finite where r^2 overflows; q is exactly 1 at r = 0.
    """
    r = np.asarray(r, dtype=float)
    q = (math.sqrt(8.0) / np.hypot(math.sqrt(8.0), r)) ** 2
    out = -0.25 * q * (1.0 + 0.5 * q)
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


def second_fundamental_form_slice(p: SurfacePoint, gamma=None) -> np.ndarray:
    """Second fundamental form of the slice on {X, Y}: (2, 2), or (..., 2, 2).

    II_ij = Gamma^Z_ij / sqrt(g^ZZ): the unit normal of {zeta = 0} is
    grad(zeta) / |grad(zeta)|, with Gamma from the Koszul oracle
    `christoffel_from_metric` and g^ZZ from the inverse of
    `frame_metric_from_translations`.  So it measures the defining
    construction of the metric, and vanishes exactly when the slice is
    totally geodesic.  A caller that already holds the oracle's symbols
    at p, `christoffel_from_metric(p.to_chart()).gamma`, passes them as
    gamma so that they are not evaluated twice.
    """
    q = p.to_chart()
    if gamma is None:
        gamma = christoffel_from_metric(q).gamma
    gzz = np.linalg.inv(frame_metric_from_translations(q))[..., 2, 2]
    return gamma[..., 2, :2, :2] / np.sqrt(gzz)[..., None, None]
