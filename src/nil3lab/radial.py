"""One-dimensional reductions on the model surface.

Three families live here: catenoid profiles obtained by quadrature of an
integrand with an inverse-square-root endpoint singularity at the minimal
neck, the radial barrier/subsolution family used to cap exterior solutions,
and rotationally symmetric minimal graphs recovered from their flux first
integral g(r) u'/sqrt(1 + u'^2) = const.

Heights are stored in fiber arc-length units (sqrt(2) times the chart zeta
offset) except where a function explicitly returns the chart offset h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .surface import geodesic_circle_curvature, warp_g

SQRT2 = math.sqrt(2.0)

__all__ = [
    "CatenoidParams",
    "RadialProfile",
    "BarrierParams",
    "SubsolutionReport",
    "QuadratureError",
    "NoAdmissibleFluxError",
    "t0_min",
    "catenoid_height",
    "catenoid_profile",
    "catenoid_flux_check",
    "barrier_fprime",
    "barrier_f",
    "barrier_profile",
    "barrier_sup_bound",
    "barrier_ode_residual",
    "subsolution_check",
    "flux_height_difference",
    "radial_mse_solve",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class NoAdmissibleFluxError(ValueError):
    """Boundary heights exceed the maximal rotational graph over the annulus."""

    def __init__(self, requested: float, attainable: float):
        self.requested = requested
        self.attainable = attainable
        super().__init__(
            "no admissible flux: requested height difference "
            f"{requested:.6g} exceeds the maximal attainable {attainable:.6g}"
        )


def t0_min(c: float) -> float:
    """Smallest admissible neck radius for flux parameter c > 0.

    Satisfies t0_min^2 (t0_min^2 + 8) = c^2 exactly.
    """
    if c <= 0:
        raise ValueError("flux parameter c must be positive")
    return math.sqrt(math.sqrt(c * c + 16.0) - 4.0)


@dataclass(frozen=True)
class CatenoidParams:
    """Flux parameter c > 0 and neck radius t0 >= t0_min(c)."""

    c: float
    t0: float

    def __post_init__(self):
        if not math.isfinite(self.c) or self.c <= 0:
            raise ValueError("flux parameter c must be finite and positive")
        if not math.isfinite(self.t0):
            raise ValueError("neck radius t0 must be finite")
        if self.t0 < t0_min(self.c) - 1e-12:
            raise ValueError(
                f"neck radius t0={self.t0} below the admissible minimum "
                f"{t0_min(self.c):.12g}"
            )


def _quartic(s: float, c: float) -> float:
    # P(s) = s^2 (s^2 + 8) - c^2 = (s^2 - a)(s^2 + a + 8) with a = t0_min(c)^2
    return s * s * (s * s + 8.0) - c * c


def _quad_checked(fn, lo, hi, tol, ctx="quadrature"):
    val, err = quad(fn, lo, hi, epsabs=0.25 * tol, epsrel=1e-13, limit=300)
    if err > tol:
        raise QuadratureError(f"{ctx}: error estimate {err:.3g} above tol {tol:.3g}")
    return val


def catenoid_height(
    params: CatenoidParams, t: float, tol: float = 1e-10, method: str = "auto"
) -> float:
    """Chart zeta-offset h(t) of the catenoid profile at radius t >= t0.

    At the minimal neck the integrand behaves like (s - t0)^{-1/2}; the
    substitution s^2 = t0^2 + tau^2 removes the singularity, and is used
    whenever t0 is within 1e-6 of t0_min(c) (or always with
    method="substituted").  method="plain" integrates the raw integrand and
    is only valid away from the minimal neck.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    c, t0 = params.c, params.t0
    if t < t0 - 1e-12:
        raise ValueError(f"profile radius t={t} below the neck t0={t0}")
    if t <= t0:
        return 0.0
    if method not in ("auto", "substituted", "plain"):
        raise ValueError(f"unknown quadrature method {method!r}")

    pref = c / SQRT2
    singular = t0 <= t0_min(c) + 1e-6
    if method == "substituted" or (method == "auto" and singular):
        a = t0_min(c) ** 2
        delta = t0 * t0 - a  # >= 0; zero exactly at the minimal neck

        def integrand(tau):
            s2 = t0 * t0 + tau * tau
            s = math.sqrt(s2)
            return tau / (s * math.sqrt((tau * tau + delta) * (s2 + a + 8.0)))

        hi = math.sqrt(t * t - t0 * t0)
        return pref * _quad_checked(integrand, 0.0, hi, tol / max(pref, 1.0), "catenoid height")

    def integrand_plain(s):
        return 1.0 / math.sqrt(_quartic(s, c))

    return pref * _quad_checked(integrand_plain, t0, t, tol / max(pref, 1.0), "catenoid height")


def catenoid_profile(
    params: CatenoidParams, t_nodes, tol: float = 1e-10
) -> "RadialProfile":
    """Sampled catenoid profile in arc-length units with the exact derivative.

    value = sqrt(2) h(t); deriv = u'(t) = c / sqrt(P(t)) from the defining
    integrand (infinite at the minimal neck itself).
    """
    t_nodes = np.asarray(t_nodes, dtype=float)
    vals = np.array([SQRT2 * catenoid_height(params, t, tol) for t in t_nodes])
    p = np.array([_quartic(t, params.c) for t in t_nodes])
    with np.errstate(divide="ignore"):
        derivs = np.where(p > 0, params.c / np.sqrt(np.maximum(p, 0.0)), np.inf)
    return RadialProfile(t_nodes, vals, derivs, flux=params.c / (2.0 * SQRT2))


def catenoid_flux_check(params: CatenoidParams, r: float, tol: float = 1e-13) -> float:
    """Flux g(r) u'/sqrt(1 + u'^2) with u' from differencing the quadrature height.

    The derivative is a 4th-order central difference of catenoid_height, so
    this genuinely cross-checks the quadrature against the first integral;
    along an exact profile the value is constant and equals c/(2 sqrt(2))
    (= g(t0) when t0 is minimal).
    """
    c, t0 = params.c, params.t0
    if r <= t0:
        raise ValueError(f"flux check needs r > t0, got r={r}, t0={t0}")
    step = min(1e-4, (r - t0) / 8.0)
    h = lambda t: catenoid_height(params, t, tol)
    hp = (-h(r + 2 * step) + 8 * h(r + step) - 8 * h(r - step) + h(r - 2 * step)) / (
        12.0 * step
    )
    up = SQRT2 * hp
    return float(warp_g(r) * up / math.sqrt(1.0 + up * up))


@dataclass
class RadialProfile:
    """Sampled radial function: strictly increasing nodes, values, derivatives.

    Values are in fiber arc-length units.  flux carries the first-integral
    constant when the profile came from a flux solve; bc_residual the
    achieved boundary mismatch.
    """

    r: np.ndarray
    value: np.ndarray
    deriv: np.ndarray
    flux: float | None = None
    bc_residual: float = 0.0

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.value = np.asarray(self.value, dtype=float)
        self.deriv = np.asarray(self.deriv, dtype=float)
        if self.r.ndim != 1 or len(self.r) < 2:
            raise ValueError("profile needs at least two nodes")
        if np.any(np.diff(self.r) <= 0):
            raise ValueError("profile nodes must be strictly increasing")
        if self.value.shape != self.r.shape or self.deriv.shape != self.r.shape:
            raise ValueError("value/deriv arrays must match the nodes")


@dataclass(frozen=True)
class BarrierParams:
    """Boundary gradient s >= 0 and enclosing-radius offset alpha > 0."""

    s: float
    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.s) or self.s < 0:
            raise ValueError("boundary gradient s must be finite and nonnegative")
        if not math.isfinite(self.alpha) or self.alpha <= 0:
            raise ValueError("offset alpha must be finite and positive")

    @property
    def scale(self) -> float:
        """Constant making f'(0) = s: s (alpha^2 + 8) / exp(sqrt(2) alpha atan(sqrt(2) alpha / 4))."""
        a = self.alpha
        return self.s * (a * a + 8.0) / math.exp(SQRT2 * a * math.atan(SQRT2 * a / 4.0))


def barrier_fprime(params: BarrierParams, r):
    """Exact derivative f'(r) = scale * exp(sqrt(2) a atan((r+a)/(2 sqrt(2)))) / ((r+a)^2 + 8)."""
    r = np.asarray(r, dtype=float)
    w = r + params.alpha
    out = params.scale * np.exp(
        SQRT2 * params.alpha * np.arctan(w / (2.0 * SQRT2))
    ) / (w * w + 8.0)
    return float(out) if r.ndim == 0 else out


def barrier_f(params: BarrierParams, r: float, tol: float = 1e-12) -> tuple[float, float]:
    """Barrier value and derivative at r >= 0; f(0) = 0 exactly.

    Integrates the closed-form f' adaptively, splitting very long ranges so
    the slowly decaying tail does not defeat the quadrature.
    """
    if r < 0:
        raise ValueError("barrier radius must be nonnegative")
    fp = barrier_fprime(params, r)
    if r == 0 or params.s == 0:
        return 0.0, fp
    cuts = [x for x in (30.0, 1e3, 1e5) if x < r]
    return float(barrier_profile(params, [0.0, *cuts, r], tol).value[-1]), fp


def barrier_profile(params: BarrierParams, r_nodes, tol: float = 1e-12) -> RadialProfile:
    """Barrier sampled on increasing nodes (cumulative quadrature)."""
    r_nodes = np.asarray(r_nodes, dtype=float)
    vals = np.empty_like(r_nodes)
    acc = 0.0
    prev = 0.0
    for i, rr in enumerate(r_nodes):
        if rr > prev:
            acc += _quad_checked(
                lambda t: barrier_fprime(params, t), prev, rr, tol, "barrier"
            )
            prev = rr
        vals[i] = acc
    return RadialProfile(r_nodes, vals, barrier_fprime(params, r_nodes))


def barrier_sup_bound(params: BarrierParams) -> float:
    """Closed upper bound for sup f: scale * e^{sqrt(2) a pi/2} * int_0^inf dt/((t+a)^2+8)."""
    a = params.alpha
    tail = (math.pi / 2.0 - math.atan(a / (2.0 * SQRT2))) / (2.0 * SQRT2)
    return params.scale * math.exp(SQRT2 * a * math.pi / 2.0) * tail


def barrier_ode_residual(params: BarrierParams, r, step: float = 1e-3):
    """Residual f'' + f' * 2(r - alpha)/((r + alpha)^2 + 8), f'' by 4th-order differencing.

    Zero for the exact barrier (it is the equality case of the subsolution
    inequality); the differencing keeps the check independent of that
    identity.
    """
    r = np.asarray(r, dtype=float)
    fp = lambda x: barrier_fprime(params, x)
    fpp = (-fp(r + 2 * step) + 8 * fp(r + step) - 8 * fp(r - step) + fp(r - 2 * step)) / (
        12.0 * step
    )
    a = params.alpha
    out = fpp + fp(r) * 2.0 * (r - a) / ((r + a) ** 2 + 8.0)
    return float(out) if r.ndim == 0 else out


@dataclass
class SubsolutionReport:
    """Pointwise subsolution operator values and the curvature-bound margins."""

    r: np.ndarray
    operator_values: np.ndarray
    bound_margin: np.ndarray
    min_operator: float
    min_margin: float
    ok: bool


def subsolution_check(params: BarrierParams, r0: float, grid) -> SubsolutionReport:
    """Evaluate the graph operator on f(dist to the inner circle) over the grid.

    The inner domain is the geodesic disk of radius r0 centered at the
    identity, so alpha must equal r0 and the level sets of the distance are
    geodesic circles of radius r0 + r with exact curvature g'/g.  Reports the
    operator values (must be nonnegative) and the strict margin of g'/g over
    the lower curvature bound 2(r - alpha)/((r + alpha)^2 + 8).
    """
    if abs(params.alpha - r0) > 1e-12:
        raise ValueError("subsolution_check requires alpha == r0 (circular inner domain)")
    r = np.asarray(grid, dtype=float)
    if np.any(r < 0):
        raise ValueError("grid distances must be nonnegative")
    bigr = r0 + r
    fp = barrier_fprime(params, r)
    if params.s == 0:
        mop = np.zeros_like(r)
    else:
        fpp = -fp * 2.0 * (r - params.alpha) / ((r + params.alpha) ** 2 + 8.0)
        kappa = geodesic_circle_curvature(bigr)
        mop = (fpp + fp * (1.0 + fp * fp) * kappa) / (1.0 + fp * fp) ** 1.5
    margin = geodesic_circle_curvature(bigr) - 2.0 * (r - params.alpha) / (
        (r + params.alpha) ** 2 + 8.0
    )
    return SubsolutionReport(
        r=r,
        operator_values=mop,
        bound_margin=margin,
        min_operator=float(np.min(mop)),
        min_margin=float(np.min(margin)),
        ok=bool(np.min(mop) >= -1e-10 and np.min(margin) > 0),
    )


def _flux_integrand_factory(c: float, r_in: float):
    """Integrand of the height integral in the de-singularized variable xi.

    With rho = r_in + xi^2 the radial height integral becomes
    int 2 xi c / sqrt(g(rho)^2 - c^2) dxi, and g(rho)^2 - c^2 is evaluated in
    the cancellation-free split form xi^2 * A(rho) + (g(r_in)^2 - c^2), which
    stays smooth even at the extremal flux c = g(r_in).
    """
    g_in = warp_g(r_in)
    b = (g_in - c) * (g_in + c)  # g(r_in)^2 - c^2 >= 0

    def integrand(xi):
        rho = r_in + xi * xi
        a = (rho + r_in) * (1.0 + (rho * rho + r_in * r_in) / 8.0)
        return 2.0 * xi * c / math.sqrt(xi * xi * a + b)

    return integrand


def flux_height_difference(
    c: float, r_in: float, r_out: float, tol: float = 1e-12
) -> float:
    """Height gain of the radial minimal graph with flux 0 <= c <= g(r_in) over [r_in, r_out]."""
    if not 0 < r_in < r_out:
        raise ValueError("need 0 < r_in < r_out")
    g_in = warp_g(r_in)
    if not 0 <= c <= g_in:
        raise ValueError(f"flux must lie in [0, g(r_in)] = [0, {g_in:.6g}]")
    if c == 0:
        return 0.0
    integrand = _flux_integrand_factory(c, r_in)
    return _quad_checked(integrand, 0.0, math.sqrt(r_out - r_in), tol, "flux height")


def radial_mse_solve(
    r_in: float,
    r_out: float,
    u_in: float,
    u_out: float,
    tol: float = 1e-10,
    nodes=None,
) -> RadialProfile:
    """Rotationally symmetric Dirichlet solve via the flux first integral.

    Finds the flux constant matching the prescribed boundary heights (fiber
    arc-length units) by bracketing on [0, g(r_in)]; the extremal flux is the
    vertical-tangent profile, so requested differences beyond its height gain
    raise NoAdmissibleFluxError carrying the attainable maximum.
    """
    if not 0 < r_in < r_out:
        raise ValueError("need 0 < r_in < r_out")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if nodes is None:
        nodes = np.linspace(r_in, r_out, 513)
    nodes = np.asarray(nodes, dtype=float)
    if abs(nodes[0] - r_in) > 1e-12 or abs(nodes[-1] - r_out) > 1e-12:
        raise ValueError("nodes must span [r_in, r_out]")

    delta = u_out - u_in
    g_in = warp_g(r_in)
    quad_tol = min(tol / 4.0, 1e-12)

    if delta == 0:
        c_star = 0.0
    else:
        target = abs(delta)
        attain = flux_height_difference(g_in, r_in, r_out, quad_tol)
        if target > attain:
            if target - attain > max(10.0 * tol, 1e-8 * (1.0 + target)):
                raise NoAdmissibleFluxError(target, attain)
            c_star = g_in
        else:
            fun = lambda c: flux_height_difference(c, r_in, r_out, quad_tol) - target
            c_star = brentq(fun, 0.0, g_in, xtol=1e-15, rtol=8.9e-16)
        c_star = math.copysign(c_star, delta)

    # cumulative heights at the nodes, stitched interval by interval in xi
    integrand = _flux_integrand_factory(abs(c_star), r_in)
    xi = np.sqrt(np.maximum(nodes - r_in, 0.0))
    vals = np.empty_like(nodes)
    vals[0] = u_in
    acc = 0.0
    for k in range(1, len(nodes)):
        if c_star != 0.0:
            acc += _quad_checked(integrand, xi[k - 1], xi[k], quad_tol, "flux height")
        vals[k] = u_in + math.copysign(acc, c_star) if c_star != 0.0 else u_in

    g_sq = warp_g(nodes) ** 2
    denom = g_sq - c_star * c_star
    with np.errstate(divide="ignore"):
        derivs = np.where(denom > 0, c_star / np.sqrt(np.maximum(denom, 0.0)),
                          math.copysign(np.inf, c_star) if c_star != 0 else 0.0)

    residual = abs(vals[-1] - u_out)
    return RadialProfile(nodes, vals, derivs, flux=c_star, bc_residual=residual)
