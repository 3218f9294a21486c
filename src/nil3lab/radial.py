"""One-dimensional reductions on the model surface.

Two families live here: the radial barrier/subsolution family used to cap
exterior solutions, and rotationally symmetric minimal graphs over
dr^2 + g(r)^2 dtheta^2 with the flux first integral g u'/sqrt(1 + u'^2) = c.
Their heights are one integral of u' = c / sqrt(g^2 - c^2), given the neck
gap b = g(r_in)^2 - c^2 free of cancellation.  A catenoid (c, t0) is the
graph of flux c/(2 sqrt 2) from r = t0; `radial_mse_solve` root-finds the
flux on an angle phi, with c = g(r_in) sin(phi) and b = (g(r_in) cos(phi))^2.

Heights are stored in fiber arc-length units (sqrt(2) times the chart zeta
offset) except where a function explicitly returns the chart offset h.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .surface import geodesic_circle_curvature, warp_g

SQRT2 = math.sqrt(2.0)
# relative target of every quad call, and the relative error bound a value is
# accepted against besides the absolute tolerance
_QUAD_REL = 1e-13

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


def _quad_checked(fn, lo, hi, tol, ctx="quadrature", points=None):
    if not 0 < tol < math.inf:
        raise ValueError(f"{ctx}: tol must be finite and positive")
    # imported here, not at module level: scipy.integrate roughly doubles the
    # start-up of `import nil3lab`, and only the quadratures need it (an annulus
    # solve integrates through its default guess, a disk solve never does)
    from scipy.integrate import quad

    val, err = quad(fn, lo, hi, epsabs=0.25 * tol, epsrel=_QUAD_REL, limit=300, points=points)
    # a tol finer than the float spacing at the value is unreachable whatever
    # the estimate says
    if math.isfinite(val) and tol < math.ulp(val):
        raise QuadratureError(
            f"{ctx}: tol {tol:.3g} is below the float spacing {math.ulp(val):.3g} "
            f"of the value {val:.6g}"
        )
    # quad stops once either of its targets is met, so the estimate is
    # accepted against either bound
    if not err <= max(tol, _QUAD_REL * abs(val)):
        raise QuadratureError(f"{ctx}: error estimate {err:.3g} above tol {tol:.3g}")
    return val


def _catenoid_integrand(params: CatenoidParams, t: float):
    """Flux integrand and ramp width of the catenoid, for heights out to radius t.

    The catenoid is the flux-c/(2 sqrt 2) graph from r = t0, as
    t^2 (t^2 + 8) - c^2 = 8 (g(t)^2 - c^2/8).  With a = t0_min(c)^2 its neck
    gap (t0^2 - a)(t0^2 + a + 8)/8 is exactly 0 at the minimal neck; the clamp
    covers the 1e-12 by which t0 may lie below it.
    """
    if t < params.t0 - 1e-12:
        raise ValueError(f"profile radius t={t} below the neck t0={params.t0}")
    a = t0_min(params.c) ** 2
    t0_sq = params.t0 * params.t0
    gap = max(t0_sq - a, 0.0) * (t0_sq + a + 8.0) / 8.0
    return _flux_integrand_factory(params.c / (2.0 * SQRT2), params.t0, gap)


def catenoid_height(params: CatenoidParams, t: float, tol: float = 1e-10) -> float:
    """Chart zeta-offset h(t) of the catenoid profile at radius t >= t0."""
    integrand, ramp = _catenoid_integrand(params, t)
    hi = math.sqrt(max(t - params.t0, 0.0))
    return _flux_quad(integrand, ramp, 0.0, hi, SQRT2 * tol) / SQRT2


def catenoid_profile(
    params: CatenoidParams, t_nodes, tol: float = 1e-10
) -> "RadialProfile":
    """Sampled catenoid profile in arc-length units with the exact derivative.

    value = sqrt(2) h(t), accumulated from t0 over the intervals between the
    nodes; deriv = u'(t) = c / sqrt(t^2 (t^2 + 8) - c^2), infinite at the
    minimal neck itself.
    """
    t_nodes = np.asarray(t_nodes, dtype=float)
    t0 = params.t0
    integrand, ramp = _catenoid_integrand(params, t_nodes.min(initial=t0))
    lead = [t0] if t_nodes.size and t_nodes[0] > t0 else []  # heights accumulate from the neck
    heights, derivs = _flux_profile(integrand, ramp, t0, np.concatenate([lead, t_nodes]), SQRT2 * tol)
    k = len(lead)
    return RadialProfile(t_nodes, heights[k:], derivs[k:], flux=params.c / (2.0 * SQRT2))


def catenoid_flux_check(params: CatenoidParams, r: float, tol: float = 1e-13) -> float:
    """Flux g(r) u'/sqrt(1 + u'^2) with u' from differencing the quadrature height.

    catenoid_height is the flux integral itself, so this 4th-order central
    difference re-derives the same first integral: the value is constant,
    c/(2 sqrt(2)) (= g(t0) at the minimal neck).  The independent checks of
    the catenoid are the 3-D mean curvature of its surface and the
    benchmark's own Gauss-Legendre heights (perfbench/checks.py).
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
    # above r of about 1.3e154 the square overflows to inf, and the quotient
    # is 0, the limit of f'
    with np.errstate(over="ignore"):
        out = params.scale * np.exp(
            SQRT2 * params.alpha * np.arctan(w / (2.0 * SQRT2))
        ) / (w * w + 8.0)
    return float(out) if r.ndim == 0 else out


def barrier_f(params: BarrierParams, r):
    """Barrier value f(r) and derivative f'(r) at radii r >= 0, scalar or array.

    f' has an elementary antiderivative: with w = (r + a) / (2 sqrt(2)),
    d/dr e^{sqrt(2) a atan w} = 4 a e^{sqrt(2) a atan w} / ((r + a)^2 + 8), so

        f(r) = s (a^2 + 8) / (4 a) expm1(sqrt(2) a atan(2 sqrt(2) r / (8 + a (r + a)))),

    the atan being atan w(r) - atan w(0) in a form that does not cancel.
    f(0) = 0 exactly, and f = 0 exactly when s = 0.
    """
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r) & (r >= 0)):
        raise ValueError("barrier radius must be finite and nonnegative")
    a = params.alpha
    # 2 sqrt(2) r / (8 + a bigr), divided through by bigr so that it cannot overflow
    bigr = r + a
    angle = np.arctan(2.0 * SQRT2 * (r / bigr) / (a + 8.0 / bigr))
    f = params.s * (a * a + 8.0) / (4.0 * a) * np.expm1(SQRT2 * a * angle)
    return (float(f) if r.ndim == 0 else f), barrier_fprime(params, r)


def barrier_profile(params: BarrierParams, r_nodes) -> RadialProfile:
    """Barrier sampled on strictly increasing nodes r >= 0."""
    return RadialProfile(r_nodes, *barrier_f(params, r_nodes))


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


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n from Tricomi's estimates of its roots, which
    reaches rounding level within four steps for n <= 16.  numpy's leggauss
    finds the nodes with an eigensolver instead; at import, its first call
    would start numpy's LAPACK and add its buffers to the peak memory of
    every solve that follows.
    """
    leg = np.polynomial.legendre
    p_n = np.zeros(n + 1)
    p_n[n] = 1.0
    dp_n = leg.legder(p_n)
    x = -np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(4):
        x -= leg.legval(x, p_n) / leg.legval(x, dp_n)
    x = 0.5 * (x - x[::-1])
    w = 1.0 / ((1.0 - x * x) * leg.legval(x, dp_n) ** 2)
    return x, w * (2.0 / w.sum())


# the rules the cumulative flux heights are integrated with
_GAUSS_LEGENDRE = (_gauss_legendre(8), _gauss_legendre(16))


def _flux_integrand_factory(c: float, r_in: float, b: float):
    """Height integrand u' = c / sqrt(g(r)^2 - c^2) of the flux-c graph in xi, and its ramp width.

    With rho = r_in + xi^2, g(rho)^2 - c^2 is the split form xi^2 A(rho) + b
    with the neck gap b = g(r_in)^2 - c^2 >= 0 from the caller, so u' is
    exact even at the extremal flux b = 0, where it is infinite at xi = 0.
    It takes a float or an array of xi.  The height integrand in xi,
    2 xi u', climbs from 0 to its plateau 2c / sqrt(A) within the ramp width
    xi* = sqrt(b / A(r_in)), returned with it.
    """

    def integrand(xi):
        rho = r_in + xi * xi
        a = (rho + r_in) * (1.0 + (rho * rho + r_in * r_in) / 8.0)
        return c / np.sqrt(xi * xi * a + b)

    return integrand, math.sqrt(b / (2.0 * r_in * (1.0 + r_in * r_in / 4.0)))


def _flux_quad(integrand, ramp: float, lo: float, hi: float, tol: float) -> float:
    """Height gain int 2 xi u'(xi) dxi over [lo, hi] by `_quad_checked`.

    The integrand's nearest singularity is i * ramp, so near xi = 0 it varies
    on the scale max(xi, ramp).  quad's outermost nodes sit (hi - lo) / 460
    inside the range, so a ramp far narrower than the range falls between them
    unseen by the error estimate (a flux 1.3e-10 below the extremal one over
    [1, 4] gained 1.4e-5 too much height).  Such a range is cut at hi / 4^k
    down to that scale.
    """
    points = None
    scale = max(lo, ramp)
    if ramp > 0 and scale < (hi - lo) / 64.0:
        points = hi / 4.0 ** np.arange(1, math.ceil(math.log(hi / scale, 4.0)))
    return _quad_checked(
        lambda xi: 2.0 * xi * integrand(xi), lo, hi, tol, "flux height", points=points
    )


def _flux_profile(integrand, ramp: float, r_in: float, nodes, tol: float):
    """Heights from r_in = nodes[0] and derivatives u' at the nodes.

    The heights are cumulative sums over the intervals between the nodes in
    xi = sqrt(r - r_in), where the integrand is smooth.  Every interval is
    integrated at once by the 16-point Gauss-Legendre rule, and its distance
    from the 8-point rule is its error estimate.  An interval whose estimate
    misses the bound quad's own estimate must meet, max(tol, 1e-13 |value|),
    is integrated again by quad; near the extremal flux that is the first
    interval, over which the integrand climbs to its plateau.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol={tol:g} must be finite and positive")
    xi = np.sqrt(np.maximum(nodes - r_in, 0.0))
    half, mid = 0.5 * np.diff(xi)[:, None], 0.5 * (xi[1:] + xi[:-1])[:, None]
    density = lambda z: 2.0 * z * integrand(z)
    coarse, fine = ((half * density(mid + half * x)) @ w for x, w in _GAUSS_LEGENDRE)
    # a ramp far narrower than its interval falls between the nodes of both
    # rules, which then agree on the plateau; quad cuts such an interval
    narrow = (ramp > 0) & (np.maximum(xi[:-1], ramp) < np.diff(xi) / 64.0)
    missed = narrow | ~(np.abs(fine - coarse) <= np.maximum(tol, _QUAD_REL * np.abs(fine)))
    for k in np.flatnonzero(missed):
        fine[k] = _flux_quad(integrand, ramp, xi[k], xi[k + 1], tol)
    with np.errstate(divide="ignore"):
        derivs = integrand(xi)
    return np.concatenate([[0.0], np.cumsum(fine)]), derivs


def flux_height_difference(
    c: float, r_in: float, r_out: float, tol: float = 1e-12
) -> float:
    """Height gain of the radial minimal graph with flux 0 <= c <= g(r_in) over [r_in, r_out]."""
    if not 0 < r_in < r_out:
        raise ValueError("need 0 < r_in < r_out")
    g_in = warp_g(r_in)
    if not 0 <= c <= g_in:
        raise ValueError(f"flux must lie in [0, g(r_in)] = [0, {g_in:.6g}]")
    integrand, ramp = _flux_integrand_factory(c, r_in, (g_in - c) * (g_in + c))
    return _flux_quad(integrand, ramp, 0.0, math.sqrt(r_out - r_in), tol)


def radial_mse_solve(
    r_in: float,
    r_out: float,
    u_in: float,
    u_out: float,
    tol: float = 1e-10,
    nodes=None,
) -> RadialProfile:
    """Rotationally symmetric Dirichlet solve via the flux first integral.

    Finds the flux c = g(r_in) sin(phi) matching the prescribed boundary
    heights (fiber arc-length units) by a root-find on phi in [0, pi/2]; its
    neck gap (g(r_in) cos(phi))^2 keeps its digits as c nears g(r_in), where
    c itself cannot.  The extremal flux is the vertical-tangent profile, so
    requested differences beyond its height gain raise NoAdmissibleFluxError
    carrying the attainable maximum.  The heights at the nodes are one
    cumulative pass at the quadrature tolerance min(tol / 4, 1e-12).
    """
    if not 0 < r_in < r_out:
        raise ValueError("need 0 < r_in < r_out")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol={tol:g} must be finite and positive")
    if nodes is None:
        nodes = np.linspace(r_in, r_out, 513)
    nodes = np.asarray(nodes, dtype=float)
    if abs(nodes[0] - r_in) > 1e-12 or abs(nodes[-1] - r_out) > 1e-12:
        raise ValueError("nodes must span [r_in, r_out]")

    delta = u_out - u_in
    g_in = warp_g(r_in)
    quad_tol = min(tol / 4.0, 1e-12)

    def flux(phi):
        # float cos(pi/2) is 6e-17, not the extremal gap 0
        gap = (g_in * math.cos(phi)) ** 2 if phi < 0.5 * math.pi else 0.0
        return _flux_integrand_factory(g_in * math.sin(phi), r_in, gap)

    @functools.cache
    def height(phi):
        return _flux_quad(*flux(phi), 0.0, math.sqrt(r_out - r_in), quad_tol)

    phi = 0.0
    if delta != 0:
        target = abs(delta)
        phi = 0.5 * math.pi
        attain = height(phi)
        if target - attain > max(10.0 * tol, 1e-8 * (1.0 + target)):
            raise NoAdmissibleFluxError(target, attain)
        if target < attain:
            from scipy.optimize import brentq

            phi = brentq(lambda p: height(p) - target, 0.0, phi, xtol=1e-15, rtol=8.9e-16)

    sign = math.copysign(1.0, delta)
    heights, derivs = _flux_profile(*flux(phi), r_in, nodes, quad_tol)
    vals = u_in + sign * heights
    residual = abs(vals[-1] - u_out)
    flux_c = sign * g_in * math.sin(phi)
    return RadialProfile(nodes, vals, sign * derivs, flux=flux_c, bc_residual=residual)
