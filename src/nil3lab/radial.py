"""One-dimensional reductions on the model surface.

Two families live here: the radial barrier/subsolution family used to cap
exterior solutions, and rotationally symmetric minimal graphs over
dr^2 + g(r)^2 dtheta^2 with the flux first integral g u'/sqrt(1 + u'^2) = c.
Their heights are one integral of u' = c / sqrt(g^2 - c^2), given the neck
gap b = g(r_in)^2 - c^2 free of cancellation.  A catenoid (c, t0) is the
graph of flux c/(2 sqrt 2) from r = t0; `radial_mse_solve` root-finds the
flux on an angle phi, with c = g(r_in) sin(phi) and b = (g(r_in) cos(phi))^2.

Every integral of the package is taken by one adaptive Gauss-Legendre
quadrature, `_quadrature`, which returns the integral from the first edge to
each edge it is given: a whole-range height, the heights at every node of a
sampled profile and the orbit length of `surface.orbit_circumference` are
all one call of it, checked against one error bound.

Heights are stored in fiber arc-length units (sqrt(2) times the chart zeta
offset) except where a function explicitly returns the chart offset h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .surface import geodesic_circle_curvature, warp_g

SQRT2 = math.sqrt(2.0)
# relative target of every quadrature, and the relative error bound a value is
# accepted against besides the absolute tolerance
_QUAD_REL = 1e-13
# the quadrature gives up past this many halvings of a panel or this many
# live panels
_MAX_LEVELS, _MAX_PANELS = 50, 4096

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
    if not 0 < c < math.inf:
        raise ValueError("flux parameter c must be finite and positive")
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


def _quadrature(fn, edges, tol: float, ctx: str) -> np.ndarray:
    """Integrals of fn from edges[0] to each edge, checked against tol.

    The one quadrature of the package.  Every interval between the edges
    starts as panels no wider than an eighth of the whole range, integrated
    by the 8- and 16-point Gauss-Legendre rules, every live panel in one call
    of fn per level.  A panel whose two rules differ by at most its length
    share of max(tol, 1e-13 |value|) is kept at its 16-point value; the
    others are halved.  The kept differences add up to the error estimate,
    so the integral to every edge meets that bound, value being the whole
    integral.  A tol finer than the float spacing at the value would pass
    unmet, so it raises QuadratureError, and so does an estimate above the
    bound, infinite once a panel has been halved _MAX_LEVELS times or more
    than _MAX_PANELS are live.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"{ctx}: tol must be finite and positive")
    edges = np.asarray(edges, dtype=float)
    total = edges[-1] - edges[0]
    if total == 0:
        return np.zeros(edges.shape)
    gaps = edges[1:] - edges[:-1]
    count = np.ceil(gaps / (total / 8.0)).astype(int)
    width = (gaps / np.maximum(count, 1)).repeat(count)
    step = np.arange(width.size) - (count.cumsum() - count).repeat(count)
    lo = edges[:-1].repeat(count) + width * step
    share, kept_lo, kept_val, val, err = 1.0 / total, [], [], 0.0, 0.0
    for level in range(_MAX_LEVELS):
        half = 0.5 * width
        both = fn((lo + half)[:, None] + half[:, None] * _GL_NODES) @ _GL_WEIGHTS
        coarse, fine = (both * half[:, None]).T
        miss = np.abs(fine - coarse)
        kept = miss <= width * (share * max(tol, _QUAD_REL * abs(val + fine.sum())))
        kept_lo.append(lo[kept])
        kept_val.append(fine[kept])
        val += kept_val[-1].sum()
        err += miss[kept].sum()
        if kept.all():
            break
        live = ~kept
        lo, half = lo[live], half[live]
        if level == _MAX_LEVELS - 1 or 2 * lo.size > _MAX_PANELS:
            err = math.inf  # give up
            break
        lo, width = np.concatenate([lo, lo + half]), np.concatenate([half, half])
    # the panels tile the range, so the integral to an edge sums the kept
    # panels whose left ends lie in the intervals before it; the whole
    # integral keeps the sum the bound was checked against
    owner = edges.searchsorted(np.concatenate(kept_lo), "right")
    heights = np.bincount(owner, np.concatenate(kept_val), minlength=edges.size).cumsum()
    heights[-1] = val
    if math.isfinite(val) and tol < math.ulp(val):
        raise QuadratureError(
            f"{ctx}: tol {tol:.3g} is below the float spacing {math.ulp(val):.3g} "
            f"of the value {val:.6g}"
        )
    if not err <= max(tol, _QUAD_REL * abs(val)):
        raise QuadratureError(f"{ctx}: error estimate {err:.3g} above tol {tol:.3g}")
    return heights


def _catenoid_integrand(params: CatenoidParams, t_lo: float, t_hi: float):
    """Flux integrand and ramp width of the catenoid, for heights at radii in [t_lo, t_hi].

    The catenoid is the flux-c/(2 sqrt 2) graph from r = t0, as
    t^2 (t^2 + 8) - c^2 = 8 (g(t)^2 - c^2/8).  With a = t0_min(c)^2 its neck
    gap (t0^2 - a)(t0^2 + a + 8)/8 is exactly 0 at the minimal neck; the clamp
    covers the 1e-12 by which t0 may lie below it.
    """
    if not t_hi < math.inf:
        raise ValueError(f"profile radius t={t_hi} must be finite")
    if t_lo < params.t0 - 1e-12:
        raise ValueError(f"profile radius t={t_lo} below the neck t0={params.t0}")
    a = t0_min(params.c) ** 2
    t0_sq = params.t0 * params.t0
    gap = max(t0_sq - a, 0.0) * (t0_sq + a + 8.0) / 8.0
    return _flux_integrand_factory(params.c / (2.0 * SQRT2), params.t0, gap)


def catenoid_height(params: CatenoidParams, t: float, tol: float = 1e-10) -> float:
    """Chart zeta-offset h(t) of the catenoid profile at radius t >= t0."""
    integrand, ramp = _catenoid_integrand(params, t, t)
    hi = math.sqrt(max(t - params.t0, 0.0))
    return float(_flux_quad(integrand, ramp, [0.0, hi], SQRT2 * tol)[-1]) / SQRT2


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
    integrand, ramp = _catenoid_integrand(params, t_nodes.min(initial=t0), t_nodes.max(initial=t0))
    xi = np.sqrt(np.maximum(t_nodes - t0, 0.0))
    # heights accumulate from the neck, xi = 0
    heights = _flux_quad(integrand, ramp, np.concatenate([[0.0], xi]), SQRT2 * tol)[1:]
    with np.errstate(divide="ignore"):
        derivs = integrand(xi)
    return RadialProfile(t_nodes, heights, derivs, flux=params.c / (2.0 * SQRT2))


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
    out = fpp + fp(r) * _curvature_lower_bound(r, params.alpha)
    return float(out) if r.ndim == 0 else out


def _curvature_lower_bound(r, alpha):
    """2(r - alpha)/((r + alpha)^2 + 8); 0, its limit, once the square overflows."""
    with np.errstate(over="ignore"):
        return 2.0 * (r - alpha) / ((r + alpha) ** 2 + 8.0)


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
        fpp = -fp * _curvature_lower_bound(r, params.alpha)
        kappa = geodesic_circle_curvature(bigr)
        mop = (fpp + fp * (1.0 + fp * fp) * kappa) / (1.0 + fp * fp) ** 1.5
    margin = geodesic_circle_curvature(bigr) - _curvature_lower_bound(r, params.alpha)
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


# the 8- and 16-point rules the flux heights are integrated with: their nodes
# side by side, and a weight column for each, so one product applies both
(_x8, _w8), (_x16, _w16) = _gauss_legendre(8), _gauss_legendre(16)
_GL_NODES = np.concatenate([_x8, _x16])
_GL_WEIGHTS = np.zeros((24, 2))
_GL_WEIGHTS[:8, 0], _GL_WEIGHTS[8:, 1] = _w8, _w16


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


def _flux_quad(integrand, ramp: float, edges, tol: float) -> np.ndarray:
    """Heights int 2 xi u'(xi) dxi from edges[0] to each edge, by `_quadrature`.

    The integrand's nearest singularity is i * ramp, so near xi = 0 it varies
    on the scale max(xi, ramp).  A ramp far narrower than a panel falls
    between the nodes of both rules, which then agree on the plateau (a flux
    1.3e-10 below the extremal one over [1, 4] gained 1.4e-5 too much height
    under a rule that stepped over it).  Every interval [lo, hi] of such a
    width is cut at hi / 4^k down to that scale before the rule starts.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    scale = np.maximum(lo, ramp)
    narrow = (64.0 * scale < hi - lo).nonzero()[0] if ramp > 0 else ()
    cuts = [hi[k] / 4.0 ** np.arange(math.ceil(math.log(hi[k] / scale[k], 4.0)) - 1, 0, -1)
            for k in narrow]
    cut = np.sort(np.concatenate([edges, *cuts])) if cuts else edges
    heights = _quadrature(lambda xi: 2.0 * xi * integrand(xi), cut, tol, "flux height")
    return heights[cut.searchsorted(edges)] if cuts else heights


def flux_height_difference(
    c: float, r_in: float, r_out: float, tol: float = 1e-12
) -> float:
    """Height gain of the radial minimal graph with flux 0 <= c <= g(r_in) over [r_in, r_out]."""
    if not 0 < r_in < r_out < math.inf:
        raise ValueError("need 0 < r_in < r_out < inf")
    g_in = warp_g(r_in)
    if not 0 <= c <= g_in:
        raise ValueError(f"flux must lie in [0, g(r_in)] = [0, {g_in:.6g}]")
    integrand, ramp = _flux_integrand_factory(c, r_in, (g_in - c) * (g_in + c))
    return float(_flux_quad(integrand, ramp, [0.0, math.sqrt(r_out - r_in)], tol)[-1])


def _secant_root(fn, a: float, b: float, fa: float, fb: float) -> float:
    """Root of fn in the bracket [a, b], fa = fn(a) and fb = fn(b) of opposite signs.

    A safeguarded secant: the step from the best point uses the secant
    through the previous one, and falls back to the bracket's midpoint when
    it leaves the nearer half of the bracket or does not halve the step
    before last.  A step shorter than the tolerance is stretched to it, so
    the bracket closes.  Stops as brentq does, once half the bracket is
    within (xtol + rtol |x|) / 2 of the best point x, with xtol = 1e-15 and
    rtol = 8.9e-16.
    """
    x_pre, f_pre, x_cur, f_cur = a, fa, b, fb
    x_blk = f_blk = s_pre = s_cur = 0.0
    while True:
        if f_pre != 0 and f_cur != 0 and (f_pre < 0) != (f_cur < 0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        tol = 0.5 * (1e-15 + 8.9e-16 * abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0 or abs(s_bis) < tol:
            return x_cur
        s_try = math.nan  # fails the test below, so no secant step means bisection
        if abs(s_pre) > tol and abs(f_cur) < abs(f_pre):
            s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
        if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - tol):
            s_pre, s_cur = s_cur, s_try
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > tol else math.copysign(tol, s_bis)
        f_cur = fn(x_cur)


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
    carrying the attainable maximum.  The heights at the nodes come from one
    quadrature over the nodes at the tolerance min(tol / 4, 1e-12), which
    each height from r_in meets.
    """
    if not 0 < r_in < r_out < math.inf:
        raise ValueError("need 0 < r_in < r_out < inf")
    if not (math.isfinite(u_in) and math.isfinite(u_out)):
        raise ValueError("boundary heights must be finite")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol={tol:g} must be finite and positive")
    if nodes is None:
        nodes = np.linspace(r_in, r_out, 513)
    nodes = np.asarray(nodes, dtype=float)
    if not np.all(np.isfinite(nodes)) or np.abs(nodes[[0, -1]] - [r_in, r_out]).max() > 1e-12:
        raise ValueError("nodes must be finite and span [r_in, r_out]")

    delta = u_out - u_in
    g_in = warp_g(r_in)
    quad_tol = min(tol / 4.0, 1e-12)

    def flux(phi):
        # float cos(pi/2) is 6e-17, not the extremal gap 0
        gap = (g_in * math.cos(phi)) ** 2 if phi < 0.5 * math.pi else 0.0
        return _flux_integrand_factory(g_in * math.sin(phi), r_in, gap)

    def height(phi):
        return _flux_quad(*flux(phi), [0.0, math.sqrt(r_out - r_in)], quad_tol)[-1]

    phi = 0.0
    if delta != 0:
        target = abs(delta)
        phi = 0.5 * math.pi
        attain = height(phi)
        if target - attain > max(10.0 * tol, 1e-8 * (1.0 + target)):
            raise NoAdmissibleFluxError(target, attain)
        if target < attain:
            # flux 0 has height 0 exactly, so the bracket costs no evaluation
            phi = _secant_root(lambda p: height(p) - target, 0.0, phi, -target, attain - target)

    sign = math.copysign(1.0, delta)
    integrand, ramp = flux(phi)
    xi = np.sqrt(np.maximum(nodes - r_in, 0.0))
    with np.errstate(divide="ignore"):
        derivs = integrand(xi)
    vals = u_in + sign * _flux_quad(integrand, ramp, xi, quad_tol)
    residual = abs(vals[-1] - u_out)
    flux_c = sign * g_in * math.sin(phi)
    return RadialProfile(nodes, vals, sign * derivs, flux=flux_c, bc_residual=residual)
