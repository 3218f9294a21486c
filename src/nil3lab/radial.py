"""One-dimensional reductions on the model surface.

Two families live here: the radial barrier/subsolution family used to cap
exterior solutions, and `FluxGraph`, the rotationally symmetric minimal
graphs over dr^2 + g(r)^2 dtheta^2 with the flux first integral
g u'/sqrt(1 + u'^2) = c.  A flux graph is its flux c, inner radius r_in,
neck gap b = g(r_in)^2 - c^2 free of cancellation, and sign; its heights are
one integral of u' = c / sqrt(g^2 - c^2).  The catenoid (c, t0) is
`FluxGraph.catenoid`, the graph of flux c/(2 sqrt 2) from r = t0;
`radial_mse_solve` root-finds an angle phi over the graphs
`FluxGraph.at_angle`, of flux c = g(r_in) sin(phi) and gap
b = (g(r_in) cos(phi))^2.

Every integral of the package is taken by one adaptive Gauss-Legendre
quadrature, `_quadrature`, which returns the integral from the first edge to
each edge it is given: a whole-range height, the heights at every node of a
sampled profile and the orbit length of `surface.orbit_circumference` are
all one call of it, checked against one error bound.

Heights are in fiber arc-length units throughout.  Chart zeta offsets are
`surface.CenterElement.from_arc_length` of them, and a tolerance on chart
offsets, as the catenoid functions take, is `CenterElement(tol).arc_length`
in these units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .surface import SQRT2, CenterElement, geodesic_circle_curvature, warp_g

# relative target of every quadrature, and the relative error bound a value is
# accepted against besides the absolute tolerance
_QUAD_REL = 1e-13
# the quadrature gives up past this many halvings of a panel or this many
# live panels
_MAX_LEVELS, _MAX_PANELS = 50, 4096

__all__ = [
    "CatenoidParams",
    "FluxGraph",
    "RadialProfile",
    "BarrierParams",
    "SubsolutionReport",
    "QuadratureError",
    "NoAdmissibleFluxError",
    "t0_min",
    "catenoid_profile",
    "catenoid_flux_check",
    "barrier_fprime",
    "barrier_f",
    "barrier_profile",
    "barrier_sup_bound",
    "barrier_ode_residual",
    "subsolution_check",
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


def barrier_ode_residual(params: BarrierParams, r):
    """Residual f'' + f' * 2(r - alpha)/((r + alpha)^2 + 8), f'' by 4th-order differencing.

    Zero for the exact barrier (it is the equality case of the subsolution
    inequality); the differencing, of step 1e-3, keeps the check independent
    of that identity.
    """
    r = np.asarray(r, dtype=float)
    step = 1e-3
    fp = lambda x: barrier_fprime(params, x)
    fpp = (-fp(r + 2 * step) + 8 * fp(r + step) - 8 * fp(r - step) + fp(r - 2 * step)) / (
        12.0 * step
    )
    a = params.alpha
    # the bound is 0, its limit, once the square overflows
    with np.errstate(over="ignore"):
        out = fpp + fp(r) * (2.0 * (r - a) / ((r + a) ** 2 + 8.0))
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
    the lower curvature bound 2(r - alpha)/((r + alpha)^2 + 8).  With
    R = r + alpha the margin is 4(2 + alpha R)/(R (8 + R^2)), formed so that
    neither the difference cancels nor R^2 overflows; the operator value is
    f'(margin + f'^2 g'/g)/(1 + f'^2)^1.5, as f'' = -f' times the bound.
    """
    if abs(params.alpha - r0) > 1e-12:
        raise ValueError("subsolution_check requires alpha == r0 (circular inner domain)")
    r = np.asarray(grid, dtype=float)
    if np.any(r < 0):
        raise ValueError("grid distances must be nonnegative")
    bigr = r0 + r
    margin = (params.alpha + 2.0 / bigr) * (2.0 / np.hypot(math.sqrt(8.0), bigr)) ** 2
    fp = barrier_fprime(params, r)
    mop = fp * (margin + fp * fp * geodesic_circle_curvature(bigr)) / (1.0 + fp * fp) ** 1.5
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


@dataclass(frozen=True)
class FluxGraph:
    """Rotational minimal graph over r >= r_in: g u'/sqrt(1 + u'^2) = sign * flux.

    The flux lies in [0, g(r_in)], and gap = g(r_in)^2 - flux^2 >= 0 is its
    neck gap, given by the constructor free of the cancellation the
    difference suffers as the flux nears g(r_in).  With xi = sqrt(r - r_in)
    and rho = r_in + xi^2, g(rho)^2 - flux^2 is the split form
    xi^2 A(rho) + gap, so the slope u' = flux / sqrt(g^2 - flux^2) is exact
    even at the extremal flux gap = 0, where it is infinite at r_in.  Heights
    are in fiber arc-length units, measured from r_in.
    """

    flux: float
    r_in: float
    gap: float
    sign: float = 1.0

    def __post_init__(self):
        if not (0 < self.r_in < math.inf and 0 <= self.flux < math.inf
                and 0 <= self.gap < math.inf and self.sign in (1.0, -1.0)):
            raise ValueError(f"{self}: need finite r_in > 0, flux >= 0 and gap >= 0, sign +-1")

    @classmethod
    def catenoid(cls, params: CatenoidParams) -> "FluxGraph":
        """The catenoid (c, t0): the graph of flux c/(2 sqrt 2) from r = t0.

        t^2 (t^2 + 8) - c^2 = 8 (g(t)^2 - c^2/8).  With a = t0_min(c)^2 its
        neck gap (t0^2 - a)(t0^2 + a + 8)/8 is exactly 0 at the minimal neck;
        the clamp covers the 1e-12 by which t0 may lie below it.
        """
        a = t0_min(params.c) ** 2
        t0_sq = params.t0 * params.t0
        gap = max(t0_sq - a, 0.0) * (t0_sq + a + 8.0) / 8.0
        return cls(params.c / math.sqrt(8.0), params.t0, gap)

    @classmethod
    def at_angle(cls, r_in: float, phi: float, sign: float = 1.0) -> "FluxGraph":
        """Flux g(r_in) sin(phi) and neck gap (g(r_in) cos(phi))^2, for phi in [0, pi/2]."""
        g_in = warp_g(r_in)
        # float cos(pi/2) is 6e-17, not the extremal gap 0
        gap = (g_in * math.cos(phi)) ** 2 if phi < 0.5 * math.pi else 0.0
        return cls(g_in * math.sin(phi), r_in, gap, sign)

    @property
    def ramp(self) -> float:
        """Width xi* = sqrt(gap / A(r_in)) of the climb of 2 xi u' to its plateau 2 flux/sqrt(A)."""
        return math.sqrt(self.gap / (2.0 * self.r_in * (1.0 + self.r_in * self.r_in / 4.0)))

    def _xi(self, r) -> np.ndarray:
        """xi = sqrt(r - r_in) of finite radii r no more than 1e-12 below r_in."""
        r = np.asarray(r, dtype=float)
        bad = r[~((r < math.inf) & (r >= self.r_in - 1e-12))]
        if bad.size:
            raise ValueError(f"radius {bad[0]} is not finite or below the neck r_in={self.r_in}")
        return np.sqrt(np.maximum(r - self.r_in, 0.0))

    def _slope(self, xi):
        rho = self.r_in + xi * xi
        a = (rho + self.r_in) * (1.0 + (rho * rho + self.r_in * self.r_in) / 8.0)
        return self.flux / np.sqrt(xi * xi * a + self.gap)

    def _quad(self, edges, tol: float) -> np.ndarray:
        """Heights int 2 xi u'(xi) dxi from edges[0] to each edge in xi, by `_quadrature`.

        The integrand's nearest singularity is i * ramp, so near xi = 0 it
        varies on the scale max(xi, ramp).  A ramp far narrower than a panel
        falls between the nodes of both rules, which then agree on the
        plateau (a flux 1.3e-10 below the extremal one over [1, 4] gained
        1.4e-5 too much height under a rule that stepped over it).  Every
        interval [lo, hi] of such a width is cut at hi / 4^k down to that
        scale before the rule starts.
        """
        edges = np.asarray(edges, dtype=float)
        lo, hi, ramp = edges[:-1], edges[1:], self.ramp
        scale = np.maximum(lo, ramp)
        narrow = (64.0 * scale < hi - lo).nonzero()[0] if ramp > 0 else ()
        cuts = [hi[k] / 4.0 ** np.arange(math.ceil(math.log(hi[k] / scale[k], 4.0)) - 1, 0, -1)
                for k in narrow]
        cut = np.sort(np.concatenate([edges, *cuts])) if cuts else edges
        heights = _quadrature(lambda xi: 2.0 * xi * self._slope(xi), cut, tol, "flux height")
        return heights[cut.searchsorted(edges)] if cuts else heights

    def heights(self, r, tol: float) -> np.ndarray:
        """Unsigned heights from r_in at the radii r (flattened), by one quadrature, within tol."""
        return self._quad(np.concatenate([[0.0], self._xi(r).ravel()]), tol)[1:]

    def slopes(self, r) -> np.ndarray:
        """Exact slopes sign * flux / sqrt(g(r)^2 - flux^2) at the radii r."""
        with np.errstate(divide="ignore"):
            return self.sign * self._slope(self._xi(r))

    def profile(self, r, tol: float) -> RadialProfile:
        """The graph at strictly increasing radii r: signed heights and exact slopes."""
        values = self.sign * self.heights(r, tol)
        return RadialProfile(r, values, self.slopes(r), flux=self.sign * self.flux)


def catenoid_profile(params: CatenoidParams, t_nodes, tol: float = 1e-10) -> RadialProfile:
    """Sampled catenoid profile in arc-length units with the exact derivative.

    tol bounds the chart offset of each height, so the heights meet
    CenterElement(tol).arc_length; deriv = u'(t) = c / sqrt(t^2 (t^2 + 8) - c^2),
    infinite at the minimal neck itself.
    """
    return FluxGraph.catenoid(params).profile(t_nodes, CenterElement(tol).arc_length)


def catenoid_flux_check(params: CatenoidParams, r: float) -> float:
    """Flux g(r) u'/sqrt(1 + u'^2) with u' from differencing the quadrature heights.

    The heights are the flux integral itself, so this 4th-order central
    difference re-derives the same first integral: the value is constant,
    c/(2 sqrt(2)) (= g(t0) at the minimal neck).  The heights' tolerance is
    1e-13 on chart offsets, as catenoid_profile's tol.  The independent
    checks of the catenoid are the 3-D mean curvature of its surface and the
    benchmark's own Gauss-Legendre heights (perfbench/checks.py).
    """
    if r <= params.t0:
        raise ValueError(f"flux check needs r > t0, got r={r}, t0={params.t0}")
    step = min(1e-4, (r - params.t0) / 8.0)
    radii = r + step * np.array([-2.0, -1.0, 1.0, 2.0])
    h = FluxGraph.catenoid(params).heights(radii, CenterElement(1e-13).arc_length)
    up = (h[0] - 8.0 * h[1] + 8.0 * h[2] - h[3]) / (12.0 * step)
    return float(warp_g(r) * up / math.sqrt(1.0 + up * up))


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
    quad_tol = min(tol / 4.0, 1e-12)
    phi = 0.0
    if delta != 0:
        target = abs(delta)
        phi = 0.5 * math.pi
        attain = FluxGraph.at_angle(r_in, phi).heights([r_out], quad_tol)[0]
        if target - attain > max(10.0 * tol, 1e-8 * (1.0 + target)):
            raise NoAdmissibleFluxError(target, attain)
        if target < attain:
            # flux 0 has height 0 exactly, so the bracket costs no evaluation
            miss = lambda p: FluxGraph.at_angle(r_in, p).heights([r_out], quad_tol)[0] - target
            phi = _secant_root(miss, 0.0, phi, -target, attain - target)

    prof = FluxGraph.at_angle(r_in, phi, math.copysign(1.0, delta)).profile(nodes, quad_tol)
    prof.value += u_in
    prof.bc_residual = abs(prof.value[-1] - u_out)
    return prof
