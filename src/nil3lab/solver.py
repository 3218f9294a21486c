"""Minimal surface equation on radial domains of the model surface.

The discretization is a conservative finite-volume scheme in geodesic polar
coordinates: with W = sqrt(1 + u_r^2 + u_theta^2/g^2) the residual at a node
is (1/g) [ d_r(g u_r / W) + d_theta(u_theta / (g W)) ] with fluxes evaluated
on staggered faces, so constant fields have exactly zero residual and the
discrete solution inherits a maximum principle on the tested data.

Each face flux is x / sqrt(1 + x^2 + y^2) in two slopes that are fixed
differences of u (`_face_slopes`).  Nonlinear solves use damped Newton: the
exact 9-point Jacobian stencil follows from those slopes by the chain rule,
is factored exactly by block elimination in r (each ring couples only to its
two neighbours), and each step is damped by Armijo-style halving from the
full step on residual increase.  The factorization is built at the first
step and kept while the merit contracts: a step that does not cut it tenfold
(REFRESH_RATIO) refactors for the next one, and a step with kept factors
that is not finite or fails the line search is retried at the same iterate
with fresh factors.  One log line is emitted per Newton step on the
"nil3lab.solver" logger; its jacobian= field says whether the step from that
iterate starts from a fresh factorization or from kept factors.

Two boundary-value programs sit on top:

* `exterior_solve` - zero data on the inner circle r = r0, and for each
  truncation radius m of the exhaustion schedule a safeguarded secant search
  on the constant outer value t, capped by the radial barrier, until the inner
  boundary gradient matches the prescribed s within cfg.bisection_tol.
* `asymptotic_solve` - truncated-disk approximations of angular data at
  infinity; the coordinate origin is handled by excising a tiny core disk
  and closing the innermost cell with the zero-flux (regular-origin) face.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .nilcore import ChartPoint, metric_closed_form
from .radial import (
    BarrierParams,
    NoAdmissibleFluxError,
    QuadratureError,
    barrier_f,
    flux_height_difference,
    radial_mse_solve,
)
from .surface import BoundaryData, warp_g

logger = logging.getLogger("nil3lab.solver")

# Dirichlet solves the exterior outer-value search spends on one m at most
MAX_OUTER_EVALS = 30
# the Jacobian is refactored after a Newton step that leaves the merit above
# this fraction of its old value; otherwise the next step reuses the factors
REFRESH_RATIO = 0.1

__all__ = [
    "AnnulusGrid",
    "SolverConfig",
    "ExteriorSolution",
    "AsymptoticSolution",
    "FoliationReport",
    "SolverError",
    "NewtonError",
    "BracketError",
    "mse_operator",
    "cartesian_operator_residual",
    "dirichlet_solve",
    "boundary_gradient_sup",
    "exterior_solve",
    "asymptotic_solve",
    "foliation_check",
]


class SolverError(RuntimeError):
    pass


class NewtonError(SolverError):
    def __init__(self, message: str, last_residual: float = math.nan):
        super().__init__(message)
        self.last_residual = last_residual


class BracketError(SolverError):
    pass


@dataclass
class AnnulusGrid:
    """Polar grid: finite radial nodes 0 < r[0] < ... < r[N], n_theta >= 8 uniform periodic angles.

    inner = "dirichlet" pins the row r[0] to boundary data; inner = "neumann"
    closes the innermost cell with a zero-flux face at r[0] (the excised-core
    closure for disk domains).
    """

    r: np.ndarray
    theta: np.ndarray
    inner: str = "dirichlet"

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        if self.r.ndim != 1 or len(self.r) < 5:
            raise ValueError("need at least 5 radial nodes")
        if not np.all(np.isfinite(self.r)):
            raise ValueError("radial nodes must be finite")
        if np.any(np.diff(self.r) <= 0):
            raise ValueError("radial nodes must be strictly increasing")
        if self.r[0] <= 0:
            raise ValueError("innermost radius must be positive")
        m = len(self.theta)
        if m < 8:
            raise ValueError("need at least 8 angular nodes")
        dt = 2.0 * math.pi / m
        if not np.allclose(self.theta, np.arange(m) * dt, atol=1e-12):
            raise ValueError("angular nodes must be uniform starting at 0")
        if self.inner not in ("dirichlet", "neumann"):
            raise ValueError("inner mode must be 'dirichlet' or 'neumann'")

        self.dtheta = dt
        self.pinned = [0, -1] if self.inner == "dirichlet" else [-1]  # rows held by data
        self.g = warp_g(self.r)
        self.h_face = np.diff(self.r)
        self.r_face = 0.5 * (self.r[1:] + self.r[:-1])
        self.g_face = warp_g(self.r_face)
        ctrl = np.empty_like(self.r)
        ctrl[1:-1] = 0.5 * (self.r[2:] - self.r[:-2])
        ctrl[0] = 0.5 * self.h_face[0]
        ctrl[-1] = 0.5 * self.h_face[-1]
        self.control = ctrl

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.r), len(self.theta))

    @classmethod
    def annulus(
        cls,
        r_in: float,
        r_out: float,
        n_r: int,
        n_theta: int,
        grading: float = 1.0,
    ) -> "AnnulusGrid":
        """Annular grid with optional algebraic grading toward the inner circle."""
        if not 0 < r_in < r_out < math.inf:
            raise ValueError("need 0 < r_in < r_out < inf")
        if grading < 1.0:
            raise ValueError("grading power must be >= 1")
        xi = np.linspace(0.0, 1.0, n_r)
        r = r_in + (r_out - r_in) * xi**grading
        theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
        return cls(r, theta, inner="dirichlet")

    @classmethod
    def disk(
        cls, radius: float, n_r: int, n_theta: int, r_core: float = 0.02
    ) -> "AnnulusGrid":
        """Disk grid with a tiny excised core and the zero-flux inner closure."""
        if not 0 < r_core < radius < math.inf:
            raise ValueError("need 0 < r_core < radius < inf")
        r = np.linspace(r_core, radius, n_r)
        theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
        return cls(r, theta, inner="neumann")


@dataclass
class SolverConfig:
    """Newton and outer-search tolerances, grid sizes, and the exhaustion schedule."""

    newton_tol: float = 1e-10
    max_newton: int = 40
    n_r: int = 256
    n_theta: int = 64
    schedule: tuple = (4.0, 8.0, 16.0, 32.0)
    bisection_tol: float = 1e-4
    grading: float = 2.0
    r_core: float = 0.02
    compact_rmax: float = 4.0

    def __post_init__(self):
        self.schedule = tuple(float(m) for m in self.schedule)
        for f in fields(self):
            if not np.all(np.isfinite(getattr(self, f.name))):
                raise ValueError(f"{f.name} must be finite")
        if self.newton_tol <= 0 or self.bisection_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_newton < 1:
            raise ValueError("max_newton must be at least 1")
        if len(self.schedule) and np.any(np.diff(self.schedule) <= 0):
            raise ValueError("schedule must be strictly increasing")
        if self.compact_rmax <= self.r_core:
            raise ValueError(
                f"compact window r <= compact_rmax={self.compact_rmax:g} must reach "
                f"beyond r_core={self.r_core:g}"
            )

    @classmethod
    def from_file(cls, path) -> "SolverConfig":
        """Parse a plain-text key=value file; '#' starts a comment.

        Each value is parsed by the type of its field's default; a tuple is a
        comma-separated list of floats.
        """
        kinds = {f.name: type(f.default) for f in fields(cls)}
        kwargs = {}
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line (expected key=value): {raw!r}")
                key, val = (part.strip() for part in line.split("=", 1))
                if key not in kinds:
                    raise ValueError(f"unknown config key {key!r}")
                if kinds[key] is tuple:
                    kwargs[key] = tuple(float(v) for v in val.split(","))
                else:
                    kwargs[key] = kinds[key](val)
        return cls(**kwargs)

    def to_lines(self) -> list[str]:
        """key = value lines, one per field, that `from_file` reads back exactly.

        str of a float is its shortest round-trip repr.
        """
        lines = []
        for f in fields(self):
            val = getattr(self, f.name)
            text = ",".join(map(str, val)) if isinstance(val, tuple) else str(val)
            lines.append(f"{f.name} = {text}")
        return lines


def _shift(f: np.ndarray, di: int, dj: int) -> np.ndarray:
    """f at node (i+di, j+dj), wrapping in both grid directions.

    A stencil carries two leading window axes, window[1+di, 1+dj] being the
    coefficient of u at offset (di, dj) from its node; the window moves
    against the grid, so each entry keeps its offset from the node it acts on.
    """
    if f.ndim == 2:
        return np.roll(f, (-di, -dj), axis=(0, 1))
    return np.roll(f, (di, dj, -di, -dj), axis=(0, 1, 2, 3))


def _face_slopes(u: np.ndarray, grid: AnnulusGrid):
    """Slopes ((x_r, y_r), (x_t, y_t)) of the radial and angular face fluxes.

    Each face flux is x / sqrt(1 + x^2 + y^2), times g on radial faces.
    Radial faces (rows i, i+1; stored at row i, n_r - 1 rows): x = u_r and
    y = mean u_theta / g.  Angular faces (columns j, j+1; stored at column
    j): x = u_theta / g and y = mean u_r, u_r central at interior nodes and
    one-sided on the boundary rows.  The slopes are linear in u, so u may
    also be a stencil (see `_shift`); they then hold their coefficients.
    """
    dt = grid.dtheta
    h = grid.h_face[:, None]
    up, down, right = _shift(u, 1, 0), _shift(u, -1, 0), _shift(u, 0, 1)
    uth = (right - _shift(u, 0, -1)) / (2.0 * dt)
    x_r = (up - u)[..., :-1, :] / h
    y_r = (0.5 * (uth + _shift(uth, 1, 0)))[..., :-1, :] / grid.g_face[:, None]
    ur = np.empty_like(u)
    ur[..., 1:-1, :] = (up - down)[..., 1:-1, :] / (grid.r[2:] - grid.r[:-2])[:, None]
    ur[..., 0, :] = (up - u)[..., 0, :] / h[0]
    ur[..., -1, :] = (u - down)[..., -1, :] / h[-1]
    x_t = (right - u) / dt / grid.g[:, None]
    y_t = 0.5 * (ur + _shift(ur, 0, 1))
    return (x_r, y_r), (x_t, y_t)


def _divergence(flux_r: np.ndarray, flux_t: np.ndarray, grid: AnnulusGrid) -> np.ndarray:
    """Finite-volume residual of the face fluxes (or their stencils), zero on pinned rows.

    No flux enters row 0: the zero-flux closure of inner = "neumann" grids.
    """
    flux_r = np.concatenate([flux_r, np.zeros_like(flux_r[..., :1, :])], axis=-2)
    res = (
        (flux_r - _shift(flux_r, -1, 0)) / grid.control[:, None]
        + (flux_t - _shift(flux_t, 0, -1)) / grid.dtheta
    ) / grid.g[:, None]
    res[..., grid.pinned, :] = 0.0
    return res


def mse_operator(u: np.ndarray, grid: AnnulusGrid) -> np.ndarray:
    """Discrete divergence-form residual of the graph operator.

    Rows pinned by Dirichlet data report zero (the operator is not defined
    there); with the zero-flux inner closure the innermost row carries its
    finite-volume residual.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != grid.shape:
        raise ValueError(f"field shape {u.shape} does not match grid {grid.shape}")
    (x_r, y_r), (x_t, y_t) = _face_slopes(u, grid)
    return _divergence(
        grid.g_face[:, None] * x_r / np.sqrt(1.0 + x_r * x_r + y_r * y_r),
        x_t / np.sqrt(1.0 + x_t * x_t + y_t * y_t),
        grid,
    )


def cartesian_operator_residual(height, x: float, y: float, step: float = 1e-3) -> float:
    """Graph-operator residual in the Cartesian chart with the full metric.

    Fallback route for cross-validating the polar discretization's chart
    choice: the divergence form (1/sqrt(det)) d_i(sqrt(det) g^{ij} u_j / W)
    is evaluated with nested central differences of a height callable
    height(x, y) (fiber arc-length units), using the closed-form coefficient
    matrix instead of the warp.  Second-order accurate in step.
    """
    if step <= 0:
        raise ValueError("finite-difference step must be positive")

    def flux(xx, yy):
        met = metric_closed_form(ChartPoint(xx, yy, 0.0))
        det = met.exx * met.eyy - met.exy**2
        ux = (height(xx + step, yy) - height(xx - step, yy)) / (2.0 * step)
        uy = (height(xx, yy + step) - height(xx, yy - step)) / (2.0 * step)
        inv = np.array([[met.eyy, -met.exy], [-met.exy, met.exx]]) / det
        grad = inv @ np.array([ux, uy])
        w = math.sqrt(1.0 + ux * grad[0] + uy * grad[1])
        return math.sqrt(det) * grad / w

    div = (
        flux(x + step, y)[0]
        - flux(x - step, y)[0]
        + flux(x, y + step)[1]
        - flux(x, y - step)[1]
    ) / (2.0 * step)
    met = metric_closed_form(ChartPoint(x, y, 0.0))
    det = met.exx * met.eyy - met.exy**2
    return float(div / math.sqrt(det))


def _boundary_values(data, theta: np.ndarray):
    if data is None:
        return None
    if isinstance(data, BoundaryData) or callable(data):
        return np.asarray(data(theta), dtype=float)
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 0:
        return np.full_like(theta, float(arr))
    if arr.shape != theta.shape:
        raise ValueError("boundary array must match the angular nodes")
    return arr


def _solve_residual(u, grid, inner_vals, outer_vals):
    res = mse_operator(u, grid)
    if grid.inner == "dirichlet":
        res[0] = u[0] - inner_vals
    res[-1] = u[-1] - outer_vals
    return res


def _newton_jacobian(u: np.ndarray, grid: AnnulusGrid) -> np.ndarray:
    """Exact Jacobian stencil of the solve residual, by the chain rule.

    stencil[i, j, 1+di, 1+dj] is the derivative of residual (i, j) with
    respect to u at (i+di, j+dj mod n_theta).  d(x / W) = ((1 + y^2) dx -
    x y dy) / W^3 with W = sqrt(1 + x^2 + y^2), and dx, dy are the face
    slopes of the unit stencil; the pinned rows are the identity.
    """
    # the unit stencil is the same at every angle, so one column serves all
    unit = np.zeros((3, 3, u.shape[0], 1))
    unit[1, 1] = 1.0

    def dflux(slopes, unit_slopes):
        (x, y), (dx, dy) = slopes, unit_slopes
        w3 = (1.0 + x * x + y * y) ** 1.5
        return (1.0 + y * y) / w3 * dx - x * y / w3 * dy

    (rad, ang), (unit_rad, unit_ang) = _face_slopes(u, grid), _face_slopes(unit, grid)
    jac = _divergence(
        grid.g_face[:, None] * dflux(rad, unit_rad), dflux(ang, unit_ang), grid
    )
    jac[..., grid.pinned, :] = unit[..., grid.pinned, :]
    return np.ascontiguousarray(jac.transpose(2, 3, 0, 1))


def _block_factor(stencil: np.ndarray):
    """Factor the stencil's linear system by block elimination in r.

    Ring i couples only to rings i-1 and i+1, through periodic-tridiagonal
    n_theta x n_theta blocks A_i, D_i, C_i.  Eliminating outward keeps the LU
    factors of each pivot block D_i - A_i D_{i-1}^-1 C_{i-1}; only the
    previous ring's gain D_{i-1}^-1 C_{i-1} is held during the pass.  Returns
    solve(rhs), which does one forward and one backward sweep with those
    factors and applies A_i and C_i straight from the stencil, so the factors
    can be reused for many right-hand sides.  An exactly singular pivot block
    raises LinAlgError.
    """
    n1, m = stencil.shape[:2]
    rows = np.arange(m)[:, None]
    cols = (rows + np.arange(-1, 2)) % m  # angular neighbours j-1, j, j+1

    def block(i, a):
        out = np.zeros((m, m))
        out[rows, cols] = stencil[i, :, a]
        return out

    factors = []
    gain = None
    for i in range(n1):
        diag = block(i, 1)
        if i > 0:
            diag -= block(i, 0) @ gain
        lu, piv, info = dgetrf(diag, overwrite_a=True)
        if info > 0:
            raise np.linalg.LinAlgError(f"singular pivot block at ring {i}")
        factors.append((lu, piv))
        if i < n1 - 1:
            gain = dgetrs(lu, piv, block(i, 2))[0]

    def couple(i, a, x):
        # the a-th off-diagonal block of ring i applied to a neighbouring ring's x
        return np.sum(stencil[i, :, a] * x[cols], axis=1)

    def solve(rhs: np.ndarray) -> np.ndarray:
        x = np.empty((n1, m))
        for i, (lu, piv) in enumerate(factors):
            b = rhs[i] - couple(i, 0, x[i - 1]) if i > 0 else rhs[i]
            x[i] = dgetrs(lu, piv, b)[0]
        for i in range(n1 - 2, -1, -1):
            lu, piv = factors[i]
            x[i] -= dgetrs(lu, piv, couple(i, 2, x[i + 1]))[0]
        return x

    return solve


def _default_guess(grid: AnnulusGrid, inner_vals, outer_vals) -> np.ndarray:
    # radial flux solution between the boundary means, plus the angular
    # variation blended along the radially harmonic coordinate S = int dr/g;
    # on graded grids the plain blend starts Newton in a bad basin
    s_incr = grid.h_face * 0.5 * (1.0 / grid.g[1:] + 1.0 / grid.g[:-1])
    s_coord = np.concatenate([[0.0], np.cumsum(s_incr)])
    w = (s_coord - s_coord[0]) / (s_coord[-1] - s_coord[0])
    if grid.inner == "dirichlet":
        mean_in = float(np.mean(inner_vals))
        mean_out = float(np.mean(outer_vals))
        try:
            prof = radial_mse_solve(
                grid.r[0], grid.r[-1], mean_in, mean_out, nodes=grid.r
            )
            base = prof.value[:, None]
        except (NoAdmissibleFluxError, QuadratureError):
            base = mean_in + (mean_out - mean_in) * w[:, None]
        return (
            base
            + (inner_vals - mean_in)[None, :] * (1.0 - w[:, None])
            + (outer_vals - mean_out)[None, :] * w[:, None]
        )
    mean = float(np.mean(outer_vals))
    shape = (grid.g / grid.g[-1])[:, None]
    return mean + (outer_vals[None, :] - mean) * shape


def dirichlet_solve(grid: AnnulusGrid, inner, outer, cfg: SolverConfig, u0=None) -> np.ndarray:
    """Damped-Newton solve of the discrete graph equation with pinned boundary rows.

    inner may be None only on zero-flux-inner grids.  Terminates when the
    sup-norm of the residual drops below cfg.newton_tol.  The Jacobian is
    factored at the first step and again after a step that leaves the merit
    above REFRESH_RATIO times its old value, or when kept factors give a
    non-finite step or one the line search rejects.  Raises NewtonError
    (carrying the last residual) when a freshly factored step is singular or
    stagnates, or after cfg.max_newton steps.  A trial state whose residual
    overflows is rejected by the line search, and an initial guess whose
    residual overflows raises ValueError.
    """
    inner_vals = _boundary_values(inner, grid.theta)
    outer_vals = _boundary_values(outer, grid.theta)
    if outer_vals is None:
        raise ValueError("outer boundary data is required")
    if grid.inner == "dirichlet" and inner_vals is None:
        raise ValueError("inner boundary data is required on a Dirichlet-inner grid")
    if not np.all(np.isfinite(outer_vals)) or (
        inner_vals is not None and not np.all(np.isfinite(inner_vals))
    ):
        raise ValueError("boundary data must be finite")

    if u0 is None:
        u = _default_guess(grid, inner_vals, outer_vals)
    else:
        u = np.array(u0, dtype=float, copy=True)
        if u.shape != grid.shape:
            raise ValueError("initial guess shape does not match the grid")
        if not np.all(np.isfinite(u)):
            raise ValueError("initial guess must be finite")
    if grid.inner == "dirichlet":
        u[0] = inner_vals
    u[-1] = outer_vals

    # line-search merit: volume-weighted l2 norm of the residual, so graded
    # grids do not let the tiny inner cells dominate the step acceptance;
    # convergence is still declared on the raw sup norm
    wts = (grid.g * grid.control)[:, None] * grid.dtheta

    def merit(res):
        return float(np.sqrt(np.sum((res * wts) ** 2)))

    def residual(v):
        # a flux whose W overflows evaluates to zero and fakes a converged
        # state far outside the data, so overflow raises instead
        with np.errstate(over="raise"):
            return _solve_residual(v, grid, inner_vals, outer_vals)

    def line_search(du, m0):
        """Halve from the full step until the merit decreases: (u, res, omega, merit) or None."""
        omega = 1.0
        while omega > 1e-6:
            trial = u + omega * du
            try:
                res_t = residual(trial)
            except FloatingPointError:
                pass  # rejected like a merit increase
            else:
                m_t = merit(res_t)
                if (
                    m_t < m0 * (1.0 - 1e-4 * omega)
                    or float(np.max(np.abs(res_t))) <= cfg.newton_tol
                ):
                    return trial, res_t, omega, m_t
            omega *= 0.5
        return None

    try:
        res = residual(u)
    except FloatingPointError:
        raise ValueError("initial guess overflows the residual") from None
    omega_used = 1.0
    solve, fresh = None, True
    for it in range(cfg.max_newton):
        rnorm = float(np.max(np.abs(res)))
        logger.info("newton iter=%d residual=%.3e damping=%.3g jacobian=%s",
                    it, rnorm, omega_used, "fresh" if fresh else "reused")
        if rnorm <= cfg.newton_tol:
            return u
        m0 = merit(res)
        while True:
            if fresh:
                solve = None  # release the old factors before building new ones
                try:
                    solve = _block_factor(_newton_jacobian(u, grid))
                except np.linalg.LinAlgError:
                    raise NewtonError("singular linearization in Newton step", rnorm) from None
            du = solve(-res)
            finite = bool(np.all(np.isfinite(du)))
            step = line_search(du, m0) if finite else None
            if step is not None:
                break
            if not fresh:
                fresh = True  # the kept factors failed here: refactor at this iterate
            elif not finite:
                raise NewtonError("singular linearization in Newton step", rnorm)
            else:
                raise NewtonError(
                    f"Newton stagnated at residual {rnorm:.3e} (no productive damping)",
                    rnorm,
                )
        u, res, omega_used, m1 = step
        fresh = m1 > REFRESH_RATIO * m0
    rnorm = float(np.max(np.abs(res)))
    raise NewtonError(
        f"Newton did not converge in {cfg.max_newton} iterations "
        f"(last residual {rnorm:.3e})",
        rnorm,
    )


def boundary_gradient_sup(u: np.ndarray, grid: AnnulusGrid) -> float:
    """Sup over the inner boundary row of the intrinsic gradient norm.

    Radial derivative by a one-sided second-order three-point difference,
    angular derivative by the periodic central difference, combined as
    sqrt(u_r^2 + u_theta^2 / g^2).
    """
    u = np.asarray(u, dtype=float)
    r = grid.r
    h1 = r[1] - r[0]
    h2 = r[2] - r[0]
    a1 = h2 / (h1 * (h2 - h1))
    a2 = -h1 / (h2 * (h2 - h1))
    a0 = -(a1 + a2)
    ur0 = a0 * u[0] + a1 * u[1] + a2 * u[2]
    ut0 = (np.roll(u[0], -1) - np.roll(u[0], 1)) / (2.0 * grid.dtheta)
    return float(np.max(np.sqrt(ur0**2 + (ut0 / grid.g[0]) ** 2)))


@dataclass
class ExteriorSolution:
    """Exhaustion trace of an exterior solve: one field per truncation radius."""

    s: float
    r0: float
    schedule: list
    t_trace: list
    barrier_caps: list
    boundary_gradients: list
    grids: list
    fields: list
    cauchy: list

    @property
    def grid(self) -> AnnulusGrid:
        return self.grids[-1]

    @property
    def u(self) -> np.ndarray:
        return self.fields[-1]


def _compact_sup_diff(grid_a, u_a, grid_b, u_b, r_lo, r_hi) -> float:
    """Sup of |u_a - u_b| over the window [r_lo, r_hi], fields on different radial grids.

    The window must hold a node of grid_a; the callers check that before solving.
    """
    mask = (grid_a.r >= r_lo) & (grid_a.r <= r_hi)
    radii = grid_a.r[mask]
    interp = np.empty((mask.sum(), u_b.shape[1]))
    for j in range(u_b.shape[1]):
        interp[:, j] = np.interp(radii, grid_b.r, u_b[:, j])
    return float(np.max(np.abs(u_a[mask] - interp)))


def _radial_flux_prediction(s: float, r0: float, m: float) -> float:
    """Continuum prediction of the outer value: flux fixed by the inner gradient."""
    if s == 0:
        return 0.0
    c = s * warp_g(r0) / math.sqrt(1.0 + s * s)
    return flux_height_difference(c, r0, m)


def exterior_solve(s: float, r0: float, cfg: SolverConfig) -> ExteriorSolution:
    """Exterior Dirichlet exhaustion with boundary-gradient matching.

    For each truncation radius m: zero inner data on r = r0, constant outer
    value t on r = m, and a safeguarded secant search on t until the discrete
    inner boundary gradient equals s within cfg.bisection_tol (the tolerance
    on the gradient match).  It starts at the one-dimensional flux prediction
    and keeps t in the bracket [previous t_m, f(m - r0)] capped by the radial
    barrier; raises BracketError after MAX_OUTER_EVALS solves at one m.
    Consecutive fields are compared (`cauchy`) at the nodes of the earlier
    grid in [r0 + 0.2, 0.75 m_1]; a schedule that leaves a compared grid
    without a node there raises ValueError before any solve.
    """
    if not math.isfinite(s) or s < 0:
        raise ValueError("boundary gradient s must be finite and nonnegative")
    if not math.isfinite(r0) or r0 <= 0:
        raise ValueError("inner radius r0 must be finite and positive")
    if not cfg.schedule:
        raise ValueError("empty exhaustion schedule")
    if cfg.schedule[0] <= r0:
        raise ValueError("schedule radii must exceed r0")

    barrier = BarrierParams(s=s, alpha=r0) if s > 0 else None
    schedule = list(cfg.schedule)
    grids = [AnnulusGrid.annulus(r0, m, cfg.n_r, cfg.n_theta, cfg.grading) for m in schedule]
    # each field but the last is compared with the next one at its own nodes
    # inside this window
    window = (r0 + 0.2, 0.75 * schedule[0])
    for grid in grids[:-1]:
        if not np.any((grid.r >= window[0]) & (grid.r <= window[1])):
            raise ValueError(
                f"Cauchy window [{window[0]:g}, {window[1]:g}] holds no node of the "
                f"m={grid.r[-1]:g} grid"
            )
    t_trace, caps, grads, fields, cauchy = [], [], [], [], []
    prev_t = 0.0
    prev_grid = None
    prev_field = None

    for m, grid in zip(schedule, grids):
        cap = barrier_f(barrier, m - r0)[0] if barrier is not None else 0.0

        if s == 0:
            u = np.zeros(grid.shape)
            t_m, grad = 0.0, 0.0
        else:
            # secant on t -> grad(t) - s, which increases with t; the zero
            # solution gives the first secant point (0, 0), so the first step
            # is the proportional one t s / grad
            lo, hi = prev_t, cap
            t = min(max(_radial_flux_prediction(s, r0, m), lo), hi)
            t_old, g_old, u = 0.0, 0.0, None
            for _ in range(MAX_OUTER_EVALS):
                u = dirichlet_solve(grid, 0.0, t, cfg, u0=u)
                grad = boundary_gradient_sup(u, grid)
                if abs(grad - s) <= cfg.bisection_tol:
                    break
                if grad < s:
                    lo = t
                else:
                    hi = t
                dt, dg = t - t_old, grad - g_old
                t_next = t - (grad - s) * dt / dg if dt * dg > 0 else math.nan
                t_old, g_old = t, grad
                # a proposal outside the open bracket falls back to its
                # midpoint, so no t above the barrier cap is ever solved
                t = t_next if lo < t_next < hi else 0.5 * (lo + hi)
            else:
                raise BracketError(
                    f"no outer value in [{lo:.8g}, {hi:.8g}] matched the boundary "
                    f"gradient s={s} at m={m} in {MAX_OUTER_EVALS} solves"
                )
            t_m = t

        logger.info("exterior m=%g: t_m=%.8g cap=%.8g gradient=%.6g", m, t_m, cap, grad)
        if prev_field is not None:
            cauchy.append(
                _compact_sup_diff(prev_grid, prev_field, grid, u, *window)
            )
        t_trace.append(t_m)
        caps.append(cap)
        grads.append(grad)
        fields.append(u)
        prev_t, prev_grid, prev_field = t_m, grid, u

    return ExteriorSolution(
        s=s,
        r0=r0,
        schedule=schedule,
        t_trace=t_trace,
        barrier_caps=caps,
        boundary_gradients=grads,
        grids=grids,
        fields=fields,
        cauchy=cauchy,
    )


@dataclass
class AsymptoticSolution:
    """Truncated-disk approximations of angular data at infinity."""

    radii: list
    grids: list
    fields: list
    sup_diffs: list  # consecutive-R sup differences on the compact disk
    compact_rmax: float

    @property
    def u(self) -> np.ndarray:
        return self.fields[-1]


def asymptotic_solve(phi, cfg: SolverConfig, radii=None) -> AsymptoticSolution:
    """Solve the graph equation on disks D_R with fixed angular data phi(theta).

    The same data is imposed at every truncation radius R of the schedule;
    the reported diagnostic is the sup-difference of consecutive solutions on
    the fixed compact disk r <= cfg.compact_rmax.  Convergence in R is
    reported, not asserted.
    """
    radii = [float(x) for x in (radii if radii is not None else cfg.schedule)]
    if not (radii and np.all(np.isfinite(radii)) and radii[0] > cfg.r_core
            and np.all(np.diff(radii) > 0)):
        raise ValueError(f"radii {radii} must be finite, increasing and above r_core={cfg.r_core}")
    if radii[0] <= cfg.compact_rmax:
        logger.info(
            "smallest disk radius %g is inside the compact window %g",
            radii[0], cfg.compact_rmax,
        )
    grids, fields = [], []
    for rad in radii:
        grid = AnnulusGrid.disk(rad, cfg.n_r, cfg.n_theta, cfg.r_core)
        u = dirichlet_solve(grid, None, phi, cfg)
        logger.info("asymptotic R=%g: range [%.6g, %.6g]", rad, u.min(), u.max())
        grids.append(grid)
        fields.append(u)
    sup_diffs = [
        _compact_sup_diff(grids[k], fields[k], grids[k + 1], fields[k + 1],
                          grids[0].r[0], cfg.compact_rmax)
        for k in range(len(radii) - 1)
    ]
    return AsymptoticSolution(radii, grids, fields, sup_diffs, cfg.compact_rmax)


@dataclass
class FoliationReport:
    """Strict-ordering and rim-separation diagnostics for a family of exterior solves."""

    s_values: list
    ordered: bool
    min_interior_gaps: list  # per consecutive pair, over the final fields
    rim_separations: list  # per consecutive pair, t_m differences along the schedule
    rim_separation_min: float

    @property
    def separated(self) -> bool:
        return self.rim_separation_min > 0


def foliation_check(sols) -> FoliationReport:
    """Verify u_{s1} < u_{s2} at interior nodes for s1 < s2 and report rim gaps.

    All solutions must share r0, schedule, and grid shape.  The rim
    separation per truncation radius is the difference of outer values t_m;
    the report records whether it stays bounded away from zero across the
    schedule.
    """
    sols = sorted(sols, key=lambda s: s.s)
    if len(sols) < 2:
        raise ValueError("need at least two exterior solutions")
    s_vals = [sol.s for sol in sols]
    if np.any(np.diff(s_vals) <= 0):
        raise ValueError("gradient parameters s must be distinct")
    base = sols[0]
    for sol in sols[1:]:
        if sol.r0 != base.r0 or sol.schedule != base.schedule:
            raise ValueError("solutions must share r0 and schedule")
        if sol.u.shape != base.u.shape:
            raise ValueError("solutions must share the grid shape")

    gaps, rims = [], []
    ordered = True
    for lo, hi in zip(sols[:-1], sols[1:]):
        gap = float(np.min(hi.u[1:-1] - lo.u[1:-1]))
        gaps.append(gap)
        ordered = ordered and gap > 0
        rims.append([t2 - t1 for t1, t2 in zip(lo.t_trace, hi.t_trace)])
    rim_min = float(min(min(row) for row in rims))
    return FoliationReport(
        s_values=s_vals,
        ordered=ordered,
        min_interior_gaps=gaps,
        rim_separations=rims,
        rim_separation_min=rim_min,
    )
