"""Minimal surface equation on radial domains of the model surface.

The discretization is a conservative finite-volume scheme in geodesic polar
coordinates: with W = sqrt(1 + u_r^2 + u_theta^2/g^2) the residual at a node
is (1/g) [ d_r(g u_r / W) + d_theta(u_theta / (g W)) ] with fluxes evaluated
on staggered faces, so constant fields have exactly zero residual and the
discrete solution inherits a maximum principle on the tested data.

Each face flux is x / sqrt(1 + x^2 + y^2) in two slopes that are fixed
differences of u (`_face_slopes`), each scaled by one metric column that the
grid holds (`AnnulusGrid`).  Nonlinear solves use inexact Newton damped by
Armijo-style halving.  Each step linearizes at its iterate: the chain rule
gives face weights (`_flux_weights`) from the slopes and W that the
iterate's residual evaluation kept (`_faces`), so a Newton step evaluates
no slopes of its iterate again; one map (`_linearized`) turns the weights
into Jacobian-vector products or, on the unit stencil, the 9-point
stencil.  The rotational symmetry makes the
linearization circulant in theta up to its theta-variation, so GMRES on
those products is preconditioned by the stencil of the theta-averaged
weights: one tridiagonal system in r per Fourier mode, exact for
rotationally symmetric states, all modes factored together by odd-even
cyclic reduction (Buzbee, Golub and Nielson, SIAM J. Numer. Anal. 7 (1970)
627-656) in about log2(n_r) vectorized numpy levels.  GMRES stops once the
preconditioned residual has fallen by the forcing term
eta = max(KRYLOV_RTOL, min(0.1, |F|)), |F| the sup-norm residual of the
iterate: a forcing term of the order of |F|
keeps the local quadratic convergence of Newton (Dembo, Eisenstat and
Steihaug, SIAM J. Numer. Anal. 19 (1982) 400-408), so the early steps take
one or two iterations and only the last ones solve to KRYLOV_RTOL.  A solve
still stops only when |F| <= newton_tol.  When GMRES misses eta in
MAX_KRYLOV iterations, the stencil is solved by block elimination in r, and
the later steps of that solve go straight to it.  A damped Newton step is
compared with the lagged-diffusivity step (weights (1/W, 0), W frozen at the
iterate), and the one with the lower merit is taken.  Each step logs one line
on the "nil3lab.solver" logger: step= (newton or lagged) and krylov= (GMRES
iterations, "exact" for block elimination); the initial guess logs
step=none krylov=0.

Two boundary-value programs sit on top:

* `exterior_solve` - zero data on the inner circle r = r0, and for each
  truncation radius m of the exhaustion schedule the constant outer value
  whose discrete radial solution has the prescribed inner boundary gradient
  s: one root-find on the innermost slope of that solution, checked against
  the radial barrier.  Each Dirichlet solve starts at that solution, whose
  residual is roundoff, and takes no Newton step where that roundoff is below
  newton_tol.
* `asymptotic_solve` - truncated-disk approximations of angular data at
  infinity; the disk rings are offset half a step from the pole, so no ring
  sits at the coordinate origin, and the innermost cell reaches r = 0, where
  g(0) = 0 makes the radial flux vanish exactly (the pole treatment of
  Mohseni and Colonius, J. Comput. Phys. 157 (2000) 787-795).  Each disk
  solve starts at the harmonic extension of its data in the conformal
  radius (`_default_guess`), which solves the equation up to the cube of
  the data's angular amplitude.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .nilcore import ChartPoint, metric_closed_form
from .radial import BarrierParams, _secant_root, barrier_f
from .surface import conformal_radius, warp_g

logger = logging.getLogger("nil3lab.solver")

# GMRES iterations a Newton step may take before exact block elimination takes
# over, and the smallest factor by which they are asked to cut the
# preconditioned residual (the floor of the forcing term in `dirichlet_solve`)
MAX_KRYLOV = 20
KRYLOV_RTOL = 1e-12

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

    The grid computes its angles theta_j = j dtheta, dtheta = 2 pi / n_theta.
    inner = "dirichlet" pins the row r[0] to boundary data; inner = "pole"
    makes the grid a disk: the innermost control cell reaches the pole, and
    its inner face at r = 0 carries no flux because g(0) = 0.  A pole grid
    needs r[0] < r[1] - r[0], so that its innermost ring lies within one
    cell of the pole.
    """

    r: np.ndarray
    n_theta: int
    inner: str = "dirichlet"

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        if self.r.ndim != 1 or len(self.r) < 5:
            raise ValueError("need at least 5 radial nodes")
        if not np.all(np.isfinite(self.r)):
            raise ValueError("radial nodes must be finite")
        if np.any(np.diff(self.r) <= 0):
            raise ValueError("radial nodes must be strictly increasing")
        if self.r[0] <= 0:
            raise ValueError("innermost radius must be positive")
        m = self.n_theta
        if not isinstance(m, (int, np.integer)) or m < 8:
            raise ValueError(f"need an integer count of at least 8 angular nodes, got {m!r}")
        dt = 2.0 * math.pi / m
        self.theta = np.arange(m) * dt
        if self.inner not in ("dirichlet", "pole"):
            raise ValueError("inner mode must be 'dirichlet' or 'pole'")
        if self.inner == "pole" and self.r[0] >= self.r[1] - self.r[0]:
            raise ValueError("a pole grid's innermost ring must lie within one cell of the pole")

        self.dtheta = dt
        self.pinned = [0, -1] if self.inner == "dirichlet" else [-1]  # rows held by data
        self.g = warp_g(self.r)
        self.h_face = np.diff(self.r)
        self.r_face = 0.5 * (self.r[1:] + self.r[:-1])
        self.g_face = warp_g(self.r_face)
        ctrl = np.empty_like(self.r)
        ctrl[1:-1] = 0.5 * (self.r[2:] - self.r[:-2])
        # a disk's innermost cell reaches the pole, an annulus's stops at r[0]
        ctrl[0] = self.r_face[0] if self.inner == "pole" else 0.5 * self.h_face[0]
        ctrl[-1] = 0.5 * self.h_face[-1]
        self.control = ctrl
        # the metric factors of `_face_slopes` and `_divergence` as (rows, 1)
        # columns, so each difference of u is scaled by one multiplication
        self.inv_h = 1.0 / self.h_face[:, None]
        self.inv_4dt_gface = 1.0 / (4.0 * dt * self.g_face[:, None])
        self.inv_span = 1.0 / (self.r[2:] - self.r[:-2])[:, None]
        self.inv_dt_g = 1.0 / (dt * self.g[:, None])
        self.inv_control_g = 1.0 / (ctrl * self.g)[:, None]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.r), self.n_theta)

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
        return cls(r, n_theta, inner="dirichlet")

    @classmethod
    def disk(cls, radius: float, n_r: int, n_theta: int) -> "AnnulusGrid":
        """Disk grid of pole-offset rings r_i = (i + 1/2) radius / (n_r - 1/2), r[-1] = radius.

        The innermost cell spans [0, r_face[0]], so no ring sits at the pole.
        """
        if not 0 < radius < math.inf:
            raise ValueError("need 0 < radius < inf")
        r = (np.arange(n_r) + 0.5) * (radius / (n_r - 0.5))
        r[-1] = radius
        return cls(r, n_theta, inner="pole")


@dataclass
class SolverConfig:
    """Newton tolerances, grid sizes, and the exhaustion schedule.

    bisection_tol, a name kept for old configuration files, bounds |grad - s|
    of each solved exterior field; no search uses it.  r_core is accepted for
    old files and is unused: the disk grids reach the pole (`AnnulusGrid.disk`).
    """

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
        # sizes feed range and linspace, and to_lines must write them as from_file reads them
        for name in ("max_newton", "n_r", "n_theta"):
            val = getattr(self, name)
            if not float(val).is_integer():
                raise ValueError(f"{name} must be an integer, got {val!r}")
            setattr(self, name, int(val))
        if self.newton_tol <= 0 or self.bisection_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_newton < 1:
            raise ValueError("max_newton must be at least 1")
        if len(self.schedule) and np.any(np.diff(self.schedule) <= 0):
            raise ValueError("schedule must be strictly increasing")

    @classmethod
    def from_file(cls, path) -> "SolverConfig":
        """Parse a plain-text key=value file; '#' starts a comment.

        Each value is a float, sizes included (so `__post_init__` names a
        non-integral size), and the schedule a comma-separated list of floats.
        A line's error names the file, the line and the key; a key given
        twice names both lines.
        """
        kinds = {f.name: type(f.default) for f in fields(cls)}
        kwargs, seen = {}, {}
        with open(path) as fh:
            for num, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                where = f"{path}: line {num}"
                if "=" not in line:
                    raise ValueError(f"{where}: bad config line (expected key=value): {raw!r}")
                key, val = (part.strip() for part in line.split("=", 1))
                if key not in kinds:
                    raise ValueError(f"{where}: unknown config key {key!r}")
                if key in seen:
                    raise ValueError(f"{where}: config key {key!r} repeats line {seen[key]}")
                seen[key] = num
                try:
                    kwargs[key] = (tuple(float(v) for v in val.split(","))
                                   if kinds[key] is tuple else float(val))
                except ValueError as exc:
                    raise ValueError(f"{where}: bad value for {key}: {exc}") from None
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
    one-sided on the boundary rows.  Each slope is a raw difference of u
    times one of the metric columns the grid holds (1/h, 1/(4 dtheta g_face),
    1/span, 1/(dtheta g)).  The slopes are linear in u, so u may also be a
    stencil (see `_shift`); they then hold their coefficients.
    """
    up, down, right = _shift(u, 1, 0), _shift(u, -1, 0), _shift(u, 0, 1)
    turn = right - _shift(u, 0, -1)  # 2 dtheta u_theta
    x_r = (up - u)[..., :-1, :] * grid.inv_h
    y_r = (turn + _shift(turn, 1, 0))[..., :-1, :] * grid.inv_4dt_gface
    ur = np.empty_like(u)
    ur[..., 1:-1, :] = (up - down)[..., 1:-1, :] * grid.inv_span
    ur[..., 0, :] = x_r[..., 0, :]  # one-sided: the slope of the innermost face
    ur[..., -1, :] = (u - down)[..., -1, :] * grid.inv_h[-1]
    x_t = (right - u) * grid.inv_dt_g
    y_t = 0.5 * (ur + _shift(ur, 0, 1))
    return (x_r, y_r), (x_t, y_t)


def _faces(u: np.ndarray, grid: AnnulusGrid):
    """The face slopes of u with W = sqrt(1 + x^2 + y^2): ((x_r, y_r, W_r), (x_t, y_t, W_t))."""
    return tuple((x, y, np.sqrt(1.0 + x * x + y * y)) for x, y in _face_slopes(u, grid))


def _divergence(flux_r: np.ndarray, flux_t: np.ndarray, grid: AnnulusGrid) -> np.ndarray:
    """Finite-volume residual of the face fluxes (or their stencils), zero on pinned rows.

    No flux enters row 0: on inner = "pole" grids that face is the pole.
    """
    flux_r = np.concatenate([flux_r, np.zeros_like(flux_r[..., :1, :])], axis=-2)
    res = ((flux_r - _shift(flux_r, -1, 0)) * grid.inv_control_g
           + (flux_t - _shift(flux_t, 0, -1)) * grid.inv_dt_g)
    res[..., grid.pinned, :] = 0.0
    return res


def _operator(faces, grid: AnnulusGrid) -> np.ndarray:
    """The residual of `mse_operator` from the `_faces` of the field."""
    (x_r, _, w_r), (x_t, _, w_t) = faces
    return _divergence(grid.g_face[:, None] * x_r / w_r, x_t / w_t, grid)


def mse_operator(u: np.ndarray, grid: AnnulusGrid) -> np.ndarray:
    """Discrete divergence-form residual of the graph operator.

    Rows pinned by Dirichlet data report zero (the operator is not defined
    there); with the zero-flux inner closure the innermost row carries its
    finite-volume residual.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != grid.shape:
        raise ValueError(f"field shape {u.shape} does not match grid {grid.shape}")
    return _operator(_faces(u, grid), grid)


def cartesian_operator_residual(height, x: float, y: float) -> float:
    """Graph-operator residual in the Cartesian chart with the full metric.

    Fallback route for cross-validating the polar discretization's chart
    choice: the divergence form (1/sqrt(det)) d_i(sqrt(det) g^{ij} u_j / W)
    is evaluated with nested central differences, of step 1e-3, of a height
    callable height(x, y) (fiber arc-length units), using the closed-form
    coefficient matrix instead of the warp.  Second-order accurate in the step.
    """
    step = 1e-3

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
    arr = np.asarray(data(theta) if callable(data) else data, dtype=float)
    if arr.ndim == 0:
        return np.full_like(theta, float(arr))
    if arr.shape != theta.shape:
        raise ValueError("boundary array must match the angular nodes")
    return arr


def _solve_residual(u, grid, inner_vals, outer_vals):
    """(residual, faces) of u: the operator with the boundary rows' misfit, and its `_faces`."""
    faces = _faces(u, grid)
    res = _operator(faces, grid)
    if grid.inner == "dirichlet":
        res[0] = u[0] - inner_vals
    res[-1] = u[-1] - outer_vals
    return res, faces


def _flux_weights(faces):
    """Weights ((a_r, b_r), (a_t, b_t)) of the linearized radial and angular face fluxes.

    For the face slopes (x, y) and W of `_faces`, d(x / W) = a dx - b dy
    with a = (1 + y^2) / W^3 and b = x y / W^3.  The solver passes the faces
    that its residual evaluation kept, so a Newton step evaluates no slopes
    of its iterate.
    """
    weights = []
    for x, y, w in faces:
        w3 = w * w * w
        weights.append(((1.0 + y * y) / w3, x * y / w3))
    return tuple(weights)


def _lagged_weights(u: np.ndarray, grid: AnnulusGrid):
    """Face weights (1/W, 0) of the lagged-diffusivity step, W frozen at u.

    The residual is linear in u at frozen W, so this step lands on the
    Picard iterate: the solution of div(grad u / W) = 0 with the boundary data.
    """
    return tuple((1.0 / w, np.zeros_like(x)) for x, _, w in _faces(u, grid))


def _linearized(weights, v: np.ndarray, grid: AnnulusGrid) -> np.ndarray:
    """The solve residual linearized at the face weights, applied to v.

    For a field v this is the Jacobian-vector product; for the unit stencil
    (see `_shift`) it is the Jacobian stencil, window axes first.  The
    pinned rows are the identity.
    """
    (a_r, b_r), (a_t, b_t) = weights
    (dx_r, dy_r), (dx_t, dy_t) = _face_slopes(v, grid)
    out = _divergence(
        grid.g_face[:, None] * (a_r * dx_r - b_r * dy_r), a_t * dx_t - b_t * dy_t, grid
    )
    out[..., grid.pinned, :] = v[..., grid.pinned, :]
    return out


def _unit_stencil(grid: AnnulusGrid) -> np.ndarray:
    # the unit stencil is the same at every angle, so one column serves all
    unit = np.zeros((3, 3, grid.shape[0], 1))
    unit[1, 1] = 1.0
    return unit


def _block_solve(stencil: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the stencil's linear system for rhs by block elimination in r.

    Ring i couples only to rings i-1 and i+1, through periodic-tridiagonal
    n_theta x n_theta blocks A_i, D_i, C_i (window rows 0, 1, 2 of the
    stencil, see `_shift`).  The forward sweep solves each pivot block
    D_i - A_i G_{i-1} once for the gain and the partial solution together,
    [G_i | y_i] from [C_i | rhs_i - A_i y_{i-1}]; the backward sweep gives
    x_i = y_i - G_i x_{i+1}.  An exactly singular pivot block raises
    LinAlgError.
    """
    n1, m = rhs.shape
    rows = np.arange(m)[:, None]
    cols = (rows + np.arange(-1, 2)) % m  # angular neighbours j-1, j, j+1

    def block(a, i):
        out = np.zeros((m, m))
        out[rows, cols] = stencil[a, :, i].T
        return out

    gains = np.empty((n1, m, m + 1))  # [G_i | y_i] per ring
    for i in range(n1):
        pivot = block(1, i)
        right = np.column_stack([block(2, i), rhs[i]])
        if i > 0:
            coupled = block(0, i) @ gains[i - 1]
            pivot -= coupled[:, :m]
            right[:, m] -= coupled[:, m]
        try:
            gains[i] = np.linalg.solve(pivot, right)
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError(f"singular pivot block at ring {i}") from None
    x = gains[:, :, m].copy()
    for i in range(n1 - 2, -1, -1):
        x[i] -= gains[i, :, :m] @ x[i + 1]
    return x


def _cyclic_reduction(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
    """Factor stacked tridiagonal systems by odd-even cyclic reduction.

    Axis 0 runs over the n rows and axis 1 over the systems; row i reads
    lower[i-1] x[i-1] + diag[i] x[i] + upper[i] x[i+1] (LAPACK's gttrf
    layout).  Each level eliminates the odd rows from the even ones, which
    leaves a tridiagonal system of half the size (Buzbee, Golub and Nielson,
    SIAM J. Numer. Anal. 7 (1970) 627-656), so about log2(n) vectorized
    levels reach one row; a level of odd length is padded with one identity
    row first.  There is no pivoting.  Returns solve(rhs), rhs shaped like
    diag, or (n, k) for a diag of shape (n, 1); a zero reduced diagonal
    raises LinAlgError.
    """
    levels = []
    while len(diag) > 1:
        pad = len(diag) % 2
        if pad:
            zero = np.zeros_like(diag[:1])
            lower, diag, upper = (np.concatenate([lower, zero]),
                                  np.concatenate([diag, zero + 1.0]),
                                  np.concatenate([upper, zero]))
        if not diag[1::2].all():
            raise np.linalg.LinAlgError("zero reduced diagonal")
        # the odd rows' couplings and negated inverse diagonals, and the
        # multiples of them that the even rows subtract
        odd_lower, odd_upper, neg_inv = lower[0::2], upper[1::2], -1.0 / diag[1::2]
        from_below = lower[1::2] * neg_inv[:-1]
        from_above = upper[0::2] * neg_inv
        diag = diag[0::2] + from_above * odd_lower
        diag[1:] += from_below * odd_upper
        lower, upper = from_below * odd_lower[:-1], from_above[:-1] * odd_upper
        levels.append((pad, odd_lower, odd_upper, neg_inv, from_below, from_above))
    if not diag.all():
        raise np.linalg.LinAlgError("zero reduced diagonal")
    last_inv = 1.0 / diag

    def solve(rhs: np.ndarray) -> np.ndarray:
        odd_rhs = []
        for pad, _, _, _, from_below, from_above in levels:
            if pad:
                rhs = np.concatenate([rhs, np.zeros_like(rhs[:1])])
            odd = rhs[1::2]
            odd_rhs.append(odd)
            rhs = rhs[0::2] + from_above * odd
            rhs[1:] += from_below * odd[:-1]
        x = rhs * last_inv
        for (pad, odd_lower, odd_upper, neg_inv, _, _), odd in zip(levels[::-1], odd_rhs[::-1]):
            x_odd = odd_lower * x - odd
            x_odd[:-1] += odd_upper * x[1:]
            x_odd *= neg_inv
            full = np.empty((2 * len(x),) + x.shape[1:], dtype=x.dtype)
            full[0::2] = x
            full[1::2] = x_odd
            x = full[:-1] if pad else full  # drop the padded identity row
        return x

    return solve


def _averaged_solver(column: np.ndarray, m: int):
    """Exact solver of a theta-independent stencil on m angles, by a real FFT in theta.

    column[1+di, 1+dj, i] is the stencil of ring i, the same at every angle.
    The system is circulant in theta, so Fourier mode k of a ring couples
    only to mode k of the neighbouring rings: the modes 0..m//2 are
    complex tridiagonal systems in r, factored together by odd-even cyclic
    reduction (`_cyclic_reduction`; Buzbee, Golub and Nielson, SIAM J.
    Numer. Anal. 7 (1970) 627-656).  Returns solve(rhs); a zero reduced
    diagonal raises LinAlgError.
    """
    # x at angle j + dj has the Fourier coefficient exp(2 pi i k dj / m) X_k, so
    # symbol[a, i, k] = column[a, 1, i] + (column[a, 0, i] + column[a, 2, i]) cos k dtheta
    #                   + i (column[a, 2, i] - column[a, 0, i]) sin k dtheta
    # is the coefficient of mode k on ring i + a - 1 in the row of ring i
    angle = (2.0 * math.pi / m) * np.arange(m // 2 + 1)
    symbol = np.empty(column.shape[:1] + column.shape[2:] + angle.shape, dtype=complex)
    symbol.real = column[:, 1, :, None] + (column[:, 0] + column[:, 2])[..., None] * np.cos(angle)
    symbol.imag = (column[:, 2] - column[:, 0])[..., None] * np.sin(angle)
    # rings 0 and n1 - 1 end each mode's system
    factored = _cyclic_reduction(symbol[0, 1:], symbol[1], symbol[2, :-1])

    def solve(rhs: np.ndarray) -> np.ndarray:
        return np.fft.irfft(factored(np.fft.rfft(rhs, axis=1)), n=m, axis=1)

    return solve


def _gmres(apply, precond, rhs: np.ndarray, rtol: float):
    """Left-preconditioned GMRES from x = 0 for apply(x) = rhs.

    Returns (x, iterations) once the preconditioned residual has fallen by
    the factor rtol, or None when that takes more than MAX_KRYLOV iterations,
    gives a non-finite x, or the preconditioned rhs is zero or not finite (a
    Newton step never asks for a zero rhs).  Givens rotations keep the
    Hessenberg matrix triangular, so the residual norm is known at every
    iteration.
    """
    r = precond(rhs).ravel()
    beta = float(np.linalg.norm(r))
    if not 0.0 < beta < math.inf:
        return None
    basis = np.empty((MAX_KRYLOV + 1, r.size))
    basis[0] = r / beta
    tri = np.zeros((MAX_KRYLOV, MAX_KRYLOV))  # the rotated Hessenberg matrix
    rotations = []
    g = [beta]  # the rotated residual: |g[-1]| is the residual norm
    for k in range(MAX_KRYLOV):
        w = precond(apply(basis[k].reshape(rhs.shape))).ravel()
        done = basis[: k + 1]
        h = done @ w  # classical Gram-Schmidt, twice, to working precision
        w -= h @ done
        dh = done @ w
        w -= dh @ done
        col = (h + dh).tolist() + [float(np.linalg.norm(w))]
        if col[-1] > 0.0:
            basis[k + 1] = w / col[-1]
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        rho = math.hypot(col[k], col[k + 1])
        if not rho > 0.0:
            return None
        c, s = col[k] / rho, col[k + 1] / rho
        rotations.append((c, s))
        col[k] = rho
        tri[: k + 1, k] = col[: k + 1]
        g[k:] = [c * g[k], -s * g[k]]
        if abs(g[-1]) <= rtol * beta:
            y = np.linalg.solve(tri[: k + 1, : k + 1], g[:-1])
            x = (y @ done).reshape(rhs.shape)
            return (x, k + 1) if np.all(np.isfinite(x)) else None
    return None


def _newton_step(weights, rhs: np.ndarray, grid: AnnulusGrid, gmres: bool = True,
                 rtol: float = KRYLOV_RTOL):
    """Solve J du = rhs, J linearized at the face weights: (du, GMRES iterations or "exact").

    With gmres, `_gmres` runs on the matrix-free products of `_linearized`
    until the preconditioned residual has fallen by rtol, preconditioned by
    `_averaged_solver` on the stencil of the theta-averaged face weights,
    which is the theta-average of the full stencil; for rotationally
    symmetric states that preconditioner is the system itself and one
    iteration suffices.  Without gmres, or when GMRES does not reach rtol in
    MAX_KRYLOV iterations, gives a non-finite du or the averaged system is
    singular, the full stencil is built from the same weights and solved
    by `_block_solve`.  A singular pivot block raises LinAlgError.
    """
    if gmres:
        mean = tuple(tuple(w.mean(axis=1, keepdims=True) for w in face) for face in weights)
        column = _linearized(mean, _unit_stencil(grid), grid)[..., 0]
        try:
            precond = _averaged_solver(column, grid.shape[1])
        except np.linalg.LinAlgError:
            pass
        else:
            found = _gmres(lambda v: _linearized(weights, v, grid), precond, rhs, rtol)
            if found is not None:
                return found
    return _block_solve(_linearized(weights, _unit_stencil(grid), grid), rhs), "exact"


def _radial_slopes(grid: AnnulusGrid, x0: float) -> np.ndarray:
    """Face slopes of the discrete radial solution whose innermost face has slope x0 >= 0.

    Every radial face carries the flux g x / sqrt(1 + x^2) = c, so face i
    has slope x = c / sqrt((g - c) (g + c)).  With Q = hypot(1, x0) the
    innermost face gives c = g_0 x0 / Q and the deficit p = g_0 - c =
    g_0 / (Q (Q + x0)), each to a few ulps, and g - c is formed as
    (g - g_0) + p: near the attainable height c lies within a few ulps of
    g_0, and p keeps the digits that g_0 - c would lose.
    """
    g, g0 = grid.g_face, grid.g_face[0]
    q = math.hypot(1.0, x0)
    c, p = g0 * x0 / q, g0 / q / (q + x0)
    return c / np.sqrt((g - g0 + p) * (g + c))


def _radial_rise(grid: AnnulusGrid, x0: float, sign: float = 1.0) -> np.ndarray:
    """u - u[0] of the discrete radial solution of innermost slope x0, rising if sign > 0."""
    return np.concatenate([[0.0], np.cumsum(sign * grid.h_face * _radial_slopes(grid, x0))])


def _slope_root(excess, x_hi: float, ratio: float) -> float:
    """Innermost slope x0 in [x_hi / ratio, x_hi] at which excess, increasing in x0, vanishes.

    The search runs over log(x0 / x_hi), so the absolute tolerance of
    `_secant_root` is a relative one in x0, at small heights and near the
    attainable one alike.  An end at which excess already has the other
    end's sign is the root to roundoff, and is taken.  Slopes are capped at
    1e150, past which the deficit g_0 / (Q (Q + x0)) underflows: a root
    beyond the cap gives the capped slope.
    """
    x_hi = min(x_hi, 1e150)
    f_hi = excess(x_hi)
    if f_hi <= 0.0:
        return x_hi

    def slope(t):
        return x_hi * math.exp(t)

    t_lo = -math.log(ratio)
    f_lo = excess(slope(t_lo))
    if f_lo >= 0.0:
        return slope(t_lo)
    return slope(_secant_root(lambda t: excess(slope(t)), t_lo, 0.0, f_lo, f_hi))


def _discrete_radial_rise(grid: AnnulusGrid, delta: float) -> np.ndarray:
    """u - u[0] of the discrete radial solution on an annulus whose ends differ by delta.

    A theta-constant field has zero residual when every radial face carries
    the same flux c (`_radial_slopes`).  The slopes must add up to |delta|,
    and that sum grows with c on [0, g_0) and is unbounded at g_0, so every
    finite delta has one c.  It is found in the innermost slope x0: the
    innermost face has the largest slope, since g grows with r, so
    |delta| / L <= x0 <= |delta| / h_0, L = r_N - r_0.  A delta that has
    overflowed raises ValueError.
    """
    if not math.isfinite(delta):
        raise ValueError("the boundary data overflow their means")
    h = grid.h_face
    target = abs(delta)

    def excess(x0):
        return float(h @ _radial_slopes(grid, x0)) - target

    x0 = _slope_root(excess, target / h[0], (grid.r[-1] - grid.r[0]) / h[0])
    return _radial_rise(grid, x0, math.copysign(1.0, delta))


def _default_guess(grid: AnnulusGrid, inner_vals, outer_vals) -> np.ndarray:
    """Initial Newton iterate for the boundary data.

    On a disk, the harmonic extension of the data phi: the slice is
    conformal to the unit disk through rho = `conformal_radius`, so that is
    sum_k phi_k (rho / rho(R))^|k| e^{i k theta}, one real FFT of the data
    with mode k damped by (rho_i / rho(R))^k on ring i.  It solves the
    graph equation up to O(phi^3) in the amplitude of phi - mean phi, which
    is split off first, so constant data give that constant exactly.

    On an annulus, the discrete radial solution between the boundary means,
    exact for theta-constant data, plus the angular variation blended along
    the radially harmonic coordinate S = int dr/g; on graded grids the
    plain blend starts Newton in a bad basin.
    """
    if grid.inner == "pole":
        mean = float(np.mean(outer_vals))
        ratio = conformal_radius(grid.r) / conformal_radius(grid.r[-1])
        damping = ratio[:, None] ** np.arange(grid.shape[1] // 2 + 1)
        modes = np.fft.rfft(outer_vals - mean)
        return mean + np.fft.irfft(modes * damping, n=grid.shape[1], axis=1)
    s_incr = grid.h_face * 0.5 * (1.0 / grid.g[1:] + 1.0 / grid.g[:-1])
    s_coord = np.concatenate([[0.0], np.cumsum(s_incr)])
    w = (s_coord - s_coord[0]) / (s_coord[-1] - s_coord[0])
    mean_in = float(np.mean(inner_vals))
    mean_out = float(np.mean(outer_vals))
    base = mean_in + _discrete_radial_rise(grid, mean_out - mean_in)[:, None]
    return (
        base
        + (inner_vals - mean_in)[None, :] * (1.0 - w[:, None])
        + (outer_vals - mean_out)[None, :] * w[:, None]
    )


def dirichlet_solve(grid: AnnulusGrid, inner, outer, cfg: SolverConfig, u0=None) -> np.ndarray:
    """Damped inexact-Newton solve of the discrete graph equation with pinned boundary rows.

    inner may be None only on zero-flux-inner grids.  Terminates when the
    sup-norm |F| of the residual drops below cfg.newton_tol.  Each step is
    solved by `_newton_step` at the current iterate, its GMRES only to the
    forcing term eta = max(KRYLOV_RTOL, min(0.1, |F|)); when the line
    search damps or rejects it, the lagged-diffusivity step is solved too,
    to the same eta, and the step with the lower merit is taken.  After the
    first linear solve that takes the exact fallback, the later ones skip
    GMRES.  Raises NewtonError (carrying the last residual) when a step is
    singular or stagnates, or after cfg.max_newton steps.  A trial state
    whose residual overflows is rejected by the line search, and an initial
    guess whose residual overflows raises ValueError.
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
        """Halve the step until the merit decreases: (u, res, faces, omega, merit) or None."""
        omega = 1.0
        while omega > 1e-6:
            trial = u + omega * du
            try:
                res_t, faces_t = residual(trial)
            except FloatingPointError:
                pass  # rejected like a merit increase
            else:
                m_t = merit(res_t)
                if (
                    m_t < m0 * (1.0 - 1e-4 * omega)
                    or float(np.max(np.abs(res_t))) <= cfg.newton_tol
                ):
                    return trial, res_t, faces_t, omega, m_t
                del res_t, faces_t  # a rejected trial's faces are not kept
            omega *= 0.5
        return None

    try:
        res, faces = residual(u)
    except FloatingPointError:
        raise ValueError("initial guess overflows the residual") from None
    omega_used, kind, krylov, gmres = 1.0, "none", 0, True
    for it in range(cfg.max_newton):
        rnorm = float(np.max(np.abs(res)))
        logger.info("newton iter=%d residual=%.3e damping=%.3g step=%s krylov=%s",
                    it, rnorm, omega_used, kind, krylov)
        if rnorm <= cfg.newton_tol:
            return u
        m0, best = merit(res), None
        # inexact Newton: each linear solve only as tight as the residual is small
        eta = max(KRYLOV_RTOL, min(0.1, rnorm))
        # a Newton step that the line search damps or rejects is compared with
        # the lagged-diffusivity step from the same iterate, and the step with
        # the lower merit is taken: the Newton direction can stall where the
        # lagged one still makes progress
        for name in ("newton", "lagged"):
            try:
                # at an iterate with slopes near 1e100 the weights and GMRES
                # overflow; their non-finite results are caught below
                with np.errstate(over="ignore", invalid="ignore"):
                    if name == "newton":
                        # from the faces that the iterate's residual evaluation
                        # kept, released so that the linear solve does not hold them
                        weights, faces = _flux_weights(faces), None
                    else:
                        weights = _lagged_weights(u, grid)
                    du, k = _newton_step(weights, -res, grid, gmres, eta)
                del weights
            except np.linalg.LinAlgError:
                raise NewtonError("singular linearization in Newton step", rnorm) from None
            if not np.all(np.isfinite(du)):
                raise NewtonError("singular linearization in Newton step", rnorm)
            # a state too far from rotational symmetry for GMRES once stays so for
            # the rest of the solve: its later linear solves go straight to the fallback
            gmres = k != "exact"
            step = line_search(du, m0)
            if step is not None and (best is None or step[4] < best[0][4]):
                best = step, name, k
            del step  # a step that is not the best releases its faces here
            if best is not None and best[0][3] == 1.0:
                break
        if best is None:
            raise NewtonError(
                f"Newton stagnated at residual {rnorm:.3e} (no productive damping)", rnorm
            )
        (u, res, faces, omega_used, _), kind, krylov = best
    rnorm = float(np.max(np.abs(res)))
    raise NewtonError(
        f"Newton did not converge in {cfg.max_newton} iterations "
        f"(last residual {rnorm:.3e})",
        rnorm,
    )


def _inner_difference(grid: AnnulusGrid) -> tuple[float, float, float]:
    """Weights of the one-sided three-point difference u_r(r_0) ~ a0 u_0 + a1 u_1 + a2 u_2."""
    h1, h2 = grid.r[1:3] - grid.r[0]
    a1 = h2 / (h1 * (h2 - h1))
    a2 = -h1 / (h2 * (h2 - h1))
    return -(a1 + a2), a1, a2


def boundary_gradient_sup(u: np.ndarray, grid: AnnulusGrid) -> float:
    """Sup over the inner boundary row of the intrinsic gradient norm.

    Radial derivative by a one-sided second-order three-point difference,
    angular derivative by the periodic central difference, combined as
    sqrt(u_r^2 + u_theta^2 / g^2).
    """
    u = np.asarray(u, dtype=float)
    a0, a1, a2 = _inner_difference(grid)
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


def _compared_nodes(grids, r_lo, r_hi, name) -> list:
    """Masks of the rings of each grid but the last compared with the next grid.

    They lie in the window [r_lo, r_hi] and not below the next grid's
    innermost ring, where interpolating the next field would only repeat its
    first ring.  A grid left without such a ring raises ValueError naming
    the window (`name`) and the grid.
    """
    masks = [(a.r >= max(r_lo, b.r[0])) & (a.r <= r_hi) for a, b in zip(grids, grids[1:])]
    for a, b, mask in zip(grids, grids[1:], masks):
        if not mask.any():
            raise ValueError(
                f"{name} [{r_lo:g}, {r_hi:g}] holds no node of the grid of outer "
                f"radius {a.r[-1]:g} from the next grid's innermost ring {b.r[0]:g} on"
            )
    return masks


def _consecutive_sup_diffs(grids, fields, masks) -> list:
    """Sup of |u_k - u_{k+1}| at the `_compared_nodes` masks of each field and the next.

    The next field is interpolated linearly in r along every angle at once,
    with np.interp's arithmetic: the value at a node itself, else
    slope (x - x_j) + f_j on the interval [x_j, x_{j+1}) holding x, and the
    end values outside the nodes.  It stays linear on purpose: the natural
    cubic spline of `verify.graph_embed` in its place cut the s = 0.5 Cauchy
    values about 3-fold, but added 1.4 to 2.5 ms to each `exterior_solve`
    call at 256x64 (a warm solve takes about 6.5 ms), and the values are a
    diagnostic that no bound reads.
    """
    diffs = []
    for grid_a, u_a, grid_b, u_b, mask in zip(grids, fields, grids[1:], fields[1:], masks):
        nodes = grid_b.r
        x = np.clip(grid_a.r[mask], nodes[0], nodes[-1])
        j = np.searchsorted(nodes, x, side="right") - 1
        k = np.minimum(j, len(nodes) - 2)
        left = nodes[k]
        slope = (u_b[k + 1] - u_b[k]) / (nodes[k + 1] - left)[:, None]
        interp = np.where((nodes[j] == x)[:, None], u_b[j], slope * (x - left)[:, None] + u_b[k])
        diffs.append(float(np.max(np.abs(u_a[mask] - interp))))
    return diffs


def _gradient_slope(grid: AnnulusGrid, s: float) -> float:
    """Innermost slope x0 of the discrete radial solution from u_0 = 0 of inner gradient s > 0.

    That gradient, a1 u_1 + a2 u_2 in `boundary_gradient_sup`, is
    G = A x_0 - B x_1 with A - B = 1, B >= 0 and x_0 >= x_1 (g grows with r),
    so it increases with the flux and x_0 <= G <= A x_0: the root x0 lies in
    [s / A, s] (`_slope_root`).
    """
    _, a1, a2 = _inner_difference(grid)

    def mismatch(x0):
        u1, u2 = _radial_rise(grid, x0)[1:3]
        return a1 * u1 + a2 * u2 - s

    return _slope_root(mismatch, s, (a1 + a2) * grid.h_face[0])


def exterior_solve(s: float, r0: float, cfg: SolverConfig) -> ExteriorSolution:
    """Exterior Dirichlet exhaustion with boundary-gradient matching.

    For each truncation radius m: zero inner data on r = r0 and the constant
    outer value t_m on r = m of the discrete radial solution whose inner
    boundary gradient is s (`_gradient_slope`).  A t_m outside [previous t_m,
    f(m - r0)], f the radial barrier, raises BracketError.  One Dirichlet
    solve started at that solution returns it, with no Newton step unless its
    roundoff residual exceeds cfg.newton_tol; a returned gradient off s by
    more than cfg.bisection_tol raises SolverError.
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

    barrier = BarrierParams(s=s, alpha=r0)
    schedule = list(cfg.schedule)
    grids = [AnnulusGrid.annulus(r0, m, cfg.n_r, cfg.n_theta, cfg.grading) for m in schedule]
    masks = _compared_nodes(grids, r0 + 0.2, 0.75 * schedule[0], "Cauchy window")
    t_trace, caps, grads, fields = [], [], [], []
    prev_t = 0.0

    for m, grid in zip(schedule, grids):
        cap = barrier_f(barrier, m - r0)[0]

        if s == 0:
            u = np.zeros(grid.shape)
            t_m, grad = 0.0, 0.0
        else:
            rise = _radial_rise(grid, _gradient_slope(grid, s))
            t_m = float(rise[-1])
            if not prev_t <= t_m <= cap:
                raise BracketError(f"outer value {t_m:.8g} for s={s} at m={m} leaves "
                                   f"[{prev_t:.8g}, {cap:.8g}] (previous t_m, barrier cap)")
            u = dirichlet_solve(grid, 0.0, t_m, cfg, u0=np.broadcast_to(rise[:, None], grid.shape))
            grad = boundary_gradient_sup(u, grid)
            if abs(grad - s) > cfg.bisection_tol:
                raise SolverError(f"boundary gradient {grad:.10g} at m={m} misses s={s} "
                                  f"by more than bisection_tol={cfg.bisection_tol:g}")

        logger.info("exterior m=%g: t_m=%.8g cap=%.8g gradient=%.6g", m, t_m, cap, grad)
        t_trace.append(t_m)
        caps.append(cap)
        grads.append(grad)
        fields.append(u)
        prev_t = t_m

    return ExteriorSolution(
        s=s,
        r0=r0,
        schedule=schedule,
        t_trace=t_trace,
        barrier_caps=caps,
        boundary_gradients=grads,
        grids=grids,
        fields=fields,
        cauchy=_consecutive_sup_diffs(grids, fields, masks),
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
    reported, not asserted.  A window that leaves a compared disk without a
    node from the next disk's innermost ring on raises ValueError before any
    solve.
    """
    radii = [float(x) for x in (radii if radii is not None else cfg.schedule)]
    if not (radii and np.all(np.isfinite(radii)) and radii[0] > 0
            and np.all(np.diff(radii) > 0)):
        raise ValueError(f"radii {radii} must be finite, positive and increasing")
    if radii[0] <= cfg.compact_rmax:
        logger.info(
            "smallest disk radius %g is inside the compact window %g",
            radii[0], cfg.compact_rmax,
        )
    grids = [AnnulusGrid.disk(rad, cfg.n_r, cfg.n_theta) for rad in radii]
    masks = _compared_nodes(grids, 0.0, cfg.compact_rmax, "compact window")
    fields = []
    for rad, grid in zip(radii, grids):
        u = dirichlet_solve(grid, None, phi, cfg)
        logger.info("asymptotic R=%g: range [%.6g, %.6g]", rad, u.min(), u.max())
        fields.append(u)
    sup_diffs = _consecutive_sup_diffs(grids, fields, masks)
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
