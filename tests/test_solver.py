import logging
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.linalg import spsolve

from nil3lab import radial as rd
from nil3lab import solver as sv
from nil3lab.surface import BoundaryData, conformal_radius

SQRT2 = math.sqrt(2.0)


def small_cfg(**kw):
    base = dict(n_r=64, n_theta=16, newton_tol=1e-10, schedule=(3.0, 5.0), bisection_tol=1e-4)
    base.update(kw)
    return sv.SolverConfig(**base)


# ---------------------------------------------------------------- grids


def test_grid_validation():
    theta = np.arange(16) * (2 * math.pi / 16)
    with pytest.raises(ValueError):
        sv.AnnulusGrid(np.array([1.0, 2.0, 3.0]), theta)  # too few nodes
    with pytest.raises(ValueError):
        sv.AnnulusGrid(np.array([1.0, 0.9, 1.1, 1.2, 1.3]), theta)
    with pytest.raises(ValueError):
        sv.AnnulusGrid(np.array([0.0, 1.0, 2.0, 3.0, 4.0]), theta)
    with pytest.raises(ValueError):
        sv.AnnulusGrid.annulus(1.0, 4.0, 32, 6)  # too few angles
    for r in ([1.0, 2.0, math.nan, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, math.inf]):
        with pytest.raises(ValueError, match="finite"):
            sv.AnnulusGrid(np.array(r), theta)
    with pytest.raises(ValueError, match="inf"):
        sv.AnnulusGrid.disk(math.inf, 9, 8)
    with pytest.raises(ValueError, match="inf"):
        sv.AnnulusGrid.annulus(1.0, math.inf, 9, 8)
    with pytest.raises(ValueError):
        sv.AnnulusGrid(np.linspace(1, 4, 32), theta, inner="weird")
    for radius in (0.0, -4.0, math.nan):
        with pytest.raises(ValueError, match="radius"):
            sv.AnnulusGrid.disk(radius, 32, 16)
    # a pole grid's innermost cell reaches r = 0, so its first ring must lie
    # within one cell of the pole
    with pytest.raises(ValueError, match="pole"):
        sv.AnnulusGrid(np.linspace(1, 4, 32), theta, inner="pole")
    assert sv.AnnulusGrid((np.arange(9) + 0.5) * 0.5, theta, inner="pole").control[0] == 0.5


def test_config_validation_and_file(tmp_path):
    with pytest.raises(ValueError):
        sv.SolverConfig(newton_tol=0.0)
    with pytest.raises(ValueError):
        sv.SolverConfig(schedule=(4.0, 4.0))
    path = tmp_path / "solver.cfg"
    path.write_text(
        "newton_tol = 1e-9\n"
        "# a comment\n"
        "n_r = 48\n"
        "schedule = 3,6,9\n"
    )
    cfg = sv.SolverConfig.from_file(path)
    assert cfg.newton_tol == 1e-9
    assert cfg.n_r == 48
    assert cfg.schedule == (3.0, 6.0, 9.0)
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 12\n")
    with pytest.raises(ValueError):
        sv.SolverConfig.from_file(bad)
    assert any(line.startswith("schedule") for line in cfg.to_lines())
    # sizes must be integers; integral floats are stored as int, so they
    # write back as from_file reads them
    for name, bad in (("max_newton", 2.5), ("n_r", 33.5), ("n_theta", 16.25)):
        with pytest.raises(ValueError, match=name):
            sv.SolverConfig(**{name: bad})
    cfg16 = sv.SolverConfig(n_theta=16.0, n_r=33.0, max_newton=np.float64(7.0))
    assert (type(cfg16.n_theta), type(cfg16.n_r), type(cfg16.max_newton)) == (int, int, int)
    assert "n_theta = 16" in cfg16.to_lines()
    round_trip = tmp_path / "sizes.cfg"
    round_trip.write_text("\n".join(cfg16.to_lines()) + "\n")
    assert sv.SolverConfig.from_file(round_trip) == cfg16
    # a file's sizes parse through float as the constructor's do; a bad
    # value names the file, the line and the key
    sized = tmp_path / "sized.cfg"
    sized.write_text("# sizes\nn_r = 16.0\n")
    assert sv.SolverConfig.from_file(sized).n_r == 16
    sized.write_text("# sizes\nn_r = 2.5\n")
    with pytest.raises(ValueError, match="n_r must be an integer"):
        sv.SolverConfig.from_file(sized)
    for line, message in (("schedule =", "bad value for schedule: could not convert"),
                          ("n_theta = sixteen", "bad value for n_theta: could not convert"),
                          ("grading = 2,3", "bad value for grading: could not convert"),
                          ("mystery = 12", "unknown config key 'mystery'"),
                          ("n_r 16", "bad config line")):
        sized.write_text(f"# comment\n{line}\n")
        with pytest.raises(ValueError) as err:
            sv.SolverConfig.from_file(sized)
        assert str(err.value).startswith(f"{sized}: line 2: {message}")
    # a key given twice is an error naming both lines, not a silent override
    sized.write_text("n_r = 16\n# comment\nn_theta = 8\nn_r = 32\n")
    with pytest.raises(ValueError) as err:
        sv.SolverConfig.from_file(sized)
    assert str(err.value) == f"{sized}: line 4: config key 'n_r' repeats line 1"


@pytest.mark.parametrize("name", ["newton_tol", "bisection_tol"])
@pytest.mark.parametrize("bad", [0.0, -1e-6, math.nan, math.inf])
def test_config_rejects_bad_tolerances(name, bad):
    # NaN passes a plain `tol <= 0` check, and Newton would then never stop
    with pytest.raises(ValueError):
        sv.SolverConfig(**{name: bad})
    # the schedule entries and the other float fields are checked for finiteness too
    with pytest.raises(ValueError):
        sv.SolverConfig(schedule=(4.0, bad))
    if not math.isfinite(bad):
        with pytest.raises(ValueError):
            sv.SolverConfig(grading=bad)


def test_config_file_round_trip(tmp_path):
    cfg = sv.SolverConfig(
        newton_tol=1.2345678912e-10,
        max_newton=17,
        n_r=37,
        n_theta=18,
        schedule=(3.3, 7.123456789012345),
        bisection_tol=2.718281828459045e-4,
        grading=1.1,
        r_core=0.0123456789,
        compact_rmax=3.14159,
    )
    path = tmp_path / "echo.cfg"
    path.write_text("\n".join(cfg.to_lines()) + "\n")
    assert sv.SolverConfig.from_file(path) == cfg


def test_readme_lists_every_config_key():
    import dataclasses
    import pathlib

    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    sentence = re.search(r"`--config` \(keys: (.*?)\)", readme, re.S).group(1)
    keys = re.findall(r"`(\w+)`", sentence)
    assert keys == [f.name for f in dataclasses.fields(sv.SolverConfig)]


# ---------------------------------------------------------------- operator


def test_operator_zero_on_constants():
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 32, 16)
    res = sv.mse_operator(np.full(grid.shape, 5.5), grid)
    assert np.all(res == 0.0)
    disk = sv.AnnulusGrid.disk(6.0, 32, 16)
    res = sv.mse_operator(np.full(disk.shape, -2.0), disk)
    assert np.all(res == 0.0)


def test_operator_shape_mismatch():
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 32, 16)
    with pytest.raises(ValueError):
        sv.mse_operator(np.zeros((5, 5)), grid)


def test_operator_convergence_order_on_catenoid():
    params = rd.CatenoidParams(3.0, 1.0)
    residuals = []
    for n in (65, 129, 257):
        grid = sv.AnnulusGrid.annulus(2.0, 6.0, n, 16, grading=1.0)
        prof = rd.catenoid_profile(params, grid.r, tol=1e-12)
        u = np.tile(prof.value[:, None], (1, 16))
        residuals.append(float(np.max(np.abs(sv.mse_operator(u, grid)[1:-1]))))
    orders = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]
    assert all(1.8 <= o <= 2.2 for o in orders)


def test_operator_discrete_subsolution_on_barrier():
    params = rd.BarrierParams(1.0, 1.0)
    grid = sv.AnnulusGrid.annulus(1.0, 20.0, 129, 16, grading=1.0)
    prof = rd.barrier_profile(params, grid.r - 1.0)
    u = np.tile(prof.value[:, None], (1, 16))
    res = sv.mse_operator(u, grid)[1:-1]
    h = grid.r[1] - grid.r[0]
    assert res.min() >= -10.0 * h * h


def test_cartesian_chart_cross_validation():
    # exact radial flux solution evaluated through the Cartesian-chart route:
    # residual at the nested-differencing truncation level
    prof = rd.radial_mse_solve(1.0, 5.0, 0.0, 1.0)
    c, g = prof.flux, sv.warp_g(1.0)
    graph = rd.FluxGraph(c, 1.0, (g - c) * (g + c))

    def height(x, y):
        return graph.heights([SQRT2 * math.hypot(x, y)], 1e-12)[0]

    for x, y in ((1.2, 0.7), (-0.9, 1.5), (2.0, -2.0)):
        assert abs(sv.cartesian_operator_residual(height, x, y)) <= 1e-5

    # polar-grid solver field pushed through the same route
    from scipy.interpolate import CubicSpline

    cfg = small_cfg(n_r=128)
    grid = sv.AnnulusGrid.annulus(1.0, 5.0, 128, 16, grading=1.0)
    u = sv.dirichlet_solve(grid, 0.0, 1.0, cfg)
    spline = CubicSpline(grid.r, u[:, 0])

    def height2(x, y):
        return float(spline(SQRT2 * math.hypot(x, y)))

    for x, y in ((1.2, 0.7), (-0.9, 1.5)):
        assert abs(sv.cartesian_operator_residual(height2, x, y)) <= 2e-3

    # negative control: a paraboloid height is far from minimal
    bowl = lambda x, y: 0.5 * (x * x + y * y)
    assert abs(sv.cartesian_operator_residual(bowl, 1.2, 0.7)) >= 0.05
    with pytest.raises(ValueError):
        sv.cartesian_operator_residual(bowl, 1.0, 1.0, step=0.0)


# ---------------------------------------------------------------- linearization


def _weights(u, grid):
    """Newton face weights at u, from its faces as the solver evaluates them."""
    return sv._flux_weights(sv._faces(u, grid))


def _jacobian(u, grid):
    """Exact Jacobian stencil of the solve residual at u, window axes first."""
    return sv._linearized(_weights(u, grid), sv._unit_stencil(grid), grid)


def _stencil_matrix(stencil):
    """CSR matrix of a window-first stencil: row (i, j), column (i+di, j+dj mod n_theta)."""
    n1, m = stencil.shape[2:]
    node = np.arange(n1 * m).reshape(n1, m)
    i, j = np.meshgrid(np.arange(n1), np.arange(m), indexing="ij")
    rows, cols, vals = [], [], []
    for di in (-1, 0, 1):
        ok = (i + di >= 0) & (i + di < n1)
        for dj in (-1, 0, 1):
            rows.append(node[ok])
            cols.append(node[(i + di)[ok], ((j + dj) % m)[ok]])
            vals.append(stencil[1 + di, 1 + dj][ok])
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n1 * m, n1 * m),
    )


def _linearization_state(kind, n_theta, grading, n_r=33):
    """Grid, boundary rows and a non-radial state: the cosine default guess plus a mode-2 bump."""
    if kind == "annulus":
        grid = sv.AnnulusGrid.annulus(1.0, 4.0, n_r, n_theta, grading=grading)
        inner_vals = np.zeros(n_theta)
    else:
        grid = sv.AnnulusGrid.disk(6.0, n_r, n_theta)
        inner_vals = None
    outer_vals = BoundaryData.cosine(1.0)(grid.theta)
    xi = ((grid.r - grid.r[0]) / (grid.r[-1] - grid.r[0]))[:, None]
    u = sv._default_guess(grid, inner_vals, outer_vals)
    u = u + 0.3 * np.sin(math.pi * xi) * np.cos(2.0 * grid.theta)[None, :]
    return grid, inner_vals, outer_vals, u, xi


def _check_against_sparse_oracle(make_solver, kind, n_theta):
    # make_solver(u, grid) solves the Newton system at u for a right-hand side
    grid, _, _, u, _ = _linearization_state(kind, n_theta, grading=2.0)
    stencil = _jacobian(u, grid)
    assert stencil.shape == (3, 3) + grid.shape
    matrix = _stencil_matrix(stencil)
    solve = make_solver(u, grid)
    for rhs in np.random.default_rng(4).standard_normal((2,) + grid.shape):
        ref = spsolve(matrix, rhs.ravel()).reshape(grid.shape)
        assert np.max(np.abs(solve(rhs) - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind", ["annulus", "disk"])
@pytest.mark.parametrize("n_theta", [8, 10, 16])
def test_block_solve_matches_sparse_oracle(kind, n_theta):
    # at n_theta = 8 the periodic wrap couples j = 0 and j = 7 in every block
    _check_against_sparse_oracle(
        lambda u, grid: lambda rhs: sv._block_solve(_jacobian(u, grid), rhs), kind, n_theta
    )


def _dominant_stencil(n_r, n_theta, seed):
    """Random theta-varying window-first stencil, strictly diagonally dominant by rows."""
    rng = np.random.default_rng(seed)
    stencil = rng.uniform(-1.0, 1.0, (3, 3, n_r, n_theta))
    off = np.abs(stencil).sum(axis=(0, 1)) - np.abs(stencil[1, 1])
    sign = rng.choice([-1.0, 1.0], (n_r, n_theta))
    stencil[1, 1] = sign * (1.0 + off + rng.uniform(0.0, 1.0, (n_r, n_theta)))
    return stencil


@settings(max_examples=60)
@given(n_r=st.integers(5, 20), n_theta=st.integers(8, 16), seed=st.integers(0, 2**32 - 1))
def test_block_solve_matches_sparse_oracle_on_random_stencils(n_r, n_theta, seed):
    # stencils that no face weights produce: every window entry varies with
    # theta, the corner entries couple j = 0 and j = n_theta - 1 across the
    # wrap, and the entries pointing past the first and last ring are set
    # (the system has no such unknowns, so both sides ignore them)
    stencil = _dominant_stencil(n_r, n_theta, seed)
    rhs = np.random.default_rng(seed + 1).standard_normal((n_r, n_theta))
    ref = spsolve(_stencil_matrix(stencil), rhs.ravel()).reshape(rhs.shape)
    x = sv._block_solve(stencil, rhs)
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_block_solve_zero_pivot_block_raises():
    # ring 4 has an all-zero row of blocks, so its pivot block is zero
    stencil = _dominant_stencil(9, 8, 0)
    stencil[:, :, 4] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="ring 4"):
        sv._block_solve(stencil, np.ones((9, 8)))


def _averaged_column(source, n_r, n_theta):
    """A theta-independent stencil column: of the theta-averaged weights of a state, or random."""
    if source == "random":
        # diagonally dominant, so every Fourier mode's tridiagonal system is too
        return _dominant_stencil(n_r, 1, n_r * n_theta)[..., 0]
    grid, _, _, u, _ = _linearization_state(source, n_theta, grading=2.0, n_r=n_r)
    mean = tuple(tuple(w.mean(axis=1, keepdims=True) for w in face)
                 for face in _weights(u, grid))
    return sv._linearized(mean, sv._unit_stencil(grid), grid)[..., 0]


@pytest.mark.parametrize("source", ["annulus", "disk", "random"])
@pytest.mark.parametrize("n_r", [5, 6, 7, 33, 256, 257])
@pytest.mark.parametrize("n_theta", [8, 10, 16])
def test_averaged_solver_matches_sparse_oracle(source, n_r, n_theta):
    # the cyclic reduction pads every odd-length level with an identity row:
    # 5, 7, 33 and 257 rings start odd, 6 turns odd after one level, and 256
    # halves evenly down to one row
    column = _averaged_column(source, n_r, n_theta)
    matrix = _stencil_matrix(np.repeat(column[..., None], n_theta, axis=-1))
    solve = sv._averaged_solver(column, n_theta)
    for rhs in np.random.default_rng(n_r).standard_normal((2, n_r, n_theta)):
        ref = spsolve(matrix, rhs.ravel()).reshape(rhs.shape)
        assert np.max(np.abs(solve(rhs) - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("zeroed", [(slice(None), slice(None), 3), (slice(None), slice(None), 4), 1],
                         ids=["odd ring", "even ring", "centre row"])
def test_averaged_solver_zero_diagonal_raises(zeroed):
    # a ring without entries makes the system singular, whether its row is
    # eliminated at the first level (odd) or carried down (even); a zero
    # centre row leaves every mode's system without a diagonal
    column = _averaged_column("random", 9, 8)
    column[zeroed] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        sv._averaged_solver(column, 8)


@pytest.mark.parametrize("kind", ["annulus", "disk"])
@pytest.mark.parametrize("n_theta", [8, 10, 16])
def test_krylov_solve_matches_sparse_oracle(kind, n_theta):
    # the disk states converge in 10 GMRES iterations and the annulus state
    # at n_theta = 8 in 18-19; at n_theta = 10 and 16 the annulus states need
    # more than MAX_KRYLOV for these white-noise right-hand sides and so
    # check the fallback
    _check_against_sparse_oracle(
        lambda u, grid: lambda rhs: sv._newton_step(_weights(u, grid), rhs, grid)[0],
        kind, n_theta,
    )


def test_strongly_non_radial_state_takes_the_exact_fallback():
    # mode-3 data of amplitude 3 on a small disk at n_theta = 8: the theta
    # average is too far from the stencil for MAX_KRYLOV iterations, so the
    # block elimination solves the step
    grid = sv.AnnulusGrid.disk(2.0, 17, 8)
    u = sv._default_guess(grid, None, BoundaryData.cosine(3.0, mode=3)(grid.theta))
    matrix = _stencil_matrix(_jacobian(u, grid))
    for seed in (7, 8):
        rhs = np.random.default_rng(seed).standard_normal(grid.shape)
        x, krylov = sv._newton_step(_weights(u, grid), rhs, grid)
        assert krylov == "exact"
        ref = spsolve(matrix, rhs.ravel()).reshape(grid.shape)
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("rtol", [1e-1, 1e-6, sv.KRYLOV_RTOL])
def test_gmres_meets_its_tolerance(monkeypatch, rtol):
    # the preconditioned residual of the GMRES solution of a Newton step has
    # fallen by the step's rtol: |P (b - A x)| <= rtol |P b|
    grid, _, _, u, _ = _linearization_state("disk", 16, grading=1.0)
    rhs = np.random.default_rng(5).standard_normal(grid.shape)
    gmres, calls = sv._gmres, []
    monkeypatch.setattr(sv, "_gmres", lambda *a: calls.append(a) or gmres(*a))
    x, krylov = sv._newton_step(_weights(u, grid), rhs, grid, rtol=rtol)
    [(apply, precond, b, tol)] = calls
    assert krylov != "exact" and tol == rtol
    assert np.linalg.norm(precond(b - apply(x))) <= rtol * np.linalg.norm(precond(b))


_LINEARIZATION_CASES = [
    pytest.param("annulus", 1.0, id="annulus"),
    pytest.param("annulus", 2.0, id="annulus-graded"),
    pytest.param("disk", 1.0, id="disk"),
]


@pytest.mark.parametrize("kind, grading", _LINEARIZATION_CASES)
def test_matrix_free_product_matches_stencil(kind, grading):
    grid, _, _, u, _ = _linearization_state(kind, 16, grading=grading)
    v = np.random.default_rng(6).standard_normal(grid.shape)
    jv = sv._linearized(_weights(u, grid), v, grid)
    ref = (_stencil_matrix(_jacobian(u, grid)) @ v.ravel()).reshape(grid.shape)
    assert np.max(np.abs(jv - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind, grading", _LINEARIZATION_CASES)
def test_averaged_weights_give_the_averaged_stencil(kind, grading):
    # the preconditioner's one-column stencil is the theta-average of the full one
    grid, _, _, u, _ = _linearization_state(kind, 16, grading=grading)
    mean = tuple(tuple(w.mean(axis=1, keepdims=True) for w in face)
                 for face in _weights(u, grid))
    column = sv._linearized(mean, sv._unit_stencil(grid), grid)[..., 0]
    averaged = _jacobian(u, grid).mean(axis=3)
    err = np.max(np.abs(column - averaged))
    assert err <= 1e-14 * np.max(np.abs(averaged))


@pytest.mark.parametrize("kind, grading", _LINEARIZATION_CASES)
def test_lagged_weights_reproduce_the_residual(kind, grading):
    # the residual is linear in u at frozen W: the lagged map applied to u
    # itself is the operator, so the lagged step lands on the Picard iterate
    grid, _, _, u, _ = _linearization_state(kind, 16, grading=grading)
    ref = sv.mse_operator(u, grid)
    lagged = sv._linearized(sv._lagged_weights(u, grid), u, grid)
    lagged[grid.pinned] = 0.0  # the operator reports zero on pinned rows
    assert np.max(np.abs(lagged - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind, grading", _LINEARIZATION_CASES)
def test_jacobian_taylor_remainder(kind, grading):
    # |R(u + eps v) - R(u) - eps J v| is O(eps^2) when J is the linearization.
    # v is smooth: a random v is not in the asymptotic range at these eps
    grid, inner_vals, outer_vals, u, xi = _linearization_state(kind, 16, grading=grading)
    th = grid.theta[None, :]
    v = np.sin(math.pi * xi) * (1.0 + np.cos(th) + 0.5 * np.sin(3.0 * th))
    res = sv._solve_residual(u, grid, inner_vals, outer_vals)[0]
    jv = (_stencil_matrix(_jacobian(u, grid)) @ v.ravel()).reshape(grid.shape)
    remainders = [
        np.max(np.abs(sv._solve_residual(u + eps * v, grid, inner_vals, outer_vals)[0]
                      - res - eps * jv))
        for eps in 1e-2 / 2.0 ** np.arange(5)
    ]
    ratios = [a / b for a, b in zip(remainders, remainders[1:])]
    assert all(3.5 <= q <= 4.5 for q in ratios), ratios


@pytest.mark.parametrize("kind", ["annulus", "disk"])
def test_jacobian_matches_dense_central_differences(kind):
    # every column of the solve residual's Jacobian by a central difference,
    # on a graded annulus and a disk with n_theta = 10
    n_theta = 10
    if kind == "annulus":
        grid = sv.AnnulusGrid.annulus(1.0, 3.0, 9, n_theta, grading=2.0)
        inner_vals = np.zeros(n_theta)
    else:
        grid = sv.AnnulusGrid.disk(3.0, 9, n_theta)
        inner_vals = None
    outer_vals = BoundaryData.cosine(1.0)(grid.theta)
    u = sv._default_guess(grid, inner_vals, outer_vals)
    u = u + 0.3 * np.random.default_rng(5).standard_normal(grid.shape)
    h = 1e-6
    dense = np.array([
        (sv._solve_residual(u + e, grid, inner_vals, outer_vals)[0]
         - sv._solve_residual(u - e, grid, inner_vals, outer_vals)[0]).ravel() / (2 * h)
        for e in h * np.eye(u.size).reshape((-1,) + grid.shape)
    ]).T
    jac = _stencil_matrix(_jacobian(u, grid)).toarray()
    assert np.max(np.abs(jac - dense)) <= 1e-6 * np.max(np.abs(dense))


# ---------------------------------------------------------------- Dirichlet solves


def test_constants_are_solutions():
    cfg = small_cfg()
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 64, 16)
    u = sv.dirichlet_solve(grid, 7.0, 7.0, cfg)
    assert np.max(np.abs(u - 7.0)) <= 1e-14


def test_radial_solve_matches_flux_oracle():
    cfg = small_cfg(n_r=96)
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 96, 16, grading=2.0)
    u = sv.dirichlet_solve(grid, 0.0, 1.0, cfg)
    prof = rd.radial_mse_solve(1.0, 4.0, 0.0, 1.0, nodes=grid.r)
    assert np.max(np.abs(u - prof.value[:, None])) <= 1e-3
    assert np.max(u.max(axis=1) - u.min(axis=1)) <= 10 * cfg.newton_tol


@pytest.mark.parametrize("grading", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("n_r", [16, 65, 256])
@pytest.mark.parametrize("r_in, r_out", [(1.0, 4.0), (2.0, 32.0)])
def test_default_guess_is_the_discrete_radial_solution(r_in, r_out, n_r, grading):
    # every face of the theta-constant guess carries one flux c, so its
    # residual is roundoff.  Only on the inner faces of grading 3 at n_r 256
    # (1.8e-7 and 1.8e-6 wide) can one ulp of c in the cell of least
    # g * control exceed newton_tol; there the bound is four such ulps.
    # Twice the continuum's attainable height puts c within a few ulps of
    # g_0, where g - c keeps its digits only as (g - g_0) + (g_0 - c)
    grid = sv.AnnulusGrid.annulus(r_in, r_out, n_r, 8, grading)
    zeros = np.zeros(8)
    attain = rd.FluxGraph(sv.warp_g(r_in), r_in, 0.0).heights([r_out], 1e-12)[0]
    for share in (1e-8, 0.01, 0.5, 0.99, 1.0, 2.0):
        delta = share * attain
        u = sv._default_guess(grid, zeros, np.full(8, delta))
        assert np.all(u[:, :1] == u) and np.all(np.diff(u[:, 0]) > 0)
        bound = small_cfg().newton_tol
        if (n_r, grading) == (256, 3.0):
            x = np.diff(u[:, 0]) / grid.h_face
            c = np.max(grid.g_face * x / np.sqrt(1.0 + x * x))
            bound = 4.0 * np.finfo(float).eps * c / np.min((grid.g * grid.control)[1:-1])
        for sign in (1.0, -1.0):
            res = sv._solve_residual(sign * u, grid, zeros, np.full(8, sign * delta))[0]
            assert np.max(np.abs(res)) <= bound, (share, sign)
        # odd in the height difference, bit for bit
        assert np.array_equal(sv._default_guess(grid, zeros, np.full(8, -delta)), -u)
    for value in (0.0, 1.5, -7.25):
        const = np.full(8, value)
        assert np.all(sv._default_guess(grid, const, const) == value)
    # far beyond the continuum's attainable height a discrete flux still
    # exists, though finer than the floats near g_0 resolve: the guess
    # reaches the data, and past an innermost slope of 1e150 it stays finite
    # and monotone
    u = sv._default_guess(grid, zeros, np.full(8, 1e6))
    assert abs(u[-1, 0] - 1e6) <= 1e-9 and np.all(np.diff(u[:, 0]) >= 0)
    u = sv._default_guess(grid, zeros, np.full(8, 1e300))
    assert np.all(np.isfinite(u)) and np.all(np.diff(u[:, 0]) >= 0)
    # subnormal heights leave the bracket of the innermost slope finite
    for delta in (5e-324, 1e-310):
        rise = sv._discrete_radial_rise(grid, delta)
        assert np.all(np.diff(rise) >= 0) and rise[-1] <= 2.0 * delta


@pytest.mark.parametrize("n_theta", [8, 12, 16, 64])
@pytest.mark.parametrize("radius", [2.0, 8.0, 32.0])
def test_disk_guess_is_the_conformal_harmonic_extension(radius, n_theta):
    # the slice is conformal to the unit disk through rho = conformal_radius,
    # so the harmonic extension of data with modes 0-3 is
    # sum_k phi_k (rho / rho(R))^|k| e^{i k theta}, summed here mode by mode
    grid = sv.AnnulusGrid.disk(radius, 33, n_theta)
    th = grid.theta
    a, b = np.random.default_rng(n_theta).standard_normal((2, 4))
    phi = a[0] + sum(a[k] * np.cos(k * th) + b[k] * np.sin(k * th) for k in (1, 2, 3))
    ratio = (conformal_radius(grid.r) / conformal_radius(radius))[:, None]
    ref = a[0] + sum(ratio**k * (a[k] * np.cos(k * th) + b[k] * np.sin(k * th))
                     for k in (1, 2, 3))
    u = sv._default_guess(grid, None, phi)
    assert np.max(np.abs(u - ref)) <= 1e-15 * np.max(np.abs(ref))
    for value in (0.0, 0.7, -7.25, 1.0 / 3.0):
        assert np.all(sv._default_guess(grid, None, np.full(n_theta, value)) == value)


def test_graded_annulus_at_half_the_attainable_height_converges():
    # the guess's residual on row 1, beside a 1.8e-7-wide face, is roundoff
    # at the size of newton_tol (2.1e-11 to 2.9e-10 within three ulps of the
    # root); one damped step converges from it where the solve once
    # stagnated at 1.446e-10
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 256, 8, 3.0)
    half = 0.5 * rd.FluxGraph(sv.warp_g(1.0), 1.0, 0.0).heights([4.0], 1e-12)[0]
    u = sv.dirichlet_solve(grid, 0.0, half, small_cfg())
    assert np.max(np.abs(sv.mse_operator(u, grid))) <= small_cfg().newton_tol


def test_overflowing_boundary_means_are_refused():
    # finite data whose mean overflows leave no height difference to solve for
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 17, 8)
    for inner, outer in ((-1e308, 1e308), (1e308, 1e308)):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
            sv.dirichlet_solve(grid, inner, outer, small_cfg())


def test_cosine_solution_symmetries():
    cfg = small_cfg()
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 64, 16)
    u = sv.dirichlet_solve(grid, 0.0, BoundaryData.cosine(0.5), cfg)
    m = grid.shape[1]
    idx = np.arange(m)
    # even under theta -> -theta, odd under theta -> pi - theta
    assert np.max(np.abs(u[:, idx] - u[:, (-idx) % m])) <= 1e-8
    assert np.max(np.abs(u[:, idx] + u[:, (m // 2 - idx) % m])) <= 1e-8


def test_discrete_maximum_principle():
    cfg = small_cfg()
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 64, 16)
    u = sv.dirichlet_solve(grid, 0.0, BoundaryData.cosine(0.8), cfg)
    assert u.max() <= 0.8 + 1e-9
    assert u.min() >= -0.8 - 1e-9


def test_comparison_principle_between_solves():
    cfg = small_cfg()
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 64, 16)
    u1 = sv.dirichlet_solve(grid, 0.0, BoundaryData.cosine(0.5), cfg)
    u2 = sv.dirichlet_solve(grid, 0.2, BoundaryData(lambda th: 0.5 * np.cos(th) + 0.3), cfg)
    assert np.all(u2 >= u1 - 10 * cfg.newton_tol)


def test_newton_failure_reports_residual():
    cfg = small_cfg(max_newton=2)
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 64, 16)
    with pytest.raises(sv.NewtonError) as excinfo:
        sv.dirichlet_solve(grid, 0.0, BoundaryData.cosine(1.4), cfg,
                           u0=np.zeros(grid.shape))
    assert math.isfinite(excinfo.value.last_residual)


def test_singular_linearization_raises_newton_error(monkeypatch):
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 16, 8)

    def zero_weights(faces):
        return tuple((np.zeros_like(x),) * 2 for x, _, _ in faces)

    monkeypatch.setattr(sv, "_flux_weights", zero_weights)
    # radial data start at the discrete solution and linearize nothing
    with pytest.raises(sv.NewtonError, match="singular linearization"):
        sv.dirichlet_solve(grid, 0.0, BoundaryData(lambda th: 1.0 + 0.2 * np.cos(th)), small_cfg())


@pytest.mark.parametrize(
    "r_in, r_out, grading, t", [(1.0, 3.0, 1.0, 0.8), (1.0, 4.0, 2.0, 1.0)]
)
def test_solution_convergence_order(r_in, r_out, grading, t):
    # error of the Newton solution itself against the radial flux oracle
    errors = []
    for n in (65, 129, 257):
        grid = sv.AnnulusGrid.annulus(r_in, r_out, n, 16, grading=grading)
        u = sv.dirichlet_solve(grid, 0.0, t, small_cfg(n_r=n))
        prof = rd.radial_mse_solve(r_in, r_out, 0.0, t, nodes=grid.r)
        errors.append(float(np.max(np.abs(u - prof.value[:, None]))))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(o >= 1.8 for o in orders), orders


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("domain", ["disk", "annulus"])
def test_small_amplitude_solution_matches_the_conformal_closed_form(domain, k):
    # the slice is conformal to the unit disk through rho = conformal_radius(r),
    # so data eps cos k theta has the harmonic solution eps (A rho^k + B rho^-k)
    # cos k theta up to O(eps^3): (rho / rho(R))^k on disk(R), and A, B fixed by
    # the data on both circles of an annulus.  The measured orders are
    # 1.99-2.01 on every case; the disk's mode 1, where the inner closure
    # matters most, has err/eps 2.4e-3 down to 9.3e-6
    eps = 1e-3
    errors = []
    for n in (16, 32, 64, 128, 256):
        if domain == "disk":
            grid = sv.AnnulusGrid.disk(4.0, n + 1, n)
            inner, coeffs = None, [0.0, 1.0 / conformal_radius(4.0) ** k]
        else:
            grid = sv.AnnulusGrid.annulus(1.0, 3.0, n + 1, n)
            inner = BoundaryData.cosine(eps, mode=k)
            ends = conformal_radius(np.array([1.0, 3.0]))
            coeffs = np.linalg.solve(np.column_stack([ends**-k, ends**k]), [1.0, 1.0])
        rho = conformal_radius(grid.r)
        exact = eps * (coeffs[0] * rho**-k + coeffs[1] * rho**k)[:, None] * np.cos(k * grid.theta)
        u = sv.dirichlet_solve(grid, inner, BoundaryData.cosine(eps, mode=k), small_cfg())
        errors.append(float(np.max(np.abs(u - exact))) / eps)
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(o >= 1.8 for o in orders), (errors, orders)


# 1e200 is finite, but its differences overflow the residual to a fake zero
@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
def test_dirichlet_solve_rejects_non_finite_guess(bad):
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 16, 8)
    u0 = np.zeros(grid.shape)
    u0[5, 3] = bad
    with pytest.raises(ValueError, match="initial guess"):
        sv.dirichlet_solve(grid, 0.0, 1.0, small_cfg(), u0=u0)


def test_newton_emits_one_log_line_per_step(caplog):
    cfg = small_cfg()
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 64, 16)
    with caplog.at_level(logging.INFO, logger="nil3lab.solver"):
        # angular data: radial data would converge at the initial guess
        sv.dirichlet_solve(grid, 0.0, BoundaryData(lambda th: 0.5 + 0.1 * np.cos(th)), cfg)
    records = [r.getMessage() for r in caplog.records if r.name == "nil3lab.solver"]
    steps = [line for line in records if line.startswith("newton iter=")]
    assert len(steps) >= 2
    assert steps == records  # nothing else is logged inside the solve
    for line in steps:
        assert re.fullmatch(r"newton iter=\d+ residual=\S+ damping=\S+ "
                            r"step=(none|newton|lagged) krylov=(\d+|exact)", line), line
    assert steps[0].endswith(" step=none krylov=0")  # no step has reached the initial guess


def test_solve_skips_gmres_after_the_exact_fallback(monkeypatch, caplog):
    # this strongly non-radial disk solve runs GMRES until a step's forcing
    # term is too tight for MAX_KRYLOV iterations; from that linear solve on,
    # every step goes straight to block elimination
    gmres, step, solves = sv._gmres, sv._newton_step, []
    monkeypatch.setattr(sv, "_gmres", lambda *a: solves[-1].append(None) or gmres(*a))

    def recording_step(*a, **k):
        solves.append([])
        du, krylov = step(*a, **k)
        solves[-1] = (len(solves[-1]), krylov)
        return du, krylov

    monkeypatch.setattr(sv, "_newton_step", recording_step)
    grid = sv.AnnulusGrid.disk(2.0, 17, 8)
    with caplog.at_level(logging.INFO, logger="nil3lab.solver"):
        u = sv.dirichlet_solve(grid, None, BoundaryData.cosine(3.0, mode=3), small_cfg())
    steps = [r.getMessage() for r in caplog.records if r.name == "nil3lab.solver"][1:]
    first = next(n for n, line in enumerate(steps) if line.endswith(" krylov=exact"))
    assert first > 0 and all(line.endswith(" krylov=exact") for line in steps[first:]), steps
    fallback = [krylov for _, krylov in solves].index("exact")
    gmres_calls = [calls for calls, _ in solves]
    assert gmres_calls == [1] * (fallback + 1) + [0] * (len(solves) - fallback - 1)
    assert all(krylov == "exact" for _, krylov in solves[fallback:])
    assert np.max(np.abs(sv.mse_operator(u, grid))) <= small_cfg().newton_tol


def test_overflowing_trial_states_are_rejected(monkeypatch, caplog):
    # a first Newton direction so long that every damped trial state
    # overflows the residual: the line search rejects each trial rather than
    # take the zero fluxes of the overflow for convergence, and the lagged
    # step is taken instead
    step, residual = sv._newton_step, sv._solve_residual
    steps, overflows = [], []

    def long_first_step(*a, **k):
        du, krylov = step(*a, **k)
        steps.append(krylov)
        return (1e300 * du if len(steps) == 1 else du), krylov

    def counting_residual(*a):
        try:
            return residual(*a)
        except FloatingPointError:
            overflows.append(None)
            raise

    monkeypatch.setattr(sv, "_newton_step", long_first_step)
    monkeypatch.setattr(sv, "_solve_residual", counting_residual)
    grid = sv.AnnulusGrid.disk(4.0, 17, 8)
    outer = BoundaryData.cosine(1.0)
    with caplog.at_level(logging.INFO, logger="nil3lab.solver"):
        u = sv.dirichlet_solve(grid, None, outer, small_cfg())
    assert len(overflows) >= 20  # every halving down to omega = 1e-6
    assert caplog.records[1].getMessage().startswith("newton iter=1 ")
    assert " step=lagged " in caplog.records[1].getMessage()
    _assert_finite_within_data(u, [outer(grid.theta)], small_cfg())
    assert np.max(np.abs(sv.mse_operator(u, grid))) <= small_cfg().newton_tol


@pytest.mark.parametrize("seed", [3, 4, 6])
def test_stalled_newton_step_gives_way_to_the_lagged_step(caplog, seed):
    # mode-3 data on a small disk from a noisy default guess: the Newton
    # steps stall, and these solves raise NewtonError unless a
    # lagged-diffusivity step leads out of the stalled region
    grid = sv.AnnulusGrid.disk(4.67, 33, 12)
    outer = BoundaryData.cosine(1.16, mode=3)
    u0 = sv._default_guess(grid, None, outer(grid.theta))
    u0 += 0.03 * np.random.default_rng(seed).standard_normal(grid.shape)
    with caplog.at_level(logging.INFO, logger="nil3lab.solver"):
        u = sv.dirichlet_solve(grid, None, outer, small_cfg(), u0=u0)
    assert any(" step=lagged " in r.getMessage() for r in caplog.records)
    assert np.max(np.abs(sv.mse_operator(u, grid))) <= small_cfg().newton_tol


def test_boundary_data_validation():
    cfg = small_cfg()
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 64, 16)
    with pytest.raises(ValueError):
        sv.dirichlet_solve(grid, None, 1.0, cfg)
    with pytest.raises(ValueError):
        sv.dirichlet_solve(grid, 0.0, float("nan"), cfg)
    with pytest.raises(ValueError):
        sv.dirichlet_solve(grid, 0.0, 1.0, cfg, u0=np.zeros((3, 3)))


@pytest.mark.parametrize("shape", ["disk", "annulus"])
def test_callable_boundary_data_take_the_array_path(shape):
    # a 0-d result is broadcast like scalar data; a result of the wrong
    # shape is refused before the initial guess is built
    cfg = small_cfg(n_r=24, n_theta=12)
    if shape == "disk":
        grid, inner, inner_fn = sv.AnnulusGrid.disk(4.0, 24, 12), None, None
    else:
        grid, inner, inner_fn = sv.AnnulusGrid.annulus(1.0, 4.0, 24, 12), 0.5, lambda th: 0.5
    scalar = sv.dirichlet_solve(grid, inner, 1.0, cfg)
    called = sv.dirichlet_solve(grid, inner_fn, lambda th: 1.0, cfg)
    assert np.array_equal(called, scalar)
    with pytest.raises(ValueError, match="boundary array must match the angular nodes"):
        sv.dirichlet_solve(grid, inner, lambda th: np.ones(3), cfg)
    if shape == "annulus":
        with pytest.raises(ValueError, match="boundary array must match the angular nodes"):
            sv.dirichlet_solve(grid, lambda th: np.ones(3), 1.0, cfg)
    else:
        sol = sv.asymptotic_solve(lambda th: 0.7, cfg, radii=(8.0, 16.0))
        assert all(np.all(u == 0.7) for u in sol.fields)


# ---------------------------------------------------------------- boundary gradient


def test_boundary_gradient_cases():
    cfg = small_cfg()
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 96, 16, grading=2.0)
    assert sv.boundary_gradient_sup(np.full(grid.shape, 3.0), grid) <= 1e-9

    prof = rd.radial_mse_solve(1.0, 4.0, 0.0, 1.0, nodes=grid.r)
    u = np.tile(prof.value[:, None], (1, 16))
    assert abs(sv.boundary_gradient_sup(u, grid) - prof.deriv[0]) <= 5e-4

    params = rd.BarrierParams(1.0, 1.0)
    bgrid = sv.AnnulusGrid.annulus(1.0, 10.0, 129, 16, grading=2.0)
    bprof = rd.barrier_profile(params, bgrid.r - 1.0)
    ub = np.tile(bprof.value[:, None], (1, 16))
    assert abs(sv.boundary_gradient_sup(ub, bgrid) - 1.0) <= 1e-4


# ---------------------------------------------------------------- exterior / foliation


def test_exterior_zero_gradient_is_zero():
    cfg = small_cfg()
    sol = sv.exterior_solve(0.0, 1.0, cfg)
    assert sol.t_trace == [0.0, 0.0]
    for u in sol.fields:
        assert np.all(u == 0.0)


def test_exterior_small_schedule():
    cfg = small_cfg()
    sol = sv.exterior_solve(0.5, 1.0, cfg)
    for t_m, cap in zip(sol.t_trace, sol.barrier_caps):
        assert 0 < t_m <= cap
    for grad in sol.boundary_gradients:
        assert abs(grad - 0.5) <= cfg.bisection_tol
    assert np.max(sol.u.max(axis=1) - sol.u.min(axis=1)) <= 10 * cfg.newton_tol
    assert len(sol.cauchy) == 1 and sol.cauchy[0] < 0.1
    with pytest.raises(ValueError):
        sv.exterior_solve(-1.0, 1.0, cfg)
    with pytest.raises(ValueError):
        sv.exterior_solve(0.5, 0.0, cfg)


@pytest.mark.parametrize(
    "s, r0, schedule", [(0.5, 1.0, (3.0, 5.0)), (2.0, 1.0, (3.0, 5.0)), (1.0, 2.0, (4.0, 32.0))]
)
def test_exterior_field_convergence_order(s, r0, schedule):
    # the final exterior field against the rotational minimal graph with the
    # same boundary values; the measured orders are 2.00 +- 0.004
    errors = []
    for n in (65, 129, 257):
        sol = sv.exterior_solve(s, r0, small_cfg(n_r=n, n_theta=8, schedule=schedule))
        prof = rd.radial_mse_solve(r0, schedule[-1], 0.0, sol.t_trace[-1], nodes=sol.grid.r)
        errors.append(float(np.max(np.abs(sol.u - prof.value[:, None]))))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(o >= 1.8 for o in orders), (errors, orders)


@pytest.mark.parametrize(
    "s, r0", [(math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan), (0.5, math.inf)]
)
def test_exterior_rejects_non_finite_input(s, r0):
    with pytest.raises(ValueError):
        sv.exterior_solve(s, r0, small_cfg())


@pytest.mark.parametrize(
    "n_r, schedule, grading",
    [(17, (1.5, 3.0), 2.0),  # the window (1.2, 1.125) is empty
     (5, (1.7, 3.0), 1.0)],  # the window (1.2, 1.275) falls between nodes
)
def test_exterior_rejects_cauchy_window_without_nodes(monkeypatch, n_r, schedule, grading):
    # the Cauchy difference would be NaN; it is refused before any solve
    monkeypatch.setattr(sv, "dirichlet_solve", None)
    cfg = sv.SolverConfig(n_r=n_r, n_theta=8, schedule=schedule, grading=grading)
    with pytest.raises(ValueError, match="Cauchy window"):
        sv.exterior_solve(0.5, 1.0, cfg)


def _record_solves(monkeypatch, caplog):
    """Route Dirichlet solves through a recorder of (outer radius, outer data, Newton steps).

    Newton steps are counted from the solver log.  The recorder also asserts
    that each step linearizes once and makes one or two linear solves (the
    second for the lagged step tried after a damped Newton step).
    """
    caplog.set_level(logging.INFO, logger="nil3lab.solver")
    solves, linear_solves, linearizations = [], [], []
    solve, step, weights = sv.dirichlet_solve, sv._newton_step, sv._flux_weights

    def recording_solve(grid, inner, outer, cfg, u0=None):
        before = len(caplog.records), len(linear_solves), len(linearizations)
        u = solve(grid, inner, outer, cfg, u0=u0)
        taken = sum(r.getMessage().startswith("newton iter=")
                    for r in caplog.records[before[0]:]) - 1
        assert taken <= len(linear_solves) - before[1] <= 2 * taken
        assert len(linearizations) - before[2] == taken
        solves.append((float(grid.r[-1]), outer, taken))
        return u

    monkeypatch.setattr(sv, "_newton_step",
                        lambda *a, **k: linear_solves.append(None) or step(*a, **k))
    monkeypatch.setattr(sv, "_flux_weights",
                        lambda *a: linearizations.append(None) or weights(*a))
    monkeypatch.setattr(sv, "dirichlet_solve", recording_solve)
    return solves


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_exterior_outer_search_counters(monkeypatch, caplog, s):
    cfg = small_cfg()
    solves = _record_solves(monkeypatch, caplog)
    sol = sv.exterior_solve(s, 1.0, cfg)
    # one Dirichlet solve per m, at the closed-form outer value; it starts at
    # the discrete radial solution of its data and returns it: no Newton step,
    # linearization or linear solve
    assert solves == [(m, t_m, 0) for m, t_m in zip(sol.schedule, sol.t_trace)]
    assert 0.0 <= sol.t_trace[0] <= sol.t_trace[1]
    assert all(t_m <= cap for t_m, cap in zip(sol.t_trace, sol.barrier_caps))
    assert all(abs(grad - s) <= cfg.bisection_tol for grad in sol.boundary_gradients)


@pytest.mark.parametrize("n_r", [17, 64])
@pytest.mark.parametrize("grading", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 20.0])
def test_exterior_gradient_matches_s_to_roundoff(s, grading, n_r):
    # the outer value comes from the flux whose discrete inner gradient is s,
    # so the gradient of the returned field misses s only by roundoff
    cfg = small_cfg(n_r=n_r, n_theta=8, grading=grading)
    sol = sv.exterior_solve(s, 1.0, cfg)
    assert all(abs(grad - s) <= 1e-10 for grad in sol.boundary_gradients), sol.boundary_gradients
    assert np.all(np.diff(sol.t_trace) >= 0)
    assert all(t_m <= cap for t_m, cap in zip(sol.t_trace, sol.barrier_caps))


@pytest.mark.parametrize("s", [1e3, 1e5])
def test_steep_exterior_gradient_matches_s(s):
    # at s = 1e5 the flux lies within 1e-10 of g_0, finer than a root-find
    # in the flux resolves: the gradient once missed s by 1.2e-2 and the
    # command exited 1.  Found in the innermost slope, it misses by roundoff
    from nil3lab.cli import main

    sol = sv.exterior_solve(s, 1.0, sv.SolverConfig())
    grads = sol.boundary_gradients
    assert all(abs(grad - s) <= 1e-14 * s for grad in grads), grads
    assert np.all(np.diff(sol.t_trace) >= 0)
    assert all(t_m <= cap for t_m, cap in zip(sol.t_trace, sol.barrier_caps))
    assert main(["exterior", "--s", f"{s:g}", "--r0", "1"]) == 0


def test_exterior_steps_take_one_krylov_iteration(caplog):
    # radial states are where the theta-averaged preconditioner is the Newton
    # system itself.  The exterior solves take no step, so each of their
    # problems is solved again from the continuum radial profile, which is
    # off the discrete solution by the truncation error
    with caplog.at_level(logging.INFO, logger="nil3lab.solver"):
        for s in (0.5, 1.0, 2.0):
            sol = sv.exterior_solve(s, 1.0, small_cfg())
            for grid, t in zip(sol.grids, sol.t_trace):
                prof = rd.radial_mse_solve(1.0, grid.r[-1], 0.0, t, nodes=grid.r)
                u0 = np.tile(prof.value[:, None], (1, grid.shape[1]))
                sv.dirichlet_solve(grid, 0.0, t, small_cfg(), u0=u0)
    steps = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("newton iter=") and "iter=0 " not in r.getMessage()]
    assert steps
    assert all(line.endswith(" krylov=1") for line in steps), steps


def test_exterior_refuses_an_outer_value_above_the_cap(monkeypatch, caplog):
    # the barrier caps the closed-form outer value as a check: a cap one ulp
    # below t_m at m = 5 raises BracketError before that m's Dirichlet solve
    cfg = small_cfg()
    t_trace = sv.exterior_solve(0.5, 1.0, cfg).t_trace
    cap = math.nextafter(t_trace[1], 0.0)
    solves = _record_solves(monkeypatch, caplog)
    monkeypatch.setattr(sv, "barrier_f", lambda params, r: (cap, 0.0))
    with pytest.raises(sv.BracketError, match="barrier cap"):
        sv.exterior_solve(0.5, 1.0, cfg)
    assert solves == [(3.0, t_trace[0], 0)]


def test_exterior_checks_the_gradient_of_the_solved_field(monkeypatch):
    # a field whose inner gradient misses s by more than bisection_tol raises
    # SolverError, which the CLI maps to exit 1
    from nil3lab.cli import main

    grad = sv.boundary_gradient_sup
    monkeypatch.setattr(sv, "boundary_gradient_sup", lambda u, grid: grad(u, grid) + 1e-3)
    with pytest.raises(sv.SolverError, match="bisection_tol") as info:
        sv.exterior_solve(0.5, 1.0, small_cfg())
    assert type(info.value) is sv.SolverError
    argv = ["exterior", "--s", "0.5", "--r0", "1", "--n-r", "64", "--n-theta", "16",
            "--schedule", "3,5"]
    assert main(argv) == 1


def test_exterior_outer_rim_gradient_capped_by_barrier_slope():
    # the truncated solutions' radial gradient at the outer rim stays below
    # the barrier derivative at the rim distance
    cfg = small_cfg()
    sol = sv.exterior_solve(0.5, 1.0, cfg)
    bp = rd.BarrierParams(0.5, 1.0)
    for grid, u, m in zip(sol.grids, sol.fields, sol.schedule):
        r = grid.r
        h1 = r[-1] - r[-2]
        h2 = r[-1] - r[-3]
        a1 = h2 / (h1 * (h2 - h1))
        a2 = -h1 / (h2 * (h2 - h1))
        ur_rim = np.max(np.abs(-(a1 + a2) * u[-1] + a1 * u[-2] + a2 * u[-3]))
        assert ur_rim <= rd.barrier_fprime(bp, m - 1.0) + 1e-6


def test_foliation_check_orders_solutions():
    cfg = small_cfg()
    sols = [sv.exterior_solve(s, 1.0, cfg) for s in (0.0, 0.3, 0.6)]
    report = sv.foliation_check(sols)
    assert report.ordered
    assert all(g > 0 for g in report.min_interior_gaps)
    assert report.rim_separation_min > 0
    assert report.separated
    with pytest.raises(ValueError):
        sv.foliation_check(sols[:1])
    with pytest.raises(ValueError):
        sv.foliation_check([sols[0], sols[0]])


# ---------------------------------------------------------------- asymptotic


def test_asymptotic_constant_data():
    cfg = small_cfg(n_r=96, compact_rmax=3.0)
    sol = sv.asymptotic_solve(BoundaryData.constant(0.7), cfg, radii=(6.0, 10.0))
    for u in sol.fields:
        assert np.max(np.abs(u - 0.7)) <= cfg.newton_tol


def test_asymptotic_cosine_properties():
    cfg = small_cfg(n_r=96, compact_rmax=3.0)
    sol = sv.asymptotic_solve(BoundaryData.cosine(1.0), cfg, radii=(6.0, 10.0, 14.0))
    for u in sol.fields:
        assert u.max() <= 1.0 + 1e-9 and u.min() >= -1.0 - 1e-9
    assert len(sol.sup_diffs) == 2
    assert sol.sup_diffs[1] < sol.sup_diffs[0]

    lifted = sv.asymptotic_solve(
        BoundaryData(lambda th: np.cos(th) + 0.4), cfg, radii=(6.0, 10.0, 14.0)
    )
    for u1, u2 in zip(sol.fields, lifted.fields):
        assert np.all(u2 >= u1 - 10 * cfg.newton_tol)
    with pytest.raises(ValueError):
        sv.asymptotic_solve(BoundaryData.cosine(1.0), cfg, radii=(10.0, 6.0))


def test_asymptotic_jacobian_counters(monkeypatch, caplog):
    # cold-started non-radial solves start at the conformal harmonic
    # extension of the data and converge in four or three inexact Newton
    # steps; each step's GMRES stops at a forcing term of the order of the
    # residual, which takes 26 iterations in all here.  Face slopes are
    # evaluated once per residual, GMRES product and preconditioner column:
    # a step linearizes at the faces that its iterate's residual kept
    cfg = small_cfg()
    solves = _record_solves(monkeypatch, caplog)
    calls = {"_face_slopes": 0, "_solve_residual": 0, "_newton_step": 0}
    for name in calls:
        def counted(*a, _f=getattr(sv, name), _name=name, **k):
            calls[_name] += 1
            return _f(*a, **k)
        monkeypatch.setattr(sv, name, counted)
    sol = sv.asymptotic_solve(BoundaryData.cosine(1.0), cfg, radii=(6.0, 10.0, 14.0))
    assert [steps for _, _, steps in solves] == [4, 3, 3]
    krylov = [int(k) for r in caplog.records
              for k in re.findall(r" krylov=(\d+)$", r.getMessage())]
    assert sum(krylov) == 26, krylov
    assert calls["_newton_step"] == 10
    assert calls["_face_slopes"] == calls["_solve_residual"] + sum(krylov) + calls["_newton_step"]
    for grid, u in zip(sol.grids, sol.fields):
        assert np.max(np.abs(sv.mse_operator(u, grid))) <= cfg.newton_tol


def test_asymptotic_cosine_field_is_minimal_in_3d():
    # the non-radial field through the 3-D mean-curvature oracle, which shares
    # no code with the solver: small, and shrinking as the angular grid refines
    from nil3lab import verify as vf

    points = np.array([(r, phi) for r in np.linspace(0.5, 4.0, 8) for phi in (0.3, 1.9, 4.0)])
    sup_h = []
    for n_theta in (16, 32):
        cfg = small_cfg(n_r=96, n_theta=n_theta, compact_rmax=3.0)
        sol = sv.asymptotic_solve(BoundaryData.cosine(1.0), cfg, radii=(6.0, 10.0, 14.0))
        sample = vf.graph_embed(sol.u, sol.grids[-1])
        sup_h.append(np.max(np.abs(vf.mean_curvature_residual(sample, points))))
    assert max(sup_h) <= 5e-3, sup_h
    assert sup_h[0] >= 3.0 * sup_h[1], sup_h


@pytest.mark.parametrize(
    "compact_rmax, radii",
    [(0.01, (4.0, 6.0)),  # below the innermost ring 4/33 of R = 4
     # the ring 4/33 of R = 4 lies below the innermost ring 6/33 of R = 6
     (0.15, (4.0, 6.0)),
     # R = 1 has rings in [4/33, 0.2], R = 4 none in [6/33, 0.2]
     (0.2, (1.0, 4.0, 6.0)),
     (-1.0, (4.0, 6.0))],
)
def test_compact_window_must_hold_a_node_of_every_disk(monkeypatch, compact_rmax, radii):
    # each disk is compared with the next at its rings in the window from
    # the next disk's innermost ring on; a window that leaves a disk none is
    # refused before any solve
    monkeypatch.setattr(sv, "dirichlet_solve", None)
    cfg = sv.SolverConfig(n_r=17, n_theta=8, compact_rmax=compact_rmax)
    with pytest.raises(ValueError, match="compact window"):
        sv.asymptotic_solve(BoundaryData.cosine(1.0), cfg, radii=radii)


def test_sup_diffs_of_one_field_on_two_coarse_disks_vanish():
    # r cos theta is linear in r along each ray, so interpolating it in r is
    # exact and one field on two disks differs by 0.  At the R = 4 rings
    # below the R = 32 disk's innermost ring 32/33 the interpolant would only
    # repeat that ring, an error of up to 0.85; those rings are not compared
    grids = [sv.AnnulusGrid.disk(radius, 17, 16) for radius in (4.0, 32.0)]
    fields = [grid.r[:, None] * np.cos(grid.theta) for grid in grids]
    masks = sv._compared_nodes(grids, 0.0, 4.0, "compact window")
    assert sv._consecutive_sup_diffs(grids, fields, masks)[0] <= 1e-14


def _interp_loop_sup_diffs(grids, fields, masks):
    """The consecutive sup differences by one np.interp call per angle."""
    diffs = []
    for grid_a, u_a, grid_b, u_b, mask in zip(grids, fields, grids[1:], fields[1:], masks):
        radii = grid_a.r[mask]
        interp = np.stack([np.interp(radii, grid_b.r, col) for col in u_b.T], axis=1)
        diffs.append(float(np.max(np.abs(u_a[mask] - interp))))
    return diffs


def test_sup_diffs_equal_the_interp_loop_on_solves():
    cfg = small_cfg(n_r=48, n_theta=16, schedule=(3.0, 5.0, 8.0))
    ext = sv.exterior_solve(0.5, 1.0, cfg)
    masks = sv._compared_nodes(ext.grids, 1.2, 0.75 * 3.0, "Cauchy window")
    assert ext.cauchy == _interp_loop_sup_diffs(ext.grids, ext.fields, masks)
    cfg = small_cfg(n_r=33, n_theta=16, compact_rmax=3.0)
    asy = sv.asymptotic_solve(BoundaryData.cosine(1.0, phase=0.3), cfg, radii=(6.0, 10.0, 14.0))
    masks = sv._compared_nodes(asy.grids, 0.0, 3.0, "compact window")
    assert asy.sup_diffs == _interp_loop_sup_diffs(asy.grids, asy.fields, masks)


def test_sup_diffs_equal_the_interp_loop_at_nodes_and_past_the_last_ring():
    # radii in quarter steps, so the coarse radii 1, 1.5, ..., 4 are nodes of
    # the fine grid exactly, 4 its last ring; 4.5 and 5 lie past that ring
    theta = np.arange(16) * (2.0 * math.pi / 16)
    coarse = sv.AnnulusGrid(np.arange(2.0, 11.0) / 2.0, theta)
    fine = sv.AnnulusGrid(np.arange(4.0, 17.0) / 4.0, theta)
    odd = sv.AnnulusGrid(1.0 + 3.0 * np.linspace(0.0, 1.0, 7) ** 1.7, theta)
    rng = np.random.default_rng(11)
    for grids in ([coarse, fine], [coarse, odd], [fine, fine], [odd, coarse]):
        # magnitudes over 16 decades, so that rounding in the slope shows
        fields = [rng.standard_normal(g.shape) * 10.0 ** rng.uniform(-8, 8, g.shape)
                  for g in grids]
        masks = sv._compared_nodes(grids, 0.0, 10.0, "window")
        assert sv._consecutive_sup_diffs(grids, fields, masks) == _interp_loop_sup_diffs(
            grids, fields, masks)
        # one radius and one angle at a time against zero: each sup is one
        # interpolated value, so a last bit off anywhere shows
        for c in range(len(theta)):
            column = [np.zeros(grids[0].shape), np.zeros(grids[1].shape)]
            column[1][:, c] = fields[1][:, c]
            for i in np.flatnonzero(masks[0]):
                one = [np.arange(len(grids[0].r)) == i]
                assert (sv._consecutive_sup_diffs(grids, column, one)
                        == _interp_loop_sup_diffs(grids, column, one))


@pytest.mark.parametrize("radii", [(8.0, math.inf), (8.0, math.nan), (-1.0, 8.0)])
def test_asymptotic_rejects_bad_radii(monkeypatch, radii):
    monkeypatch.setattr(sv.AnnulusGrid, "disk", None)  # no grid may be built
    with pytest.raises(ValueError, match="radii"):
        sv.asymptotic_solve(BoundaryData.cosine(1.0), small_cfg(), radii=radii)


# ---------------------------------------------------------------- fuzz


def _shifted_cosine(amplitude, mode, phase, shift):
    return BoundaryData(lambda th: amplitude * np.cos(mode * th - phase) + shift)


# finite cosine data, constant at amplitude 0
boundary_data = st.builds(_shifted_cosine, st.floats(0.0, 1.5), st.integers(1, 3),
                          st.floats(0.0, 2.0 * math.pi), st.floats(-1.0, 1.0))
small_grids = st.one_of(
    st.builds(sv.AnnulusGrid.annulus, st.just(1.0), st.floats(2.0, 6.0), st.integers(9, 33),
              st.sampled_from([8, 16]), st.floats(1.0, 2.5)),
    st.builds(sv.AnnulusGrid.disk, st.floats(2.0, 8.0), st.integers(9, 33),
              st.sampled_from([8, 16])),
)


def _assert_finite_within_data(u, data, cfg):
    # the discrete maximum principle, up to the Newton tolerance
    values = np.concatenate(data)
    assert np.all(np.isfinite(u))
    assert values.min() - 10 * cfg.newton_tol <= u.min()
    assert u.max() <= values.max() + 10 * cfg.newton_tol


@settings(max_examples=40)
@given(grid=small_grids, inner=boundary_data, outer=boundary_data,
       guess=st.one_of(st.none(), st.tuples(st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))))
# from this guess the iterates reach slopes near 1e100, where the Newton
# weights and GMRES overflow: the solve raises NewtonError, and no
# RuntimeWarning escapes it
@example(grid=sv.AnnulusGrid.disk(2.8828125, 27, 8), inner=_shifted_cosine(0.375, 2, 0.0, 0.0),
         outer=_shifted_cosine(1.25, 1, 0.0, 0.0), guess=(27020, 2.5546875))
def test_dirichlet_solve_fuzz(grid, inner, outer, guess):
    cfg = small_cfg()
    u0 = None
    if guess is not None:
        seed, scale = guess
        u0 = scale * np.random.default_rng(seed).standard_normal(grid.shape)
    inner = inner if grid.inner == "dirichlet" else None
    try:
        u = sv.dirichlet_solve(grid, inner, outer, cfg, u0=u0)
    except (sv.SolverError, ValueError):
        if u0 is None:
            raise  # the default guess must converge
        return
    data = [outer(grid.theta)] + ([inner(grid.theta)] if inner is not None else [])
    _assert_finite_within_data(u, data, cfg)


@settings(max_examples=20)
@given(phi=boundary_data, n_r=st.integers(9, 33), n_theta=st.sampled_from([8, 16]),
       compact_rmax=st.floats(0.5, 3.0), radii=st.lists(st.floats(3.0, 10.0), min_size=1,
                                                        max_size=3, unique=True))
def test_asymptotic_solve_fuzz(phi, n_r, n_theta, compact_rmax, radii):
    cfg = small_cfg(n_r=n_r, n_theta=n_theta, compact_rmax=compact_rmax)
    try:
        sol = sv.asymptotic_solve(phi, cfg, radii=sorted(radii))
    except (sv.SolverError, ValueError):
        return
    for grid, u in zip(sol.grids, sol.fields):
        _assert_finite_within_data(u, [phi(grid.theta)], cfg)
    assert np.all(np.isfinite(sol.sup_diffs))


@settings(max_examples=15)
@given(s=st.floats(0.0, 2.0), r0=st.floats(0.5, 2.0), n_r=st.integers(9, 33),
       n_theta=st.sampled_from([8, 12, 16]), gaps=st.tuples(st.floats(0.1, 4.0),
                                                             st.floats(0.5, 8.0)))
def test_exterior_solve_fuzz(s, r0, n_r, n_theta, gaps):
    # a result keeps its invariants or a typed error is raised, and the CLI
    # exits with the matching code for the same inputs
    import contextlib
    import io

    from nil3lab.cli import main

    schedule = (r0 + gaps[0], r0 + gaps[0] + gaps[1])
    cfg = sv.SolverConfig(n_r=n_r, n_theta=n_theta, schedule=schedule)
    try:
        sol = sv.exterior_solve(s, r0, cfg)
    except (sv.SolverError, ValueError) as exc:
        expected = 1 if isinstance(exc, (sv.SolverError, rd.NoAdmissibleFluxError)) else 2
    else:
        expected = 0
        t = np.array(sol.t_trace)
        assert np.all(np.isfinite(t)) and np.all(np.diff(t) >= 0)
        assert np.all(t <= np.array(sol.barrier_caps))
        assert all(abs(g - s) <= cfg.bisection_tol for g in sol.boundary_gradients)
    argv = ["exterior", "--s", repr(s), "--r0", repr(r0), "--n-r", str(n_r),
            "--n-theta", str(n_theta), "--schedule", ",".join(map(repr, schedule))]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == expected
