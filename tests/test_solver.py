import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.linalg import spsolve

from nil3lab import radial as rd
from nil3lab import solver as sv
from nil3lab.surface import BoundaryData

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
    with pytest.raises(ValueError):
        sv.AnnulusGrid.disk(4.0, 32, 16, r_core=5.0)


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
    import re

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
    c = prof.flux

    def height(x, y):
        return rd.flux_height_difference(c, 1.0, SQRT2 * math.hypot(x, y))

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


def _stencil_matrix(stencil):
    """CSR matrix of a Jacobian stencil: row (i, j), column (i+di, j+dj mod n_theta)."""
    n1, m = stencil.shape[:2]
    node = np.arange(n1 * m).reshape(n1, m)
    i, j = np.meshgrid(np.arange(n1), np.arange(m), indexing="ij")
    rows, cols, vals = [], [], []
    for di in (-1, 0, 1):
        ok = (i + di >= 0) & (i + di < n1)
        for dj in (-1, 0, 1):
            rows.append(node[ok])
            cols.append(node[(i + di)[ok], ((j + dj) % m)[ok]])
            vals.append(stencil[:, :, 1 + di, 1 + dj][ok])
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n1 * m, n1 * m),
    )


def _linearization_state(kind, n_theta, grading):
    """Grid, boundary rows and a non-radial state: the cosine default guess plus a mode-2 bump."""
    if kind == "annulus":
        grid = sv.AnnulusGrid.annulus(1.0, 4.0, 33, n_theta, grading=grading)
        inner_vals = np.zeros(n_theta)
    else:
        grid = sv.AnnulusGrid.disk(6.0, 33, n_theta)
        inner_vals = None
    outer_vals = BoundaryData.cosine(1.0)(grid.theta)
    xi = ((grid.r - grid.r[0]) / (grid.r[-1] - grid.r[0]))[:, None]
    u = sv._default_guess(grid, inner_vals, outer_vals)
    u = u + 0.3 * np.sin(math.pi * xi) * np.cos(2.0 * grid.theta)[None, :]
    return grid, inner_vals, outer_vals, u, xi


@pytest.mark.parametrize("kind", ["annulus", "disk"])
@pytest.mark.parametrize("n_theta", [8, 10, 16])
def test_block_solve_matches_sparse_oracle(kind, n_theta):
    # at n_theta = 8 the periodic wrap couples j = 0 and j = 7 in every block
    grid, _, _, u, _ = _linearization_state(kind, n_theta, grading=2.0)
    stencil = sv._newton_jacobian(u, grid)
    assert stencil.shape == grid.shape + (3, 3)
    rhs, rhs2 = np.random.default_rng(4).standard_normal((2,) + grid.shape)
    solve = sv._block_factor(stencil)
    x = solve(rhs)
    ref = spsolve(_stencil_matrix(stencil), rhs.ravel()).reshape(grid.shape)
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))
    # the kept factors serve a second right-hand side as a fresh factorization does
    ref2 = sv._block_factor(stencil)(rhs2)
    assert np.max(np.abs(solve(rhs2) - ref2)) <= 1e-10 * np.max(np.abs(ref2))


@pytest.mark.parametrize("kind, grading", [
    pytest.param("annulus", 1.0, id="annulus"),
    pytest.param("annulus", 2.0, id="annulus-graded"),
    pytest.param("disk", 1.0, id="disk"),
])
def test_jacobian_taylor_remainder(kind, grading):
    # |R(u + eps v) - R(u) - eps J v| is O(eps^2) when J is the linearization.
    # v is smooth: a random v is not in the asymptotic range at these eps
    grid, inner_vals, outer_vals, u, xi = _linearization_state(kind, 16, grading=grading)
    th = grid.theta[None, :]
    v = np.sin(math.pi * xi) * (1.0 + np.cos(th) + 0.5 * np.sin(3.0 * th))
    res = sv._solve_residual(u, grid, inner_vals, outer_vals)
    jv = (_stencil_matrix(sv._newton_jacobian(u, grid)) @ v.ravel()).reshape(grid.shape)
    remainders = [
        np.max(np.abs(sv._solve_residual(u + eps * v, grid, inner_vals, outer_vals)
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
        (sv._solve_residual(u + e, grid, inner_vals, outer_vals)
         - sv._solve_residual(u - e, grid, inner_vals, outer_vals)).ravel() / (2 * h)
        for e in h * np.eye(u.size).reshape((-1,) + grid.shape)
    ]).T
    jac = _stencil_matrix(sv._newton_jacobian(u, grid)).toarray()
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
    monkeypatch.setattr(sv, "_newton_jacobian", lambda u, *a: np.zeros(u.shape + (3, 3)))
    with pytest.raises(sv.NewtonError, match="singular linearization"):
        sv.dirichlet_solve(grid, 0.0, 1.0, small_cfg())


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


@pytest.mark.parametrize("broken", ["negated", "non-finite"])
def test_failed_reuse_refactors_and_converges(monkeypatch, caplog, broken):
    # the first factorization gives a good first step and then, reused, a
    # step that fails the line search or is not finite: the solve must
    # refactor at that iterate and converge instead of raising
    import logging

    factor = sv._block_factor
    factorizations = []

    def flaky_factor(stencil):
        solve = factor(stencil)
        factorizations.append(None)
        if len(factorizations) > 1:
            return solve
        calls = []

        def first_solve(rhs):
            calls.append(None)
            x = solve(rhs)
            if len(calls) == 1:
                return x
            return -x if broken == "negated" else np.full_like(x, np.nan)

        return first_solve

    monkeypatch.setattr(sv, "_block_factor", flaky_factor)
    cfg = small_cfg()
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 64, 16)
    with caplog.at_level(logging.INFO, logger="nil3lab.solver"):
        u = sv.dirichlet_solve(grid, 0.0, BoundaryData.cosine(0.5), cfg)
    steps = [r.getMessage() for r in caplog.records if r.name == "nil3lab.solver"]
    assert "jacobian=reused" in steps[1]  # the broken factors were tried
    assert len(factorizations) >= 2
    assert np.max(np.abs(sv.mse_operator(u, grid)[1:-1])) <= cfg.newton_tol


# 1e200 is finite, but its differences overflow the residual to a fake zero
@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
def test_dirichlet_solve_rejects_non_finite_guess(bad):
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 16, 8)
    u0 = np.zeros(grid.shape)
    u0[5, 3] = bad
    with pytest.raises(ValueError, match="initial guess"):
        sv.dirichlet_solve(grid, 0.0, 1.0, small_cfg(), u0=u0)


def test_newton_emits_one_log_line_per_step(caplog):
    import logging

    cfg = small_cfg()
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 64, 16)
    with caplog.at_level(logging.INFO, logger="nil3lab.solver"):
        sv.dirichlet_solve(grid, 0.0, 0.5, cfg)
    records = [r.getMessage() for r in caplog.records if r.name == "nil3lab.solver"]
    steps = [line for line in records if line.startswith("newton iter=")]
    assert len(steps) >= 2
    assert steps == records  # nothing else is logged inside the solve
    for line in steps:
        assert "residual=" in line and "damping=" in line
        assert ("jacobian=fresh" in line) != ("jacobian=reused" in line)
    assert "jacobian=fresh" in steps[0]


def test_boundary_data_validation():
    cfg = small_cfg()
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 64, 16)
    with pytest.raises(ValueError):
        sv.dirichlet_solve(grid, None, 1.0, cfg)
    with pytest.raises(ValueError):
        sv.dirichlet_solve(grid, 0.0, float("nan"), cfg)
    with pytest.raises(ValueError):
        sv.dirichlet_solve(grid, 0.0, 1.0, cfg, u0=np.zeros((3, 3)))


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


def _record_solves(monkeypatch):
    """Route Dirichlet solves through a recorder of (outer radius, outer data, Jacobian builds)."""
    solves, builds = [], []
    solve, jacobian = sv.dirichlet_solve, sv._newton_jacobian

    def counting_jacobian(*args):
        builds.append(None)
        return jacobian(*args)

    def recording_solve(grid, inner, outer, cfg, u0=None):
        before = len(builds)
        u = solve(grid, inner, outer, cfg, u0=u0)
        solves.append((float(grid.r[-1]), outer, len(builds) - before))
        return u

    monkeypatch.setattr(sv, "_newton_jacobian", counting_jacobian)
    monkeypatch.setattr(sv, "dirichlet_solve", recording_solve)
    return solves


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_exterior_outer_search_counters(monkeypatch, s):
    cfg = small_cfg()
    solves = _record_solves(monkeypatch)
    sol = sv.exterior_solve(s, 1.0, cfg)
    # the warm-started exterior solves keep their first factorization throughout
    assert all(builds == 1 for _, _, builds in solves)
    prev_t = 0.0
    for m, t_m, cap, grad in zip(
        sol.schedule, sol.t_trace, sol.barrier_caps, sol.boundary_gradients
    ):
        outer = [t for mm, t, _ in solves if mm == m]
        assert 1 <= len(outer) <= 3
        assert all(prev_t <= t <= cap for t in outer)
        assert abs(grad - s) <= cfg.bisection_tol
        prev_t = t_m


def test_exterior_gives_up_below_the_cap(monkeypatch):
    cfg = small_cfg(schedule=(3.0,))
    solves = _record_solves(monkeypatch)
    # a gradient that grows with t but stays below s = 0.5 up to the cap
    # (about 1.08): every secant step overshoots the cap
    monkeypatch.setattr(sv, "boundary_gradient_sup", lambda u, grid: 0.1 * u[-1, 0])
    with pytest.raises(sv.BracketError):
        sv.exterior_solve(0.5, 1.0, cfg)
    cap = rd.barrier_f(rd.BarrierParams(0.5, 1.0), 2.0)[0]
    assert len(solves) == sv.MAX_OUTER_EVALS
    assert all(0 < t <= cap for _, t, _ in solves)


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


def test_asymptotic_jacobian_counters(monkeypatch):
    # cold-started non-radial solves refactor once, after the first step
    solves = _record_solves(monkeypatch)
    sv.asymptotic_solve(BoundaryData.cosine(1.0), small_cfg(), radii=(6.0, 10.0, 14.0))
    assert [builds for _, _, builds in solves] == [2, 2, 2]


def test_asymptotic_cosine_field_is_minimal_in_3d():
    # the non-radial field through the 3-D mean-curvature oracle, which shares
    # no code with the solver: small, and shrinking as the angular grid refines
    from nil3lab import verify as vf

    points = [(r, phi) for r in np.linspace(0.5, 4.0, 8) for phi in (0.3, 1.9, 4.0)]
    sup_h = []
    for n_theta in (16, 32):
        cfg = small_cfg(n_r=96, n_theta=n_theta, compact_rmax=3.0)
        sol = sv.asymptotic_solve(BoundaryData.cosine(1.0), cfg, radii=(6.0, 10.0, 14.0))
        sample = vf.graph_embed(sol.u, sol.grids[-1])
        sup_h.append(max(abs(vf.mean_curvature_residual(sample, p)) for p in points))
    assert max(sup_h) <= 5e-3, sup_h
    assert sup_h[0] >= 3.0 * sup_h[1], sup_h


def test_compact_window_must_reach_beyond_the_core():
    # sup_diffs would be NaN; the config is refused before any solve
    with pytest.raises(ValueError, match="compact window"):
        sv.SolverConfig(n_r=17, n_theta=8, compact_rmax=0.01)
    with pytest.raises(ValueError, match="compact window"):
        sv.SolverConfig(r_core=0.5, compact_rmax=0.5)


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
# from this guess a full Newton step once overflowed every flux to zero, and
# the solve returned values near 1e160 as converged
@example(grid=sv.AnnulusGrid.disk(2.439453125, 9, 8), inner=_shifted_cosine(0.0, 1, 0.0, 0.0),
         outer=_shifted_cosine(0.5, 1, 0.0, 0.0), guess=(14007, 2.70703125))
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
