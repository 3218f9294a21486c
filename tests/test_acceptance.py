"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All tolerances are pinned here.  Criteria 3-7 and 9 assert these pinned
tolerances on the values of one shared `run_claim_checks()` report, so the
geometry claims have a single implementation in `nil3lab.verify`; the other
criteria compute their own numbers.  The heavy exterior/asymptotic criteria
run at grid 256 x 64 with the schedule (4, 8, 16, 32) and together stay
within a few minutes on a desk machine.
"""

import math

import numpy as np
import pytest

from nil3lab import radial as rd
from nil3lab import solver as sv
from nil3lab import surface as sf
from nil3lab import verify as vf
from nil3lab.nilcore import (
    ChartPoint,
    TangentVector,
    balanced_metric_from_translations,
    christoffel_closed_form,
    christoffel_from_metric,
    frame_norm,
    metric_closed_form,
)


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def claims():
    """The claim reports by id, computed once for criteria 3-7 and 9."""
    return {r.claim_id: r for r in vf.run_claim_checks()}


def test_criterion_01_metric_equivalence():
    frames = np.eye(3)
    worst = 0.0
    for x in np.linspace(-5, 5, 20):
        for y in np.linspace(-5, 5, 20):
            p = ChartPoint(x, y, 0.0)
            g = p.to_group()
            closed = metric_closed_form(p).matrix()
            for i in range(3):
                for j in range(i, 3):
                    val = balanced_metric_from_translations(
                        g,
                        TangentVector(p, *frames[i]),
                        TangentVector(p, *frames[j]),
                    )
                    worst = max(worst, abs(val - closed[i, j]))
    _report(1, "metric-equivalence", worst <= 1e-10, f"max error {worst:.2e} <= 1e-10")


def test_criterion_02_connection_certification():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        p = ChartPoint(*rng.uniform(-3, 3, size=2), 0.0)
        closed = christoffel_closed_form(p).gamma
        koszul = christoffel_from_metric(p, 1e-4).gamma
        worst = max(worst, float(np.max(np.abs(closed - koszul))))
    _report(2, "connection-certification", worst <= 1e-6, f"max error {worst:.2e} <= 1e-6")


def test_criterion_03_totally_geodesic(claims):
    vals = claims["totally-geodesic-slice"].values
    worst_ii, worst_zeta = vals["max_second_fundamental_form"], vals["max_zeta_drift"]
    ok = worst_ii <= 1e-10 and worst_zeta <= 1e-8
    _report(
        3,
        "totally-geodesic-slice",
        ok,
        f"max |II| {worst_ii:.2e} <= 1e-10, max |zeta| {worst_zeta:.2e} <= 1e-8",
    )


def test_criterion_04_product_splitting(claims):
    worst = claims["product-splitting"].values["max_pullback_defect"]
    _report(4, "product-splitting", worst <= 1e-10, f"max pullback defect {worst:.2e} <= 1e-10")


def test_criterion_05_circle_action(claims):
    vals = claims["circle-action-isometry"].values
    worst_iso = vals["max_isometry_defect"]
    worst_slice, worst_center = vals["max_slice_drift"], vals["max_center_motion"]
    ok = worst_iso <= 1e-8 and worst_slice == 0.0 and worst_center == 0.0
    _report(
        5,
        "circle-action",
        ok,
        f"isometry defect {worst_iso:.2e} <= 1e-8, slice drift {worst_slice:g}, "
        f"center motion {worst_center:g} (both exactly 0)",
    )


def test_criterion_06_radial_geodesics(claims):
    vals = claims["radial-geodesics"].values
    worst_res, worst_dist = vals["max_geodesic_residual"], vals["max_distance_defect"]
    int_err = vals["integrator_endpoint_error"]
    ok = worst_res <= 1e-10 and worst_dist <= 1e-12 and int_err <= 1e-8
    _report(
        6,
        "radial-geodesics",
        ok,
        f"ode residual {worst_res:.2e} <= 1e-10, distance defect {worst_dist:.2e} <= 1e-12, "
        f"integrator error {int_err:.2e} <= 1e-8",
    )


def test_criterion_07_curvature_adjudication(claims):
    report = claims["curvature-constant"]
    worst = report.values["max_oracle_disagreement"]
    oracle = report.values["oracle_value_at_origin"]
    doubled = report.values["doubled_candidate_at_origin"]
    ok = (
        worst <= 1e-5
        and abs(oracle - (-0.375)) <= 1e-7
        and doubled == -0.75
        and report.verdict == "discrepancy"
    )
    _report(
        7,
        "curvature-adjudication",
        ok,
        f"oracle agreement {worst:.2e} <= 1e-5, oracle at origin {oracle:.6f} vs "
        f"doubled candidate {doubled}, verdict {report.verdict!r}",
    )


def test_criterion_08_diagonal_unit_speed():
    worst = 0.0
    for t in np.linspace(0, 10, 101):
        p = ChartPoint(t / 2, t / 2, 0.0)
        worst = max(worst, abs(frame_norm(p, [0.5, 0.5, 0.0]) - 1.0))
    _report(8, "diagonal-unit-speed", worst <= 1e-12, f"max |speed - 1| {worst:.2e} <= 1e-12")


def test_criterion_09_catenoid(claims):
    vals = claims["catenoid-minimality"].values
    neck, worst_h = vals["neck_identity_defect"], vals["max_mean_curvature"]
    params = rd.CatenoidParams(3.0, 1.0)
    radii = np.concatenate([[1.05, 1.1, 1.25], np.linspace(1.5, 20.0, 9)])
    fluxes = [rd.catenoid_flux_check(params, r) for r in radii]
    spread = max(fluxes) - min(fluxes)
    ok = neck <= 1e-10 and spread <= 1e-8 and worst_h <= 1e-5
    _report(
        9,
        "catenoid",
        ok,
        f"neck identity {neck:.2e} <= 1e-10, flux spread {spread:.2e} <= 1e-8, "
        f"mean curvature {worst_h:.2e} <= 1e-5",
    )


def test_criterion_10_barrier():
    params = rd.BarrierParams(1.0, 1.0)
    f0, fp0 = rd.barrier_f(params, 0.0)
    norm_err = abs(fp0 - 1.0)
    grid = np.linspace(0.0, 30.0, 151)
    ode = float(np.max(np.abs(rd.barrier_ode_residual(params, grid))))
    f_far, _ = rd.barrier_f(params, 1e6)
    bound = rd.barrier_sup_bound(params)
    report = rd.subsolution_check(params, 1.0, np.linspace(1e-3, 30.0, 200))
    margins = rd.subsolution_check(params, 1.0, np.array([0.5, 1.0, 5.0, 20.0]))
    ok = (
        f0 == 0.0
        and norm_err <= 1e-12
        and ode <= 1e-10
        and f_far <= bound
        and margins.min_margin > 0
        and report.min_operator >= -1e-10
    )
    _report(
        10,
        "barrier",
        ok,
        f"f(0)={f0:g}, |f'(0)-s|={norm_err:.2e} <= 1e-12, ode residual {ode:.2e} <= 1e-10, "
        f"f(1e6)={f_far:.6f} <= bound {bound:.6f}, min margin {margins.min_margin:.4f} > 0, "
        f"min operator {report.min_operator:.2e} >= -1e-10",
    )


def test_criterion_11_exterior_exhaustion():
    cfg = sv.SolverConfig(
        n_r=256,
        n_theta=64,
        newton_tol=1e-10,
        schedule=(4.0, 8.0, 16.0, 32.0),
        bisection_tol=1e-4,
        grading=2.0,
    )
    sols = {s: sv.exterior_solve(s, 1.0, cfg) for s in (0.0, 0.5, 1.0)}

    # (i) barrier cap on the outer values
    cap_ok = True
    for s in (0.5, 1.0):
        bp = rd.BarrierParams(s, 1.0)
        for t_m, m in zip(sols[s].t_trace, sols[s].schedule):
            cap_ok = cap_ok and t_m <= rd.barrier_f(bp, m - 1.0)[0] + 1e-6

    # (ii) achieved boundary gradients
    grad_err = max(
        abs(g - s) for s in (0.0, 0.5, 1.0) for g in sols[s].boundary_gradients
    )

    # (iii) final field vs the radial flux oracle on [1.2, 3]
    sol1 = sols[1.0]
    prof = rd.radial_mse_solve(1.0, 32.0, 0.0, sol1.t_trace[-1], nodes=sol1.grid.r)
    mask = (sol1.grid.r >= 1.2) & (sol1.grid.r <= 3.0)
    oracle_err = float(np.max(np.abs(sol1.u - prof.value[:, None])[mask]))

    # (iv) strict foliation ordering at interior nodes
    report = sv.foliation_check([sols[0.0], sols[0.5], sols[1.0]])

    # (v) rim separation between consecutive s, positive and reported
    rim_rows = report.rim_separations
    print("ACCEPTANCE 11 rim separations (s=0->0.5, s=0.5->1):")
    for pair, row in zip(("0->0.5", "0.5->1"), rim_rows):
        print(f"  {pair}: " + ", ".join(f"{v:.6f}" for v in row))
    print(
        "ACCEPTANCE 11 cauchy sup-diffs:",
        {s: [f"{d:.2e}" for d in sols[s].cauchy] for s in (0.5, 1.0)},
    )

    # graph embedding of the converged field stays minimal to solver order
    sample = vf.graph_embed(sol1.u, sol1.grid)
    at = np.stack(np.meshgrid(np.linspace(2.0, 20.0, 10), (0.4, 2.5), indexing="ij"), -1)
    graph_res = np.max(np.abs(vf.mean_curvature_residual(sample, at.reshape(20, 2))))

    ok = (
        cap_ok
        and grad_err <= 1e-3
        and oracle_err <= 1e-3
        and report.ordered
        and report.rim_separation_min > 0
        and graph_res <= 5e-3
    )
    _report(
        11,
        "exterior-exhaustion",
        ok,
        f"caps hold {cap_ok}, gradient error {grad_err:.2e} <= 1e-3, "
        f"oracle error {oracle_err:.2e} <= 1e-3, ordered {report.ordered}, "
        f"min rim separation {report.rim_separation_min:.4f} > 0, "
        f"graph residual {graph_res:.2e} <= 5e-3",
    )


def test_criterion_12_asymptotic():
    cfg = sv.SolverConfig(n_r=256, n_theta=64, newton_tol=1e-10, r_core=0.02, compact_rmax=4.0)
    radii = (8.0, 16.0, 32.0)

    const = sv.asymptotic_solve(sf.BoundaryData.constant(0.7), cfg, radii=radii)
    const_err = max(float(np.max(np.abs(u - 0.7))) for u in const.fields)

    cos_sol = sv.asymptotic_solve(sf.BoundaryData.cosine(1.0), cfg, radii=radii)
    maxp_ok = all(
        u.max() <= 1.0 + 10 * cfg.newton_tol and u.min() >= -1.0 - 10 * cfg.newton_tol
        for u in cos_sol.fields
    )

    lifted = sv.asymptotic_solve(
        sf.BoundaryData(lambda th: np.cos(th) + 0.4), cfg, radii=radii
    )
    ordered = all(
        bool(np.all(u2 >= u1 - 10 * cfg.newton_tol))
        for u1, u2 in zip(cos_sol.fields, lifted.fields)
    )

    diffs = cos_sol.sup_diffs
    print("ACCEPTANCE 12 consecutive-R sup-diffs on r<=4:", [f"{d:.4e}" for d in diffs])
    decreasing = all(b < a for a, b in zip(diffs, diffs[1:]))

    ok = const_err <= cfg.newton_tol and maxp_ok and ordered and decreasing
    _report(
        12,
        "asymptotic-truncation",
        ok,
        f"constant error {const_err:.2e} <= newton_tol, max principle {maxp_ok}, "
        f"ordered {ordered}, sup-diffs decreasing {decreasing} ({diffs[0]:.3e} -> {diffs[1]:.3e})",
    )


def test_criterion_13_solver_order():
    params = rd.CatenoidParams(3.0, 1.0)
    residuals = []
    for n in (65, 129, 257):
        grid = sv.AnnulusGrid.annulus(2.0, 6.0, n, 16, grading=1.0)
        prof = rd.catenoid_profile(params, grid.r, tol=1e-12)
        u = np.tile(prof.value[:, None], (1, 16))
        residuals.append(float(np.max(np.abs(sv.mse_operator(u, grid)[1:-1]))))
    orders_cat = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]

    residuals = []
    for n in (65, 129, 257):
        grid = sv.AnnulusGrid.annulus(1.0, 3.0, n, 16, grading=1.0)
        prof = rd.radial_mse_solve(1.0, 3.0, 0.0, 0.8, nodes=grid.r)
        u = np.tile(prof.value[:, None], (1, 16))
        residuals.append(float(np.max(np.abs(sv.mse_operator(u, grid)[1:-1]))))
    orders_flux = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]

    ok = all(o >= 1.8 for o in orders_cat + orders_flux)
    _report(
        13,
        "solver-order",
        ok,
        "orders catenoid "
        + ", ".join(f"{o:.2f}" for o in orders_cat)
        + "; flux "
        + ", ".join(f"{o:.2f}" for o in orders_flux)
        + " all >= 1.8",
    )
