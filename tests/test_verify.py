import math

import numpy as np
import pytest

from nil3lab import nilcore
from nil3lab import radial as rd
from nil3lab import solver as sv
from nil3lab import surface as sf
from nil3lab import verify as vf
from nil3lab.nilcore import ChartPoint, christoffel_closed_form, metric_closed_form

SQRT2 = math.sqrt(2.0)


def test_slice_is_minimal_everywhere_sampled():
    sample = vf.slice_sample()
    for u in (-2.0, 0.0, 1.3):
        for v in (-1.7, 0.4, 2.9):
            assert abs(vf.mean_curvature_residual(sample, (u, v))) <= 1e-9


def test_vertical_translate_of_slice_is_minimal():
    lifted = vf.SurfaceSample(lambda u, v: (u, v, 3.0 / SQRT2), np.linspace(-2, 2, 5), np.linspace(-2, 2, 5))
    for at in ((0.0, 0.0), (1.2, -0.8)):
        assert abs(vf.mean_curvature_residual(lifted, at)) <= 1e-9


def test_cylinder_negative_control():
    # vertical cylinder over a non-geodesic base curve: residual bounded away from 0
    rho = SQRT2  # circle of geodesic radius 2
    cyl = vf.SurfaceSample(
        lambda u, v: (rho * math.cos(u), rho * math.sin(u), v),
        np.linspace(0, 2 * math.pi, 10),
        np.linspace(0, 1, 5),
    )
    assert abs(vf.mean_curvature_residual(cyl, (0.7, 0.3))) >= 0.1


def test_catenoid_residual():
    params = rd.CatenoidParams(3.0, 1.0)
    sample = vf.catenoid_sample(params, 10.0, fd_step=2e-4)
    t, phi = np.meshgrid(np.linspace(params.t0 + 0.1, 10.0, 10), (0.3, 2.1), indexing="ij")
    worst = np.max(np.abs(vf.mean_curvature_residual(sample, np.stack([t, phi], axis=-1))))
    assert worst <= 1e-5


def test_catenoid_below_the_neck_raises():
    params = rd.CatenoidParams(3.0, 1.0)
    sample = vf.catenoid_sample(params, 6.0)
    with pytest.raises(ValueError, match="below the neck"):
        sample.chart_map(params.t0 - 1e-3, 0.0)
    # one stencil across the neck among points well above it
    at = np.array([[3.0, 0.2], [params.t0 + 1e-4, 0.2]])
    with pytest.raises(ValueError, match="below the neck"):
        vf.mean_curvature_residual(sample, at)


def test_catenoid_heights_do_not_depend_on_the_batch():
    params = rd.CatenoidParams(3.0, 1.0)
    t = np.array([1.3, 2.05, 4.7])
    alone = [vf.catenoid_sample(params, 6.0).chart_map(x, 0.0)[2] for x in t.tolist()]
    together = vf.catenoid_sample(params, 6.0).chart_map(t, 0.0)[2]
    assert np.array_equal(together, alone)
    assert together.tolist() == [rd.catenoid_height(params, x, 1e-13) for x in t.tolist()]


def test_catenoid_third_coordinate_readings():
    # the chart-offset reading of the profile is minimal; reading the third
    # coordinate as the raw matrix entry yields a non-rotationally-invariant
    # surface with mean curvature bounded away from zero
    params = rd.CatenoidParams(3.0, 1.0)
    good = vf.catenoid_sample(params, 5.0, fd_step=2e-4)

    def matrix_entry_chart(t, phi):
        rho = t / SQRT2
        x, y = rho * math.cos(phi), rho * math.sin(phi)
        zeta = rd.catenoid_height(params, t, 1e-12) - x * y / 2.0
        return (x, y, zeta)

    bad = vf.SurfaceSample(
        matrix_entry_chart,
        np.linspace(1.0, 5.0, 8),
        np.linspace(0, 2 * math.pi, 12, endpoint=False),
        fd_step=2e-4,
        periodic_v=True,
    )
    at = (2.5, 0.8)
    assert abs(vf.mean_curvature_residual(good, at)) <= 1e-5
    assert abs(vf.mean_curvature_residual(bad, at)) >= 1e-2


def test_degenerate_immersion_raises():
    flat = vf.SurfaceSample(lambda u, v: (u, u, 0.0), np.linspace(0, 1, 3), np.linspace(0, 1, 3))
    with pytest.raises(vf.DegenerateImmersionError):
        vf.mean_curvature_residual(flat, (0.5, 0.5))


def _exterior_graph():
    cfg = sv.SolverConfig(n_r=24, n_theta=12, newton_tol=1e-10, schedule=(3.0,),
                          bisection_tol=1e-3)
    sol = sv.exterior_solve(0.4, 1.0, cfg)
    return vf.graph_embed(sol.u, sol.grid)


@pytest.mark.parametrize("name", ["catenoid", "slice", "exterior graph"])
def test_batched_oracle_matches_per_point_calls(name):
    rng = np.random.default_rng(5)
    if name == "catenoid":
        # a fresh sample for the per-point calls, so no height is shared
        make = lambda: vf.catenoid_sample(rd.CatenoidParams(3.0, 1.0), 6.0)  # noqa: E731
        at = np.stack([rng.uniform(1.1, 6.0, (4, 5)), rng.uniform(0.0, 2 * math.pi, (4, 5))], -1)
    elif name == "slice":
        make = vf.slice_sample
        at = rng.uniform(-2.5, 2.5, (4, 5, 2))
    else:
        graph = _exterior_graph()
        make = lambda: graph  # noqa: E731
        at = np.stack([rng.uniform(1.1, 2.9, (4, 5)), rng.uniform(0.0, 2 * math.pi, (4, 5))], -1)
    batched = vf.mean_curvature_residual(make(), at)
    assert batched.shape == (4, 5)
    sample = make()
    single = np.array([[vf.mean_curvature_residual(sample, p) for p in row] for row in at])
    assert np.all(np.abs(batched - single) <= 1e-15 * np.abs(single)), (batched, single)


def test_one_point_gives_a_float_and_serves_a_scalar_chart_map():
    assert type(vf.mean_curvature_residual(vf.slice_sample(), (0.3, -0.2))) is float
    assert type(vf.mean_curvature_residual(vf.slice_sample(), np.array([0.3, -0.2]))) is float
    # math.cos takes no array: the chart map sees floats for one point
    cyl = vf.SurfaceSample(lambda u, v: (SQRT2 * math.cos(u), SQRT2 * math.sin(u), v),
                           np.linspace(0, 2 * math.pi, 10), np.linspace(0, 1, 5))
    assert type(vf.mean_curvature_residual(cyl, (0.7, 0.3))) is float


def test_one_degenerate_point_among_many_raises():
    # the v-tangent (0, u - 1/2, 0) vanishes on the line u = 1/2 only
    sample = vf.SurfaceSample(lambda u, v: (u, v * (u - 0.5), 0.0 * u),
                              np.linspace(0, 1, 5), np.linspace(0, 1, 5))
    u, v = np.meshgrid(np.linspace(0.0, 1.0, 5), np.linspace(0.2, 0.8, 4), indexing="ij")
    at = np.stack([u, v], axis=-1)
    assert np.all(np.abs(vf.mean_curvature_residual(sample, at[[0, 1, 3, 4]])) <= 1e-9)
    with pytest.raises(vf.DegenerateImmersionError):
        vf.mean_curvature_residual(sample, at)


def test_graph_embed_flat_fields():
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 48, 16)
    zero = vf.graph_embed(np.zeros(grid.shape), grid)
    x, y, zeta = zero.chart_map(2.0, 0.9)
    assert abs(zeta) <= 1e-12
    assert abs(vf.mean_curvature_residual(zero, (2.0, 0.9))) <= 1e-9

    # constant arc-length height 3: vertical translate of the slice, still minimal
    lifted = vf.graph_embed(np.full(grid.shape, 3.0), grid)
    _, _, zeta = lifted.chart_map(2.0, 0.9)
    assert zeta == pytest.approx(3.0 / SQRT2, abs=1e-12)
    # spline evaluation jitter amplified by the 1/eps^2 differencing caps this
    # at the roundoff floor, not at the analytic-translate level
    assert abs(vf.mean_curvature_residual(lifted, (2.0, 0.9))) <= 5e-7


def test_graph_embed_radial_flux_profile():
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 96, 32, grading=1.0)
    prof = rd.radial_mse_solve(1.0, 4.0, 0.0, 1.0, nodes=grid.r)
    sample = vf.graph_embed(np.tile(prof.value[:, None], (1, 32)), grid)
    t, phi = np.meshgrid(np.linspace(1.4, 3.6, 8), (0.5, 2.7), indexing="ij")
    worst = np.max(np.abs(vf.mean_curvature_residual(sample, np.stack([t, phi], axis=-1))))
    assert worst <= 1e-4


def test_negative_control_christoffel_sensitivity():
    # perturbing any closed-form connection coefficient by 1e-3 must push the
    # diagonal-geodesic residual above 1e-4
    v = np.array([0.5, 0.5, 0.0])
    slots = [(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    for t in (1.0, 3.0):
        pt = ChartPoint(t / 2, t / 2, 0.0)
        met = metric_closed_form(pt)
        base = christoffel_closed_form(pt).gamma
        base_res = np.einsum("kij,i,j->k", base, v, v)
        assert math.sqrt(met.inner(base_res, base_res)) <= 1e-12
        for k, i, j in slots:
            gam = base.copy()
            gam[k, i, j] += 1e-3
            gam[k, j, i] = gam[k, i, j]
            res = np.einsum("kij,i,j->k", gam, v, v)
            assert math.sqrt(met.inner(res, res)) > 1e-4


def test_oracle_independence_from_solver():
    import inspect

    src = inspect.getsource(vf)
    assert "mse_operator" not in src
    assert "dirichlet_solve" not in src


def test_claim_reports_structure_and_determinism():
    reports = vf.run_claim_checks()
    assert len(reports) == 6
    by_id = {r.claim_id: r for r in reports}
    assert set(by_id) == {
        "totally-geodesic-slice",
        "product-splitting",
        "circle-action-isometry",
        "radial-geodesics",
        "curvature-constant",
        "catenoid-minimality",
    }
    assert by_id["curvature-constant"].verdict == "discrepancy"
    for cid in set(by_id) - {"curvature-constant"}:
        assert by_id[cid].verdict == "pass"
    assert by_id["curvature-constant"].values["doubled_candidate_at_origin"] == -0.75
    assert by_id["curvature-constant"].values["consistent_candidate_at_origin"] == -0.375

    again = vf.run_claim_checks()
    for a, b in zip(reports, again):
        assert a.claim_id == b.claim_id
        assert a.verdict == b.verdict
        assert a.values == b.values


def _left_invariant_form(g):
    # the left pullback of the construction alone: the left-invariant metric
    gi = nilcore.inverse(g).as_matrix()[..., None, :, :]
    left = (gi @ nilcore._VELOCITY_BASIS)[..., (0, 1, 0), (1, 2, 2)]
    return left @ np.swapaxes(left, -1, -2)


def test_totally_geodesic_check_fails_without_the_right_pullback(monkeypatch):
    # under the left-invariant metric the slice zeta = 0 is not totally
    # geodesic, so criterion 3 must see the mutation of the construction
    x, y = np.random.default_rng(21).uniform(-4, 4, size=(2, 50))
    points = sf.SurfacePoint(x, y)
    assert np.max(np.abs(sf.second_fundamental_form_slice(points))) <= 1e-10
    monkeypatch.setattr(nilcore, "balanced_metric_form", _left_invariant_form)
    assert np.max(np.abs(sf.second_fundamental_form_slice(points))) > 1e-3
    report = {r.claim_id: r for r in vf.run_claim_checks()}["totally-geodesic-slice"]
    assert report.verdict == "fail"
    assert report.values["max_second_fundamental_form"] > 1e-3
    assert report.values["max_zeta_drift"] > 1e-8


def test_totally_geodesic_check_evaluates_the_oracle_once(monkeypatch):
    # |II| and the zeta drift read the same Koszul symbols, evaluated once,
    # and |II| equals the slice function's own evaluation bit for bit
    x, y = np.random.default_rng(3).uniform(-4.0, 4.0, size=(100, 2)).T
    alone = np.max(np.abs(sf.second_fundamental_form_slice(sf.SurfacePoint(x, y))))
    calls = []

    def counted(q):
        calls.append(q)
        return nilcore.christoffel_from_metric(q)

    monkeypatch.setattr(vf, "christoffel_from_metric", counted)
    monkeypatch.setattr(sf, "christoffel_from_metric", counted)
    report = vf._check_totally_geodesic(1e-10, 1e-8, np.random.default_rng(3))
    assert len(calls) == 1
    assert report.values["max_second_fundamental_form"] == alone


def test_claim_checks_integrate_one_geodesic(monkeypatch):
    # slice-tangent launches keep zeta = 0 by the integrator's construction,
    # so criterion 3 integrates none; only criterion 6's endpoint check does
    calls = []

    def counted(*args):
        calls.append(args)
        return nilcore.integrate_geodesic(*args)

    monkeypatch.setattr(vf, "integrate_geodesic", counted)
    reports = {r.claim_id: r for r in vf.run_claim_checks()}
    assert len(calls) == 1
    assert reports["radial-geodesics"].values["integrator_endpoint_error"] <= 1e-8


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6])
def test_claim_checks_reject_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        vf.run_claim_checks(tol)


def test_claims_serialization():
    import json

    reports = vf.run_claim_checks()
    table = vf.claims_table(reports)
    assert "DISCREPANCY" in table and "PASS" in table
    payload = json.loads(vf.claims_to_json(reports))
    assert len(payload) == 6
    for entry in payload:
        assert set(entry) == {"id", "locus", "verdict", "values", "tolerance"}


def test_claim_values_are_plain_floats():
    import json

    reports = vf.run_claim_checks()
    for r in reports:
        assert type(r.tolerance) is float
        assert all(type(v) is float for v in r.values.values())
    payload = json.loads(vf.claims_to_json(reports))
    for r, entry in zip(reports, payload):
        assert entry["values"] == r.values
        assert entry["tolerance"] == r.tolerance
