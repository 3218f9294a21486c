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


def fd_sample(chart_map, h=1e-4):
    """Reference patch (with empty sample grids): the central-difference jet of a chart map.

    chart_map takes (u, v), floats or broadcastable arrays, and returns
    (x, y, zeta); the jet differences it on the 9-node stencil of step h, so
    its derivatives carry O(h^2) truncation and O(eps/h^2) roundoff.
    """

    def at(u, v):
        return np.stack(np.broadcast_arrays(*chart_map(u, v)), axis=-1).astype(float)

    def jet(u, v):
        p, pu, mu, pv, mv = at(u, v), at(u + h, v), at(u - h, v), at(u, v + h), at(u, v - h)
        duv = at(u + h, v + h) - at(u + h, v - h) - at(u - h, v + h) + at(u - h, v - h)
        return (p, (pu - mu) / (2.0 * h), (pv - mv) / (2.0 * h), (pu - 2.0 * p + mu) / h**2,
                duv / (4.0 * h * h), (pv - 2.0 * p + mv) / h**2)

    return vf.SurfaceSample(jet, np.empty(0), np.empty(0))


def test_slice_is_minimal_everywhere_sampled():
    sample = vf.slice_sample()
    for u in (-2.0, 0.0, 1.3):
        for v in (-1.7, 0.4, 2.9):
            assert abs(vf.mean_curvature_residual(sample, (u, v))) <= 1e-9


def test_vertical_translate_of_slice_is_minimal():
    lifted = fd_sample(lambda u, v: (u, v, 3.0 / SQRT2))
    for at in ((0.0, 0.0), (1.2, -0.8)):
        assert abs(vf.mean_curvature_residual(lifted, at)) <= 1e-9


def test_cylinder_negative_control():
    # vertical cylinder over a non-geodesic base curve: residual bounded away from 0
    rho = SQRT2  # circle of geodesic radius 2
    cyl = fd_sample(lambda u, v: (rho * math.cos(u), rho * math.sin(u), v))
    assert abs(vf.mean_curvature_residual(cyl, (0.7, 0.3))) >= 0.1


def test_catenoid_residual():
    params = rd.CatenoidParams(3.0, 1.0)
    sample = vf.catenoid_sample(params, 10.0)
    t, phi = np.meshgrid(np.linspace(params.t0 + 0.1, 10.0, 10), (0.3, 2.1), indexing="ij")
    worst = np.max(np.abs(vf.mean_curvature_residual(sample, np.stack([t, phi], axis=-1))))
    assert worst <= 1e-12


def test_catenoid_below_the_neck_raises():
    params = rd.CatenoidParams(3.0, 1.0)
    sample = vf.catenoid_sample(params, 6.0)
    with pytest.raises(ValueError, match="below the neck"):
        sample.jet(params.t0 - 1e-3, 0.0)
    # one point below the neck among points well above it
    at = np.array([[3.0, 0.2], [params.t0 - 1e-4, 0.2]])
    with pytest.raises(ValueError, match="below the neck"):
        vf.mean_curvature_residual(sample, at)


def test_catenoid_oracle_reaches_the_minimal_neck():
    # the exact jet holds up to the neck, where u' is infinite and the
    # parametrization stops being an immersion
    params = rd.CatenoidParams(3.0, 1.0)  # t0 is the minimal neck of c = 3
    sample = vf.catenoid_sample(params, 6.0)
    assert abs(vf.mean_curvature_residual(sample, (params.t0 + 1e-9, 0.3))) <= 1e-12
    with pytest.raises(vf.DegenerateImmersionError, match="det=nan"):
        vf.mean_curvature_residual(sample, (params.t0, 0.3))


def test_catenoid_heights_do_not_depend_on_the_batch():
    params = rd.CatenoidParams(3.0, 1.0)
    t = np.array([1.3, 2.05, 4.7])
    alone = [vf.catenoid_sample(params, 6.0).points(x, 0.0)[2] for x in t.tolist()]
    together = vf.catenoid_sample(params, 6.0).points(t, 0.0)[:, 2]
    assert np.array_equal(together, alone)
    graph, tol = rd.FluxGraph.catenoid(params), sf.CenterElement(1e-13).arc_length
    offsets = [sf.CenterElement.from_arc_length(graph.heights([x], tol)[0]).t for x in t.tolist()]
    assert together.tolist() == offsets


def test_catenoid_third_coordinate_readings():
    # the chart-offset reading of the profile is minimal; reading the third
    # coordinate as the raw matrix entry yields a non-rotationally-invariant
    # surface with mean curvature bounded away from zero
    params = rd.CatenoidParams(3.0, 1.0)
    good = vf.catenoid_sample(params, 5.0)
    graph, tol = rd.FluxGraph.catenoid(params), sf.CenterElement(1e-12).arc_length

    def matrix_entry_chart(t, phi):
        rho = t / SQRT2
        x, y = rho * math.cos(phi), rho * math.sin(phi)
        zeta = sf.CenterElement.from_arc_length(graph.heights([t], tol)[0]).t - x * y / 2.0
        return (x, y, zeta)

    bad = fd_sample(matrix_entry_chart, h=2e-4)
    at = (2.5, 0.8)
    assert abs(vf.mean_curvature_residual(good, at)) <= 1e-12
    assert abs(vf.mean_curvature_residual(bad, at)) >= 1e-2


def test_degenerate_immersion_raises():
    flat = fd_sample(lambda u, v: (u, u, 0.0))
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


@pytest.mark.parametrize("name", ["catenoid", "slice", "exterior graph"])
def test_exact_jets_match_central_differences_at_second_order(name):
    # each exact jet against the central-difference jet of its own points:
    # the worst difference falls about 4 times as the step halves
    rng = np.random.default_rng(11)
    if name == "catenoid":
        sample = vf.catenoid_sample(rd.CatenoidParams(3.0, 1.0), 6.0)
        u = rng.uniform(1.5, 5.5, 6)
    elif name == "slice":
        sample = vf.slice_sample()
        u = rng.uniform(-2.5, 2.5, 6)
    else:
        sample = _exterior_graph()
        u = rng.uniform(1.2, 2.8, 6)
    v = rng.uniform(0.0, 2 * math.pi, 6)
    exact = np.stack(sample.jet(u, v))
    chart_map = lambda uu, vv: np.moveaxis(sample.points(uu, vv), -1, 0)  # noqa: E731
    errors = [np.max(np.abs(np.stack(fd_sample(chart_map, h=h).jet(u, v)) - exact))
              for h in (4e-3, 2e-3)]
    assert errors[1] <= 1e-10 or errors[1] <= errors[0] / 3.0, errors


def test_one_mean_curvature_call_makes_one_jet_call():
    sample = vf.catenoid_sample(rd.CatenoidParams(3.0, 1.0), 6.0)
    calls = []
    jet = sample.jet
    sample.jet = lambda u, v: calls.append(np.shape(u)) or jet(u, v)
    at = np.stack(np.meshgrid(np.linspace(1.5, 5.5, 7), (0.3, 2.1, 4.0), indexing="ij"), -1)
    vf.mean_curvature_residual(sample, at)
    assert calls == [(7, 3)]


def test_catenoid_check_takes_one_quadrature_per_off_ring_height(monkeypatch):
    # one profile pass for the rings, then one quadrature for each of the 9
    # sample radii that is not a ring (the 10th, t = 6, is the outer ring)
    calls = []
    heights = rd.FluxGraph.heights
    monkeypatch.setattr(rd.FluxGraph, "heights",
                        lambda graph, r, tol: calls.append(len(r)) or heights(graph, r, tol))
    report = vf._check_catenoid(1e-10, 1e-5)
    assert calls == [40] + [1] * 9
    assert report.values["max_mean_curvature"] <= 1e-12


def test_one_point_gives_a_float_and_serves_a_scalar_chart_map():
    assert type(vf.mean_curvature_residual(vf.slice_sample(), (0.3, -0.2))) is float
    assert type(vf.mean_curvature_residual(vf.slice_sample(), np.array([0.3, -0.2]))) is float
    # math.cos takes no array: the jet, and so the chart map, sees floats for one point
    cyl = fd_sample(lambda u, v: (SQRT2 * math.cos(u), SQRT2 * math.sin(u), v))
    assert type(vf.mean_curvature_residual(cyl, (0.7, 0.3))) is float


def test_one_degenerate_point_among_many_raises():
    # the v-tangent (0, u - 1/2, 0) vanishes on the line u = 1/2 only
    sample = fd_sample(lambda u, v: (u, v * (u - 0.5), 0.0 * u))
    u, v = np.meshgrid(np.linspace(0.0, 1.0, 5), np.linspace(0.2, 0.8, 4), indexing="ij")
    at = np.stack([u, v], axis=-1)
    assert np.all(np.abs(vf.mean_curvature_residual(sample, at[[0, 1, 3, 4]])) <= 1e-9)
    with pytest.raises(vf.DegenerateImmersionError):
        vf.mean_curvature_residual(sample, at)


def test_graph_embed_flat_fields():
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 48, 16)
    zero = vf.graph_embed(np.zeros(grid.shape), grid)
    x, y, zeta = zero.points(2.0, 0.9)
    assert abs(zeta) <= 1e-12
    assert abs(vf.mean_curvature_residual(zero, (2.0, 0.9))) <= 1e-9

    # constant arc-length height 3: vertical translate of the slice, still minimal
    lifted = vf.graph_embed(np.full(grid.shape, 3.0), grid)
    _, _, zeta = lifted.points(2.0, 0.9)
    assert zeta == pytest.approx(3.0 / SQRT2, abs=1e-12)
    assert abs(vf.mean_curvature_residual(lifted, (2.0, 0.9))) <= 1e-12


def test_graph_embed_stencil_below_the_center_is_refused():
    # the spline is not extrapolated: a point below the innermost ring of a
    # disk, at r < 0 included, or beyond the outer ring has no jet
    grid = sv.AnnulusGrid.disk(4.0, 24, 12)
    sample = vf.graph_embed(np.zeros(grid.shape), grid)
    assert abs(vf.mean_curvature_residual(sample, (2.0, 0.4))) <= 1e-9
    assert abs(vf.mean_curvature_residual(sample, (grid.r[0], 0.4))) <= 1e-9
    for r in (-1e-4, 0.5 * grid.r[0], 4.0 + 1e-9, math.nan):
        with pytest.raises(ValueError, match="outside the grid"):
            sample.jet(r, 0.4)
    with pytest.raises(ValueError, match=r"radius -0\.1 lies outside"):
        vf.mean_curvature_residual(sample, np.array([[2.0, 0.4], [-0.1, 0.4]]))


def test_graph_embed_refuses_a_field_of_the_wrong_shape():
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 24, 12)
    with pytest.raises(ValueError, match=r"shape \(24, 11\) does not match the grid shape \(24, 12\)"):
        vf.graph_embed(np.zeros((24, 11)), grid)


def test_graph_embed_refuses_a_field_that_is_not_finite():
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 24, 12)
    for bad in (math.nan, math.inf):
        u = np.zeros(grid.shape)
        u[5, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            vf.graph_embed(u, grid)


def test_graph_embed_refuses_a_radius_beyond_the_grid():
    # an extrapolated zero field would answer 0.0 here
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 24, 12)
    sample = vf.graph_embed(np.zeros(grid.shape), grid)
    assert vf.mean_curvature_residual(sample, (4.0, 0.3)) == 0.0
    with pytest.raises(ValueError, match="radius 10.0 lies outside the grid's"):
        vf.mean_curvature_residual(sample, (10.0, 0.3))
    with pytest.raises(ValueError, match="outside the grid"):
        sample.points(np.array([1.0, 0.999]), 0.3)


def test_graph_embed_radial_flux_profile():
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 96, 32, grading=1.0)
    prof = rd.radial_mse_solve(1.0, 4.0, 0.0, 1.0, nodes=grid.r)
    sample = vf.graph_embed(np.tile(prof.value[:, None], (1, 32)), grid)
    t, phi = np.meshgrid(np.linspace(1.4, 3.6, 8), (0.5, 2.7), indexing="ij")
    worst = np.max(np.abs(vf.mean_curvature_residual(sample, np.stack([t, phi], axis=-1))))
    assert worst <= 1e-4


def test_graph_embed_is_periodic_in_theta():
    # the jet at theta, theta + 2 pi and theta - 2 pi is one jet, and so is
    # the jet on either side of the seam theta = 0
    cfg = sv.SolverConfig(n_r=64, n_theta=32)
    sol = sv.asymptotic_solve(sf.BoundaryData.cosine(1.0), cfg, radii=(8.0,))
    sample = vf.graph_embed(sol.u, sol.grids[-1])
    r = np.array([0.3, 3.0, 7.9])
    for theta in (2.5, -0.05):
        jet = np.array(sample.jet(r, theta))
        for turn in (-1, 1):
            assert np.max(np.abs(np.array(sample.jet(r, theta + 2 * math.pi * turn)) - jet)) <= 1e-12
    seam = np.array(sample.jet(r, -0.05)) - np.array(sample.jet(r, 2 * math.pi - 0.05))
    assert np.max(np.abs(seam)) <= 1e-12


def test_graph_embed_reproduces_a_linear_profile_times_a_trigonometric_mode():
    # u = (1 + r/2) cos 2 theta: the natural spline is exact on a linear
    # r-profile and the trigonometric interpolation on cos 2 theta, so every
    # jet component of the height is the closed form to roundoff (x and y
    # are `PolarCoord.jet`'s)
    grid = sv.AnnulusGrid.annulus(1.0, 4.0, 17, 16)
    rr, th = np.meshgrid(grid.r, grid.theta, indexing="ij")
    sample = vf.graph_embed((1.0 + rr / 2.0) * np.cos(2.0 * th), grid)
    r, theta = np.random.default_rng(3).uniform([1.0, -7.0], [4.0, 13.0], (50, 2)).T
    cos, sin, lift = np.cos(2.0 * theta), np.sin(2.0 * theta), 1.0 + r / 2.0
    zeta = np.array([lift * cos, cos / 2.0, -2.0 * lift * sin, 0.0 * r, -sin, -4.0 * lift * cos])
    assert np.max(np.abs(np.array(sample.jet(r, theta))[..., 2] - zeta / SQRT2)) <= 1e-12


def test_exterior_graph_mean_curvature_falls_at_second_order():
    # sup |H| of the exterior graph (s = 1, r0 = 1, R = 8) under grid
    # refinement: the 3-D oracle reads the solver's O(h^2) error.  |H| peaks
    # at the spline's knots and changes sign between them, so the fixed
    # points are finer than the finest grid (spacing 0.0025 against 0.03)
    points = np.stack(np.meshgrid(np.linspace(1.5, 6.0, 1801), (0.3, 1.9, 4.0), indexing="ij"), -1)
    sup_h = []
    for n_r, n_theta in ((32, 16), (64, 32), (128, 64)):
        cfg = sv.SolverConfig(n_r=n_r, n_theta=n_theta, schedule=(8.0,))
        sol = sv.exterior_solve(1.0, 1.0, cfg)
        sample = vf.graph_embed(sol.u, sol.grid)
        sup_h.append(np.max(np.abs(vf.mean_curvature_residual(sample, points))))
    orders = np.log2(np.array(sup_h[:-1]) / sup_h[1:])
    assert np.all(orders >= 1.8), (sup_h, orders)


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
