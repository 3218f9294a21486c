import math

import numpy as np
import pytest

from nil3lab import radial as rd
from nil3lab.solver import AnnulusGrid
from nil3lab.surface import orbit_circumference, warp_g

SQRT2 = math.sqrt(2.0)
# 1.3e-10 below the extremal flux g(1): over [1, 4] the flux integrand climbs
# to its plateau within xi* = 1.1e-5 of 0, between quad's outermost nodes
NEAR_EXTREMAL_C = 1.0606601716466686


def _gauss_panels(fn, edges, n=20):
    """Integral of fn over [edges[0], edges[-1]], an n-point Gauss-Legendre rule per panel."""
    t, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * t
    return float(np.sum(half * w * fn(nodes)))


def test_t0_min_examples():
    assert rd.t0_min(3.0) == pytest.approx(1.0, abs=1e-14)
    assert rd.t0_min(math.sqrt(20.0)) == pytest.approx(SQRT2, abs=1e-14)
    assert rd.t0_min(1e-8) < 1e-4
    with pytest.raises(ValueError):
        rd.t0_min(0.0)
    with pytest.raises(ValueError):
        rd.t0_min(-2.0)


def test_neck_identity():
    for c in (0.1, 1.0, 3.0, 10.0, 100.0):
        a = rd.t0_min(c)
        assert abs(a * a * (a * a + 8.0) - c * c) <= 1e-10 * max(1.0, c * c)


def test_catenoid_params_validation():
    with pytest.raises(ValueError):
        rd.CatenoidParams(-1.0, 1.0)
    with pytest.raises(ValueError):
        rd.CatenoidParams(3.0, 0.5)  # below the minimal neck
    rd.CatenoidParams(3.0, 1.0)
    rd.CatenoidParams(3.0, 2.0)


@pytest.mark.parametrize("c, t0", [(math.nan, 1.0), (math.inf, 1.0), (3.0, math.nan), (3.0, math.inf)])
def test_catenoid_params_reject_non_finite(c, t0):
    with pytest.raises(ValueError, match="finite"):
        rd.CatenoidParams(c, t0)


def test_catenoid_height_at_neck_and_monotone():
    params = rd.CatenoidParams(3.0, 1.0)
    assert rd.catenoid_height(params, 1.0) == 0.0
    heights = [rd.catenoid_height(params, t) for t in (1.5, 2.0, 3.0, 5.0, 9.0)]
    assert all(h > 0 for h in heights)
    assert all(b > a for a, b in zip(heights, heights[1:]))
    with pytest.raises(ValueError):
        rd.catenoid_height(params, 0.5)


def test_catenoid_height_observed_plateau():
    # defining integrand decays like c/(sqrt(2) s^2): the half-height levels off
    params = rd.CatenoidParams(3.0, 1.0)
    gaps = [
        rd.catenoid_height(params, 2 * t) - rd.catenoid_height(params, t)
        for t in (5.0, 10.0, 20.0)
    ]
    assert all(g > 0 for g in gaps)
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 0.06


@pytest.mark.parametrize(
    "c, t0, t, ref",
    [
        (3.0, 1.0, 1.5, 0.6342297529441280871243),
        (3.0, 1.0, 4.0, 1.234371494802813781121),
        (3.0, 2.0, 4.0, 0.3830763238738799736131),
        (3.0, 2.0, 7.0, 0.5826925853413273523467),
    ],
)
def test_catenoid_height_reference_values(c, t0, t, ref):
    # chart offsets from a 45-digit quadrature, at the minimal neck and off it
    assert abs(rd.catenoid_height(rd.CatenoidParams(c, t0), t, tol=1e-12) - ref) <= 1e-12


def test_catenoid_height_unreachable_tolerance_raises():
    with pytest.raises(rd.QuadratureError):
        rd.catenoid_height(rd.CatenoidParams(3.0, 1.0), 3.0, tol=1e-17)


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
def test_catenoid_height_just_above_the_minimal_neck(tol):
    # the neck gap is 2.5e-10, so the integrand climbs within xi* = 1e-5 of
    # the neck; a quadrature that stepped over that ramp returned the
    # minimal-neck height 1.3876212056157
    height = rd.catenoid_height(rd.CatenoidParams(3.0, 1.0000000001), 6.0, tol=tol)
    assert abs(height - 1.387611718782270286) <= 1e-12


def test_catenoid_flux_examples():
    params = rd.CatenoidParams(3.0, 1.0)
    f2 = rd.catenoid_flux_check(params, 2.0)
    f5 = rd.catenoid_flux_check(params, 5.0)
    assert abs(f2 - f5) <= 1e-8
    expected = 3.0 / (2.0 * SQRT2)
    assert f2 == pytest.approx(expected, abs=1e-8)
    assert warp_g(1.0) == pytest.approx(expected, abs=1e-14)
    with pytest.raises(ValueError):
        rd.catenoid_flux_check(params, 1.0)


def test_catenoid_flux_constancy_along_profile():
    params = rd.CatenoidParams(3.0, 1.0)
    radii = np.concatenate([[1.05, 1.1, 1.25], np.linspace(1.5, 20.0, 9)])
    fluxes = [rd.catenoid_flux_check(params, r) for r in radii]
    assert max(fluxes) - min(fluxes) <= 1e-8


def test_catenoid_degenerate_small_flux():
    c = 1e-3
    params = rd.CatenoidParams(c, rd.t0_min(c))
    flux = rd.catenoid_flux_check(params, 1.0)
    assert abs(flux - c / (2 * SQRT2)) <= 1e-8
    assert rd.catenoid_height(params, 2.0) < 1e-2  # nearly flat plane


def test_barrier_normalization():
    for s, alpha in ((1.0, 1.0), (0.5, 2.0), (3.0, 0.7)):
        params = rd.BarrierParams(s, alpha)
        f0, fp0 = rd.barrier_f(params, 0.0)
        assert f0 == 0.0
        assert abs(fp0 - s) <= 1e-12
    for s, alpha in ((-1.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (math.inf, 1.0),
                     (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError):
            rd.BarrierParams(s, alpha)
    # a negative or non-finite radius is refused, also one node of a profile
    params = rd.BarrierParams(1.0, 1.0)
    for r in (-1.0, -1e-300, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            rd.barrier_f(params, r)
    for nodes in ([-1.0, 0.0, 1.0], [0.0, math.nan], [0.0, 1.0, math.inf]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            rd.barrier_profile(params, nodes)


def test_barrier_ode_residual():
    params = rd.BarrierParams(1.0, 1.0)
    for r in (0.0, 1.0, 5.0, 20.0):
        assert abs(rd.barrier_ode_residual(params, r)) <= 1e-10
    grid = np.linspace(0.0, 30.0, 121)
    assert np.max(np.abs(rd.barrier_ode_residual(params, grid))) <= 1e-10


def test_barrier_bounded_and_monotone():
    params = rd.BarrierParams(1.0, 1.0)
    bound = rd.barrier_sup_bound(params)
    f_huge, fp_huge = rd.barrier_f(params, 1e6)
    assert f_huge <= bound
    assert fp_huge < 1e-10
    prof = rd.barrier_profile(params, np.linspace(0.0, 40.0, 81))
    assert np.all(np.diff(prof.value) > 0)
    assert np.all(prof.deriv > 0)


@pytest.mark.parametrize("r", [30.0, 32.0])
def test_barrier_value_for_r0_2(r):
    # alpha = r0 = 2 around the m = 32 cap at r = m - r0 = 30: the closed
    # form against Gauss-Legendre panels of f'
    params = rd.BarrierParams(1.0, 2.0)
    val, _ = rd.barrier_f(params, r)
    ref = _gauss_panels(lambda x: rd.barrier_fprime(params, x), np.linspace(0.0, r, 41))
    assert abs(val - ref) <= 1e-10 * ref


def test_barrier_closed_form_matches_quadrature_and_its_derivative():
    from scipy.integrate import quad

    def reference(params, r):
        # adaptive quadrature of f', split so the slowly decaying tail is reached
        edges = [0.0, *(x for x in (30.0, 1e3, 1e5) if x < r), r]
        return sum(
            quad(lambda t: rd.barrier_fprime(params, t), lo, hi, epsabs=0.0,
                 epsrel=2e-14, limit=300)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        )

    for s in (0.5, 1.0, 3.0):
        for alpha in (0.3, 1.0, 5.0):
            params = rd.BarrierParams(s, alpha)
            for r in (1e-3, 1.0, 31.0, 1e3, 1e6):
                f, fp = rd.barrier_f(params, r)
                ref = reference(params, r)
                assert abs(f - ref) <= 1e-13 * ref
                if r > 1e3:
                    # f'/f is about 1e-12 here, so the rounding of f alone
                    # puts any difference quotient 1e-8 off
                    continue
                step = 1e-3 * r
                fd = (-rd.barrier_f(params, r + 2 * step)[0] + 8 * rd.barrier_f(params, r + step)[0]
                      - 8 * rd.barrier_f(params, r - step)[0]
                      + rd.barrier_f(params, r - 2 * step)[0]) / (12.0 * step)
                assert abs(fd - fp) <= 1e-9 * fp
            # f has no intermediate overflow at the largest float radius, and
            # f' there is its limit 0, without an overflow warning
            f, fp = rd.barrier_f(params, 1.7e308)
            assert 0 < f <= rd.barrier_sup_bound(params) and fp == 0.0


def test_curvature_bound_margin():
    params = rd.BarrierParams(1.0, 1.0)
    report = rd.subsolution_check(params, 1.0, np.array([0.5, 1.0, 5.0, 20.0]))
    assert np.all(report.bound_margin > 0)
    assert report.min_margin > 0


def test_subsolution_property():
    params = rd.BarrierParams(1.0, 1.0)
    grid = np.linspace(1e-3, 30.0, 200)
    report = rd.subsolution_check(params, 1.0, grid)
    assert report.min_operator >= -1e-10
    assert report.ok
    zero = rd.subsolution_check(rd.BarrierParams(0.0, 1.0), 1.0, grid)
    assert np.all(zero.operator_values == 0.0)
    with pytest.raises(ValueError):
        rd.subsolution_check(params, 2.0, grid)  # alpha must equal r0


def test_radial_mse_solve_trivial():
    prof = rd.radial_mse_solve(1.0, 5.0, 0.0, 0.0)
    assert prof.flux == 0.0
    assert np.all(prof.value == 0.0)
    prof7 = rd.radial_mse_solve(1.0, 5.0, 7.0, 7.0)
    assert np.all(prof7.value == 7.0)


def test_radial_mse_solve_catenoid_round_trip():
    params = rd.CatenoidParams(3.0, 1.0)
    u_out = SQRT2 * rd.catenoid_height(params, 4.0, tol=1e-13)
    prof = rd.radial_mse_solve(1.0, 4.0, 0.0, u_out, tol=1e-10)
    assert abs(prof.flux - 3.0 / (2.0 * SQRT2)) <= 1e-8


def test_radial_mse_solve_antisymmetry():
    a = rd.radial_mse_solve(1.0, 4.0, 0.0, 1.0)
    b = rd.radial_mse_solve(1.0, 4.0, 1.0, 0.0)
    assert np.max(np.abs((a.value - 0.5) + (b.value - 0.5))) <= 1e-10
    assert a.flux == pytest.approx(-b.flux, abs=1e-14)


def test_radial_mse_solve_monotone_in_outer_value():
    lo = rd.radial_mse_solve(1.0, 4.0, 0.0, 0.5)
    hi = rd.radial_mse_solve(1.0, 4.0, 0.0, 0.8)
    assert np.all(hi.value[1:] >= lo.value[1:])
    assert np.all(hi.value[1:-1] > lo.value[1:-1])


def test_radial_mse_solve_boundary_residual():
    prof = rd.radial_mse_solve(1.0, 6.0, 0.0, 1.2, tol=1e-10)
    assert prof.bc_residual <= 1e-10
    assert abs(prof.value[-1] - 1.2) <= 1e-10


def test_radial_mse_solve_no_admissible_flux():
    attainable = rd.flux_height_difference(warp_g(1.0), 1.0, 4.0)
    with pytest.raises(rd.NoAdmissibleFluxError) as excinfo:
        rd.radial_mse_solve(1.0, 4.0, 0.0, attainable + 0.5)
    assert excinfo.value.attainable == pytest.approx(attainable, abs=1e-9)
    assert "maximal attainable" in str(excinfo.value)


def test_radial_mse_solve_argument_validation():
    with pytest.raises(ValueError):
        rd.radial_mse_solve(0.0, 4.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        rd.radial_mse_solve(4.0, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("n", [8, 16])
def test_gauss_legendre_rule_matches_numpy(n):
    x, w = rd._gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - ref_x)) <= 2e-16
    assert np.max(np.abs(w - ref_w)) <= 1e-15


def test_flux_height_near_the_extremal_flux():
    # the exact value is from a 40-digit quadrature; quad over the whole
    # range gave 1.7456649088741 with an error estimate below 1e-12
    height = rd.flux_height_difference(NEAR_EXTREMAL_C, 1.0, 4.0, 1e-12)
    assert abs(height - 1.7456506480588) <= 1e-9


@pytest.mark.parametrize("share", [1e-1, 1e-2, 1e-3, 1e-5, 1e-7])
def test_flux_height_resolves_the_ramp_at_any_width(share):
    # the flux whose ramp width is share * sqrt(3) over [1, 4], against
    # panels that double in width from xi* / 64 outward
    hi = math.sqrt(3.0)
    g = warp_g(1.0)
    c = math.sqrt(g**2 - 2.5 * (share * hi) ** 2)
    integrand, ramp = rd._flux_integrand_factory(c, 1.0, (g - c) * (g + c))
    assert ramp == pytest.approx(share * hi, rel=1e-2)  # c is rounded to a float
    cuts = ramp / 64.0 * 2.0 ** np.arange(math.ceil(math.log2(64.0 * hi / ramp)))
    ref = _gauss_panels(lambda xi: 2.0 * xi * integrand(xi), np.concatenate([[0.0], cuts, [hi]]))
    assert abs(rd.flux_height_difference(c, 1.0, 4.0, 1e-12) - ref) <= 1e-12


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_cumulative_heights_match_the_flux_integral_on_the_exterior_grid(s):
    # the m = 32 grid of the exterior acceptance settings, the flux its
    # default guess takes for boundary gradient s
    nodes = AnnulusGrid.annulus(1.0, 32.0, 256, 64, 2.0).r
    c = s * warp_g(1.0) / math.sqrt(1.0 + s * s)
    prof = rd.radial_mse_solve(1.0, 32.0, 0.0, rd.flux_height_difference(c, 1.0, 32.0), nodes=nodes)
    heights = [rd.flux_height_difference(prof.flux, 1.0, r) for r in nodes[1:]]
    assert np.max(np.abs(prof.value[1:] - heights)) <= 1e-12


@pytest.mark.parametrize("case", ["exterior", "near-extremal"])
def test_cumulative_heights_take_quad_only_where_the_rule_misses(case, monkeypatch):
    if case == "exterior":
        r_out, nodes = 32.0, AnnulusGrid.annulus(1.0, 32.0, 256, 64, 2.0).r
        u_out = rd.flux_height_difference(warp_g(1.0) / SQRT2, 1.0, r_out)
    else:
        r_out, nodes = 4.0, AnnulusGrid.annulus(1.0, 4.0, 64, 16, 2.0).r
        u_out = (1.0 - 1e-6) * rd.flux_height_difference(warp_g(1.0), 1.0, r_out)
    xi = np.sqrt(nodes - 1.0)
    quad_calls, fluxes = [], []
    quad, factory = rd._quad_checked, rd._flux_integrand_factory
    monkeypatch.setattr(rd, "_quad_checked", lambda fn, lo, hi, *a, **k:
                        quad_calls.append((lo, hi)) or quad(fn, lo, hi, *a, **k))
    monkeypatch.setattr(rd, "_flux_integrand_factory", lambda *a: fluxes.append(a) or factory(*a))
    prof = rd.radial_mse_solve(1.0, r_out, 0.0, u_out, nodes=nodes)
    monkeypatch.undo()
    # the root-find integrates each trial flux over the whole range; the
    # cumulative pass adds only the intervals the 16-point rule misses
    root_find = [call for call in quad_calls if call == (0.0, math.sqrt(r_out - 1.0))]
    fallback = [] if case == "exterior" else [(0.0, xi[1])]
    assert quad_calls == root_find + fallback
    assert len(root_find) <= 8
    assert prof.bc_residual <= 1e-10
    # the interval-by-interval loop the pass replaces, for the flux and neck
    # gap of the profile
    integrand, ramp = rd._flux_integrand_factory(*fluxes[-1])
    loop = np.cumsum([rd._flux_quad(integrand, ramp, lo, hi, 1e-12) for lo, hi in zip(xi, xi[1:])])
    assert np.max(np.abs(prof.value[1:] - loop)) <= 1e-15


@pytest.mark.parametrize("share", [1 - 1e-6, 1 - 1e-7, 1 - 1e-8, 1 - 1e-10, 0.5, 1e-6, 1e-9])
def test_radial_mse_solve_meets_targets_up_to_the_attainable_height(share):
    # a root-find on the flux c itself cannot resolve targets just below the
    # attainable height: one float step of c near g(1) moves the height by
    # about 1.8e-8 over [1, 4]
    attain = rd.flux_height_difference(warp_g(1.0), 1.0, 4.0)
    nodes = AnnulusGrid.annulus(1.0, 4.0, 64, 16, 2.0).r
    prof = rd.radial_mse_solve(1.0, 4.0, 0.0, share * attain, tol=1e-10, nodes=nodes)
    assert prof.bc_residual <= 1e-10


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
def test_quadrature_tolerance_must_be_finite_and_positive(tol):
    # a NaN tol fails every accuracy check with a misleading QuadratureError,
    # and an infinite one switches the check off: radial_mse_solve(1, 3, 0, 50)
    # then returned a profile ending at 1.549 instead of raising
    # NoAdmissibleFluxError
    with pytest.raises(ValueError, match="tol"):
        rd.catenoid_height(rd.CatenoidParams(3.0, 1.0), 2.0, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        rd.catenoid_profile(rd.CatenoidParams(3.0, 1.0), [1.0, 2.0, 3.0], tol=tol)
    with pytest.raises(ValueError, match="tol"):
        rd.radial_mse_solve(1.0, 3.0, 0.0, 50.0, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        rd.flux_height_difference(1.0, 1.0, 3.0, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        orbit_circumference(2.0, tol=tol)


def test_radial_profile_validation():
    with pytest.raises(ValueError):
        rd.RadialProfile(np.array([1.0, 1.0]), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        rd.RadialProfile(np.array([1.0, 2.0]), np.zeros(3), np.zeros(2))
