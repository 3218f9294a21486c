import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nil3lab.nilcore import ChartPoint, GroupElement, TangentVector, christoffel_closed_form
from nil3lab import surface as sf
from nil3lab.verify import balanced_gram, fd_pushforward

SQRT2 = math.sqrt(2.0)

angles = st.floats(0, 2 * math.pi, allow_nan=False)
coords = st.floats(-8, 8, allow_nan=False)


def test_geodesic_closed_form_examples():
    gp = sf.geodesic_closed_form(0.0, 1.0)
    assert (gp.point.x, gp.point.y) == (0.5, 0.5)
    assert gp.z == 0.125

    gp = sf.geodesic_closed_form(math.pi / 4, 2.0)
    assert abs(gp.point.x) <= 1e-15
    assert gp.point.y == pytest.approx(SQRT2, abs=1e-15)
    assert abs(gp.z) <= 1e-15

    gp = sf.geodesic_closed_form(0.0, 2.0)
    assert sf.distance_to_identity(gp.point) == pytest.approx(2.0, abs=1e-14)
    for theta, t in ((math.nan, 1.0), (0.0, math.nan), (0.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            sf.geodesic_closed_form(theta, t)


def test_distance_examples():
    assert sf.distance_to_identity(sf.SurfacePoint(1, 1)) == pytest.approx(2.0, abs=1e-15)
    assert sf.distance_to_identity(sf.SurfacePoint(0, 0)) == 0.0
    assert sf.distance_to_identity(sf.SurfacePoint(3, 4)) == pytest.approx(
        5 * SQRT2, abs=1e-12
    )


def test_distance_against_integrated_arc_length():
    from nil3lab.nilcore import integrate_geodesic

    target = sf.SurfacePoint(1.2, -0.8)
    r = sf.distance_to_identity(target)
    phi = math.atan2(target.y, target.x)
    start = ChartPoint(0, 0, 0)
    v0 = TangentVector(start, math.cos(phi) / SQRT2, math.sin(phi) / SQRT2, 0.0)
    path = integrate_geodesic(start, v0, r, 2000)
    x, y = path[-1, :2]
    assert math.hypot(x - target.x, y - target.y) <= 1e-6


def test_polar_round_trip():
    p = sf.SurfacePoint(1.7, -2.4)
    pc = sf.PolarCoord.from_surface_point(p)
    q = pc.to_surface_point()
    assert math.hypot(q.x - p.x, q.y - p.y) <= 1e-12
    assert pc.r == sf.distance_to_identity(p)
    for bad in (-1.0, -1e-300, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            sf.PolarCoord(bad, 0.0)
        # one bad radius in an array is refused too, broadcast or not
        r = np.linspace(0.0, 5.0, 8)
        r[5] = bad
        with pytest.raises(ValueError, match="polar radius"):
            sf.PolarCoord(r, 0.3)
        with pytest.raises(ValueError, match="polar radius"):
            sf.PolarCoord(r[:, None], np.linspace(0.0, 6.0, 4))


def test_polar_coord_broadcasts_like_its_scalar_form():
    rng = np.random.default_rng(16)
    r, th = rng.uniform(0.0, 9.0, 40), rng.uniform(-7.0, 7.0, 40)
    r[0] = 0.0
    many = sf.PolarCoord(r, th).to_surface_point()
    back = sf.PolarCoord.from_surface_point(many)
    ring = sf.PolarCoord(2.5, th).to_surface_point()  # one radius against many angles
    for k in range(40):
        one = sf.PolarCoord(float(r[k]), float(th[k])).to_surface_point()
        assert (one.x, one.y) == (many.x[k], many.y[k])
        pc = sf.PolarCoord.from_surface_point(one)
        assert (pc.r, pc.theta_pol) == (back.r[k], back.theta_pol[k])
        one = sf.PolarCoord(2.5, float(th[k])).to_surface_point()
        assert (one.x, one.y) == (ring.x[k], ring.y[k])


def test_chart_round_trips_on_arrays_keep_zeta():
    # dyadic coordinates: x y / 2 and every sum of the splitting are exact
    rng = np.random.default_rng(17)
    x, y, zeta = rng.integers(-64, 65, size=(3, 200)) / 16.0
    p, c = sf.splitting_isometry_inverse(
        sf.splitting_isometry(sf.SurfacePoint(x, y), sf.CenterElement(zeta))
    )
    assert np.all(p.x == x) and np.all(p.y == y) and np.all(c.t == zeta)
    # the image of the circle action is the rotated chart point at the same zeta
    ang = rng.uniform(0.0, 2 * math.pi, 200)
    g = ChartPoint(x, y, zeta).to_group()
    assert np.all(g.to_chart().zeta == zeta)
    img = sf.circle_action(ang, g)
    c, s = np.cos(ang), np.sin(ang)
    rotated = ChartPoint(x * c - y * s, x * s + y * c, zeta).to_group()
    assert np.all(img.x == rotated.x) and np.all(img.y == rotated.y)
    assert np.all(img.z == rotated.z)


def test_circle_action_rotation_example():
    # literal matrix substitution of the rotation formula would give z-1 here;
    # the isometric chart rotation gives z-2 (zeta is preserved)
    for z in (0.0, 5.0, -2.5):
        img = sf.circle_action(math.pi / 2, GroupElement(1, 2, z))
        assert img.x == pytest.approx(-2.0, abs=1e-15)
        assert img.y == pytest.approx(1.0, abs=1e-15)
        assert img.z == pytest.approx(z - 2.0, abs=1e-14)


def test_circle_action_periodic_and_center():
    g = GroupElement(1.3, -0.4, 0.9)
    img = sf.circle_action(2 * math.pi, g)
    assert max(abs(img.x - g.x), abs(img.y - g.y), abs(img.z - g.z)) <= 1e-14
    for ang in (0.3, 1.8, 4.4):
        c = GroupElement(0, 0, 5)
        assert sf.circle_action(ang, c) == c


def test_circle_action_is_an_action():
    g = GroupElement(0.8, -1.1, 0.3)
    a, b = 0.7, 2.1
    lhs = sf.circle_action(a, sf.circle_action(b, g))
    rhs = sf.circle_action(a + b, g)
    assert max(abs(lhs.x - rhs.x), abs(lhs.y - rhs.y), abs(lhs.z - rhs.z)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(angles, angles, coords, coords, coords)
def test_circle_action_addition_property(a, b, x, y, z):
    g = GroupElement(x, y, z)
    lhs = sf.circle_action(a, sf.circle_action(b, g))
    rhs = sf.circle_action(a + b, g)
    scale = 1.0 + abs(x) + abs(y) + abs(z) + x * x + y * y
    assert max(abs(lhs.x - rhs.x), abs(lhs.y - rhs.y), abs(lhs.z - rhs.z)) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(angles, coords, coords)
def test_distance_is_rotation_invariant(ang, x, y):
    p = sf.SurfacePoint(x, y)
    img = sf.circle_action(ang, p.to_group())
    q = sf.SurfacePoint(img.x, img.y)
    scale = 1.0 + abs(x) + abs(y)
    assert abs(sf.distance_to_identity(q) - sf.distance_to_identity(p)) <= 1e-12 * scale


def test_circle_action_preserves_slice_exactly():
    rng = np.random.default_rng(11)
    for _ in range(25):
        x, y = rng.uniform(-4, 4, size=2)
        ang = rng.uniform(0, 2 * math.pi)
        img = sf.circle_action(ang, sf.SurfacePoint(x, y).to_group())
        assert img.z - img.x * img.y / 2.0 == 0.0


def _rotate_by(ang):
    # the circle action by the angles ang on an (..., 3) array of matrix coordinates
    return lambda qq: sf.circle_action(ang, GroupElement(*np.moveaxis(qq, -1, 0)))


def test_circle_action_isometry():
    rng = np.random.default_rng(12)
    draws = rng.uniform([-3, -3, -3, 0], [3, 3, 3, 2 * math.pi], size=(10, 4))
    q, ang = draws[:, :3], draws[:, 3]
    rotate = _rotate_by(ang)
    frame = np.eye(3)
    before = balanced_gram(GroupElement(*q.T), frame)
    after = balanced_gram(rotate(q), fd_pushforward(rotate, q, frame))
    assert after.shape == before.shape == (10, 3, 3)
    assert np.max(np.abs(after - before)) <= 1e-8


def test_point_maps_broadcast_like_their_scalar_forms():
    rng = np.random.default_rng(14)
    x, y, z, ang, t = rng.uniform(-4, 4, size=(5, 20))
    img = sf.circle_action(ang, GroupElement(x, y, z))
    split = sf.splitting_isometry(sf.SurfacePoint(x, y), sf.CenterElement(z))
    geo = sf.geodesic_closed_form(ang, t)
    for k in range(20):
        one = sf.circle_action(ang[k], GroupElement(x[k], y[k], z[k]))
        assert (one.x, one.y, one.z) == (img.x[k], img.y[k], img.z[k])
        one = sf.splitting_isometry(sf.SurfacePoint(x[k], y[k]), sf.CenterElement(z[k]))
        assert (one.x, one.y, one.z) == (split.x[k], split.y[k], split.z[k])
        one = sf.geodesic_closed_form(ang[k], t[k])
        assert (one.point.x, one.point.y, one.z) == (geo.point.x[k], geo.point.y[k], geo.z[k])
    # zeta kept bit for bit: 0 on the slice, the height itself on the center line
    on_slice = sf.circle_action(ang, sf.SurfacePoint(x, y).to_group())
    assert np.all(on_slice.z - on_slice.x * on_slice.y / 2.0 == 0.0)
    center = sf.circle_action(ang, GroupElement(0.0, 0.0, z))
    assert np.all(center.x == 0.0) and np.all(center.y == 0.0) and np.all(center.z == z)
    with pytest.raises(ValueError, match="finite"):
        sf.geodesic_closed_form(ang, np.where(t > 0, t, math.nan))


def test_splitting_examples_and_inverse():
    assert sf.splitting_isometry(sf.SurfacePoint(1, 1), sf.CenterElement(0)) == GroupElement(
        1, 1, 0.5
    )
    assert sf.splitting_isometry(sf.SurfacePoint(0, 0), sf.CenterElement(3)) == GroupElement(
        0, 0, 3
    )
    assert sf.splitting_isometry(sf.SurfacePoint(2, 0), sf.CenterElement(1)) == GroupElement(
        2, 0, 1
    )
    g = GroupElement(1.4, -2.2, 0.7)
    p, c = sf.splitting_isometry_inverse(g)
    back = sf.splitting_isometry(p, c)
    assert (back.x, back.y) == (g.x, g.y)
    assert back.z == pytest.approx(g.z, abs=1e-15)


def test_splitting_pullback_is_product_metric():
    from nil3lab.nilcore import metric_closed_form

    def psi(q):
        return sf.splitting_isometry(
            sf.SurfacePoint(q[..., 0], q[..., 1]), sf.CenterElement(q[..., 2])
        )

    rng = np.random.default_rng(13)
    q = rng.uniform(-4, 4, size=(15, 3))
    block = metric_closed_form(ChartPoint(q[:, 0], q[:, 1], 0.0)).matrix()
    pulled = balanced_gram(psi(q), fd_pushforward(psi, q, np.eye(3)))
    assert pulled.shape == block.shape == (15, 3, 3)
    assert np.all(block[:, 2] == [0.0, 0.0, 2.0])
    assert np.max(np.abs(pulled - block)) <= 1e-10


def test_center_arc_length():
    assert sf.CenterElement(3.0).arc_length == pytest.approx(3 * SQRT2, abs=1e-15)
    s = np.array([-2.0, 0.0, 3.0 * SQRT2])
    c = sf.CenterElement.from_arc_length(s)
    assert np.all(c.t == s / SQRT2) and c.t[2] == pytest.approx(3.0, abs=1e-15)
    assert np.allclose(c.arc_length, s, rtol=0.0, atol=1e-15)


def test_warp_values():
    assert sf.warp_g(0.0) == 0.0
    assert sf.warp_g(2.0) == pytest.approx(math.sqrt(6.0), abs=1e-14)
    assert np.allclose(sf.warp_g(np.array([0.0, 2.0])), [0.0, math.sqrt(6.0)], atol=1e-14)
    with pytest.raises(ValueError):
        sf.warp_g(-0.5)


def test_conformal_radius():
    # d(log rho)/dr = 1/g by central differences
    h = 1e-4
    for r in (0.01, 0.5, 2.0, 10.0, 1e3):
        dlog = (math.log(sf.conformal_radius(r + h * r)) - math.log(sf.conformal_radius(r - h * r)))
        assert dlog / (2 * h * r) == pytest.approx(1.0 / sf.warp_g(r), rel=1e-7)
    r = np.array([0.0, 1e-300, 0.3, 4.0, 1e6, 1e300])
    rho = sf.conformal_radius(r)
    assert rho[0] == 0.0 and np.all(np.diff(rho) > 0) and rho[-1] == 1.0
    assert sf.conformal_radius(2.0 * math.sqrt(2.0)) == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-15)
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            sf.conformal_radius(bad)


def test_warp_closed_forms_derive_from_warp_g():
    # g'/g and -g''/g by central differences of the one g
    h = 1e-3
    for r in (0.5, 1.0, 2.0, 5.0, 10.0):
        gm, g, gp = sf.warp_g(r - h), sf.warp_g(r), sf.warp_g(r + h)
        assert sf.geodesic_circle_curvature(r) == pytest.approx((gp - gm) / (2 * h) / g, rel=1e-6)
        assert sf.curvature_from_warp(r) == pytest.approx(-(gp - 2 * g + gm) / h**2 / g, rel=1e-6)
    for x, y in ((0.0, 0.0), (0.3, -1.2), (2.5, 4.0)):
        p = sf.SurfacePoint(x, y)
        assert sf.curvature_closed_forms(p).k_warp == sf.curvature_from_warp(
            sf.distance_to_identity(p)
        )


def test_warp_against_orbit_length():
    for r in (1e-3, 0.5, 2.0, 7.0):
        length = sf.orbit_circumference(r)
        assert abs(length / (2 * math.pi) - sf.warp_g(r)) <= 1e-8
    # the speed is constant along the orbit, so the quadrature is exact up to
    # rounding; 59 is near the largest radius whose length still has a float
    # spacing below the default tol 1e-12
    for r in (1e-3, 0.5, 2.0, 7.0, 30.0, 59.0):
        exact = 2 * math.pi * sf.warp_g(r)
        assert abs(sf.orbit_circumference(r) - exact) <= 4 * math.ulp(exact), r
    # normal-coordinate normalization g'(0) = 1 via the orbit at tiny radius
    r = 1e-3
    assert abs(sf.orbit_circumference(r) / (2 * math.pi * r) - 1.0) <= 1e-6


def test_orbit_length_below_float_spacing_names_the_spacing():
    # 1e-12 is below the spacing of doubles near 2 pi g(100) = 22223.5, so
    # no error estimate can meet it; the message names that spacing
    from nil3lab.radial import QuadratureError

    spacing = math.ulp(2 * math.pi * sf.warp_g(100.0))
    with pytest.raises(QuadratureError, match=f"below the float spacing {spacing:.3g} "):
        sf.orbit_circumference(100.0)


def test_orbit_is_distance_sphere():
    for r in (0.5, 2.0, 9.0):
        for phi in np.linspace(0, 2 * math.pi, 12, endpoint=False):
            p = sf.PolarCoord(r, phi).to_surface_point()
            assert sf.distance_to_identity(p) == pytest.approx(r, abs=1e-12)


def test_curvature_riemann_values():
    k0 = sf.gaussian_curvature_riemann(sf.SurfacePoint(0, 0))
    assert k0 == pytest.approx(-0.375, abs=1e-7)
    p2 = sf.PolarCoord(2.0, 1.1).to_surface_point()
    assert sf.gaussian_curvature_riemann(p2) == pytest.approx(-2 / 9, abs=1e-7)
    with pytest.raises(ValueError):
        sf.gaussian_curvature_riemann(sf.SurfacePoint(0, 0), h=0.0)


def test_curvature_riemann_refuses_a_point_where_its_step_is_lost():
    # beyond |x| of about 1e12, x + 1e-4 rounds to x and the differences read
    # 0; at r = 1e200 the connection itself would overflow
    for r in (1e13, 1e80, 1e200):
        with pytest.raises(ValueError, match="h=0.0001 is lost to rounding"):
            sf.gaussian_curvature_riemann(sf.PolarCoord(r, 0.0).to_surface_point())
    with pytest.raises(ValueError, match="lost to rounding"):
        sf.gaussian_curvature_riemann(sf.SurfacePoint(np.array([0.0, 0.5]), np.array([0.0, 1e15])))
    assert sf.gaussian_curvature_riemann(sf.SurfacePoint(1e13, 0.0), h=1.0) < 0


def test_curvature_from_warp_stays_finite_where_r_squared_overflows():
    far = sf.curvature_from_warp(np.array([1e80, 1e154, 1e200, 1e300, np.finfo(float).max]))
    assert np.all(np.isfinite(far)) and np.all(far <= 0)
    assert sf.curvature_from_warp(1e80) == pytest.approx(-2e-160, rel=1e-15)
    # within roundoff of the expanded quotient wherever that quotient is finite
    r = np.concatenate([[0.0], np.logspace(-3, 70, 200)])
    expanded = -2.0 * (r * r + 12.0) / (r * r + 8.0) ** 2
    assert np.allclose(sf.curvature_from_warp(r), expanded, rtol=1e-15, atol=0.0)


def test_curvature_oracles_agree():
    for r in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        p = sf.PolarCoord(r, 0.4).to_surface_point()
        assert abs(sf.gaussian_curvature_riemann(p) - sf.curvature_from_warp(r)) <= 1e-5


def test_curvature_riemann_broadcasts_over_points():
    # one call over an array of points gives each point's own value bit for bit
    r, phi = np.meshgrid([0.1, 0.5, 1.0, 2.0, 5.0, 10.0], [0.4, 0.7, 2.9], indexing="ij")
    points = sf.SurfacePoint(r / SQRT2 * np.cos(phi), r / SQRT2 * np.sin(phi))
    batched = sf.gaussian_curvature_riemann(points)
    assert batched.shape == (6, 3)
    single = [[sf.gaussian_curvature_riemann(sf.SurfacePoint(x, y)) for x, y in zip(xs, ys)]
              for xs, ys in zip(points.x, points.y)]
    assert np.array_equal(batched, single)
    assert type(sf.gaussian_curvature_riemann(sf.SurfacePoint(0.3, 0.2))) is float


def test_curvature_rotational_invariance():
    vals = []
    for phi in np.linspace(0, 2 * math.pi, 8, endpoint=False):
        vals.append(sf.gaussian_curvature_riemann(sf.PolarCoord(1.5, phi).to_surface_point()))
    assert max(vals) - min(vals) <= 1e-8


def test_curvature_closed_form_candidates():
    cands = sf.curvature_closed_forms(sf.SurfacePoint(0, 0))
    assert cands.k_doubled == -0.75
    assert cands.k_warp == -0.375
    p = sf.PolarCoord(2.0, 0.0).to_surface_point()
    cands = sf.curvature_closed_forms(p)
    assert cands.k_doubled == pytest.approx(-4 / 9, abs=1e-14)
    assert cands.k_warp == pytest.approx(-2 / 9, abs=1e-14)
    far = sf.curvature_closed_forms(sf.PolarCoord(1e4, 0.0).to_surface_point())
    assert -1e-6 < far.k_doubled < 0 and -1e-6 < far.k_warp < 0


def test_second_fundamental_form_vanishes():
    ii = sf.second_fundamental_form_slice(sf.SurfacePoint(np.array([0, 1, -3]), np.array([0, 1, 2])))
    assert ii.shape == (3, 2, 2)
    assert np.max(np.abs(ii)) <= 1e-10


def test_geodesic_closed_form_solves_ode():
    worst = 0.0
    for ang in np.linspace(0, 2 * math.pi, 16, endpoint=False):
        v = np.array(
            [(math.cos(ang) - math.sin(ang)) / 2, (math.sin(ang) + math.cos(ang)) / 2, 0.0]
        )
        for t in np.linspace(0, 10, 50):
            gp = sf.geodesic_closed_form(ang, t)
            gam = christoffel_closed_form(ChartPoint(gp.point.x, gp.point.y, 0.0))
            worst = max(worst, float(np.max(np.abs(gam.apply(v, v)))))
    assert worst <= 1e-10


def test_geodesic_distance_identity():
    for ang in np.linspace(0, 2 * math.pi, 9):
        for t in (-3.0, 0.5, 8.0):
            gp = sf.geodesic_closed_form(ang, t)
            assert abs(sf.distance_to_identity(gp.point) - abs(t)) <= 1e-12


def test_boundary_data_wrappers():
    const = sf.BoundaryData.constant(4.5)
    theta = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    assert np.all(const(theta) == 4.5)
    cosd = sf.BoundaryData.cosine(0.5)
    assert np.allclose(cosd(theta), 0.5 * np.cos(theta))
    assert abs(cosd(0.0) - cosd(2 * math.pi)) <= 1e-15
