import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from nil3lab.nilcore import (
    ChartPoint,
    GroupElement,
    IDENTITY,
    TangentVector,
    balanced_metric_form,
    balanced_metric_from_translations,
    christoffel_closed_form,
    christoffel_from_metric,
    frame_metric_from_translations,
    frame_norm,
    geodesic_ode_rhs,
    integrate_geodesic,
    inverse,
    metric_closed_form,
    multiply,
)

coords = st.floats(-20, 20, allow_nan=False, allow_infinity=False)


def frame_vec(p, a, b, c):
    return TangentVector(p, a, b, c)


def test_multiply_examples():
    assert multiply(GroupElement(1, 0, 0), GroupElement(0, 1, 0)) == GroupElement(1, 1, 1)
    assert multiply(IDENTITY, GroupElement(3, -2, 7)) == GroupElement(3, -2, 7)
    assert multiply(GroupElement(1, 2, 3), GroupElement(-1, -2, -1)) == GroupElement(0, 0, 0)


@settings(max_examples=50, deadline=None)
@given(coords, coords, coords, coords, coords, coords, coords, coords, coords)
def test_multiply_associative(x1, y1, z1, x2, y2, z2, x3, y3, z3):
    g1, g2, g3 = GroupElement(x1, y1, z1), GroupElement(x2, y2, z2), GroupElement(x3, y3, z3)
    left = multiply(multiply(g1, g2), g3)
    right = multiply(g1, multiply(g2, g3))
    scale = 1.0 + max(abs(left.x), abs(left.y), abs(left.z))
    assert abs(left.x - right.x) <= 1e-12 * scale
    assert abs(left.y - right.y) <= 1e-12 * scale
    assert abs(left.z - right.z) <= 1e-12 * scale


def test_inverse_examples():
    assert inverse(GroupElement(1, 2, 3)) == GroupElement(-1, -2, -1)
    assert inverse(IDENTITY) == IDENTITY
    assert inverse(GroupElement(0, 0, 5)) == GroupElement(0, 0, -5)


@settings(max_examples=50, deadline=None)
@given(coords, coords, coords)
def test_inverse_property(x, y, z):
    g = GroupElement(x, y, z)
    e = multiply(g, inverse(g))
    scale = 1.0 + abs(x) + abs(y) + abs(z) + abs(x * y)
    assert max(abs(e.x), abs(e.y), abs(e.z)) <= 1e-12 * scale
    e2 = multiply(inverse(g), g)
    assert max(abs(e2.x), abs(e2.y), abs(e2.z)) <= 1e-12 * scale


def test_chart_round_trip():
    p = ChartPoint(1.25, -0.75, 0.5)
    q = p.to_group().to_chart()
    assert q.x == p.x and q.y == p.y and abs(q.zeta - p.zeta) <= 1e-15


def test_balanced_metric_examples():
    p = ChartPoint(0.0, 1.0, 0.0)
    g = p.to_group()
    x_vec = frame_vec(p, 1, 0, 0)
    assert balanced_metric_from_translations(g, x_vec, x_vec) == pytest.approx(2.5, abs=1e-14)

    p2 = ChartPoint(0.7, -1.3, 0.4)
    z_vec = frame_vec(p2, 0, 0, 1)
    assert balanced_metric_from_translations(p2.to_group(), z_vec, z_vec) == pytest.approx(
        2.0, abs=1e-14
    )

    p3 = ChartPoint(1.0, 1.0, 0.0)
    assert balanced_metric_from_translations(
        p3.to_group(), frame_vec(p3, 1, 0, 0), frame_vec(p3, 0, 1, 0)
    ) == pytest.approx(-0.5, abs=1e-14)


def test_balanced_metric_base_mismatch():
    p = ChartPoint(1.0, 0.0, 0.0)
    q = ChartPoint(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        balanced_metric_from_translations(
            p.to_group(), frame_vec(p, 1, 0, 0), frame_vec(q, 1, 0, 0)
        )


def test_bilinearity_and_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(10):
        x, y, z = rng.uniform(-4, 4, size=3)
        p = GroupElement(x, y, z).to_chart()
        g = p.to_group()
        u = frame_vec(p, *rng.uniform(-2, 2, size=3))
        v = frame_vec(p, *rng.uniform(-2, 2, size=3))
        w = frame_vec(p, *rng.uniform(-2, 2, size=3))
        lam = rng.uniform(-3, 3)
        uv = balanced_metric_from_translations(g, u, v)
        vu = balanced_metric_from_translations(g, v, u)
        assert abs(uv - vu) <= 1e-12
        lin = balanced_metric_from_translations(
            g, frame_vec(p, lam * u.a + w.a, lam * u.b + w.b, lam * u.c + w.c), v
        )
        wv = balanced_metric_from_translations(g, w, v)
        assert abs(lin - (lam * uv + wv)) <= 1e-12 * (1 + abs(lin))


def test_metric_equivalence_on_grid():
    # defining construction vs closed form, all six coefficients
    frames = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    worst = 0.0
    for x in np.linspace(-5, 5, 20):
        for y in np.linspace(-5, 5, 20):
            p = ChartPoint(x, y, 0.0)
            g = p.to_group()
            met = metric_closed_form(p)
            closed = met.matrix()
            for i in range(3):
                for j in range(i, 3):
                    val = balanced_metric_from_translations(
                        g, frame_vec(p, *frames[i]), frame_vec(p, *frames[j])
                    )
                    worst = max(worst, abs(val - closed[i, j]))
    assert worst <= 1e-10


def test_construction_broadcasts_over_points():
    rng = np.random.default_rng(8)
    x, y, z = rng.uniform(-4, 4, size=(3, 12))
    form = balanced_metric_form(GroupElement(x, y, z))
    assert form.shape == (12, 3, 3)
    frame = frame_metric_from_translations(ChartPoint(x, y, z))
    closed = metric_closed_form(ChartPoint(x, y, z)).matrix()
    assert frame.shape == closed.shape == (12, 3, 3)
    assert np.max(np.abs(frame - closed)) <= 1e-12
    gamma = christoffel_from_metric(ChartPoint(x, y, z)).gamma
    assert gamma.shape == (12, 3, 3, 3)
    for k in range(12):
        assert np.array_equal(form[k], balanced_metric_form(GroupElement(x[k], y[k], z[k])))
        one = christoffel_from_metric(ChartPoint(x[k], y[k], z[k])).gamma
        assert np.max(np.abs(gamma[k] - one)) <= 1e-12


def test_metric_closed_form_examples():
    m0 = metric_closed_form(ChartPoint(0, 0, 0))
    assert (m0.exx, m0.eyy, m0.ezz, m0.exy) == (2.0, 2.0, 2.0, 0.0)
    m1 = metric_closed_form(ChartPoint(1, 1, 0))
    assert (m1.exx, m1.eyy, m1.exy, m1.ezz) == (2.5, 2.5, -0.5, 2.0)
    m2 = metric_closed_form(ChartPoint(0, 3, 0))
    assert (m2.exx, m2.eyy, m2.exy) == (6.5, 2.0, 0.0)


def test_christoffel_closed_form_examples():
    assert np.all(christoffel_closed_form(ChartPoint(0, 0, 0)).gamma == 0.0)
    gam = christoffel_closed_form(ChartPoint(1, 1, 0)).gamma
    assert gam[0, 0, 0] == pytest.approx(-1 / 12, abs=1e-15)
    assert gam[1, 0, 0] == pytest.approx(-5 / 12, abs=1e-15)
    assert gam[0, 1, 0] == pytest.approx(1 / 4, abs=1e-15)
    assert gam[1, 1, 0] == pytest.approx(1 / 4, abs=1e-15)


def test_christoffel_from_metric_oracle():
    origin = christoffel_from_metric(ChartPoint(0, 0, 0), 1e-4)
    assert np.max(np.abs(origin.gamma)) < 1e-7
    for pt in (ChartPoint(1, 1, 0), ChartPoint(2, -1, 0)):
        closed = christoffel_closed_form(pt).gamma
        fd = christoffel_from_metric(pt, 1e-4).gamma
        assert np.max(np.abs(closed - fd)) <= 1e-6


def test_christoffel_from_metric_rejects_bad_step():
    with pytest.raises(ValueError):
        christoffel_from_metric(ChartPoint(0, 0, 0), 0.0)
    with pytest.raises(ValueError):
        christoffel_from_metric(ChartPoint(0, 0, 0), -1e-4)


def test_torsion_free_exact():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = ChartPoint(*rng.uniform(-4, 4, size=2), 0.0)
        gam = christoffel_closed_form(p).gamma
        assert np.array_equal(gam, np.swapaxes(gam, 1, 2))


def test_z_parallel_and_killing():
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = ChartPoint(*rng.uniform(-4, 4, size=2), 0.0)
        gam = christoffel_closed_form(p).gamma
        assert np.all(gam[2, :, :] == 0.0)
        assert np.all(gam[:, 2, :] == 0.0)
        assert np.all(gam[:, :, 2] == 0.0)
        # Killing equation <nabla_U Z, V> + <nabla_V Z, U> = 0
        met = metric_closed_form(p)
        for i in range(3):
            for j in range(3):
                du = gam[:, i, 2]
                dv = gam[:, j, 2]
                ei = np.eye(3)[i]
                ej = np.eye(3)[j]
                val = met.inner(du, ej) + met.inner(dv, ei)
                assert abs(val) <= 1e-12


def test_metric_compatibility_fd():
    # W<U,V> = <nabla_W U, V> + <U, nabla_W V> for coordinate fields
    h = 1e-4
    rng = np.random.default_rng(5)
    for _ in range(5):
        x, y = rng.uniform(-3, 3, size=2)
        gam = christoffel_closed_form(ChartPoint(x, y, 0.0)).gamma
        met = metric_closed_form(ChartPoint(x, y, 0.0))
        for w in range(3):
            dx = h if w == 0 else 0.0
            dy = h if w == 1 else 0.0
            mp = metric_closed_form(ChartPoint(x + dx, y + dy, 0.0)).matrix()
            mm = metric_closed_form(ChartPoint(x - dx, y - dy, 0.0)).matrix()
            dmet = (mp - mm) / (2 * h)
            for i in range(3):
                for j in range(3):
                    lhs = dmet[i, j]
                    rhs = met.inner(gam[:, w, i], np.eye(3)[j]) + met.inner(
                        np.eye(3)[i], gam[:, w, j]
                    )
                    assert abs(lhs - rhs) <= 1e-6


def test_geodesic_ode_rhs_examples():
    origin = ChartPoint(0, 0, 0)
    acc = geodesic_ode_rhs(origin, TangentVector(origin, 0.3, -1.2, 0.7))
    assert (acc.a, acc.b, acc.c) == (0.0, 0.0, 0.0)

    # along the diagonal with v = (X + Y)/2 the acceleration vanishes
    for t in (0.5, 2.0, 7.0):
        p = ChartPoint(t / 2, t / 2, 0.0)
        acc = geodesic_ode_rhs(p, TangentVector(p, 0.5, 0.5, 0.0))
        assert max(abs(acc.a), abs(acc.b), abs(acc.c)) <= 1e-15

    p = ChartPoint(1, 1, 0)
    acc = geodesic_ode_rhs(p, TangentVector(p, 1, 0, 0))
    assert acc.a == pytest.approx(1 / 12, abs=1e-15)
    assert acc.b == pytest.approx(5 / 12, abs=1e-15)
    assert acc.c == 0.0


def test_integrate_geodesic_diagonal():
    start = ChartPoint(0, 0, 0)
    path = integrate_geodesic(start, TangentVector(start, 0.5, 0.5, 0.0), 1.0, 100)
    assert path.shape == (101, 6)
    assert path[0].tolist() == [0.0, 0.0, 0.0, 0.5, 0.5, 0.0]
    x, y, zeta = path[-1, :3]
    assert abs(x - 0.5) <= 1e-8
    assert abs(y - 0.5) <= 1e-8
    assert abs(zeta) <= 1e-8


def test_integrate_geodesic_stays_in_slice():
    start = ChartPoint(0, 0, 0)
    for ang in (0.0, 1.0, 2.5):
        v = TangentVector(start, math.cos(ang) / math.sqrt(2), math.sin(ang) / math.sqrt(2), 0.0)
        path = integrate_geodesic(start, v, 10.0, 1000)
        assert np.max(np.abs(path[:, 2])) <= 1e-8


def test_integrate_geodesic_vertical():
    start = ChartPoint(0, 0, 0)
    c = 1 / math.sqrt(2)
    path = integrate_geodesic(start, TangentVector(start, 0, 0, c), 1.0, 50)
    x, y, zeta = path[-1, :3]
    assert (x, y) == (0.0, 0.0)
    assert zeta == pytest.approx(c, abs=1e-14)


def test_integrate_geodesic_speed_conserved():
    start = ChartPoint(0.4, -1.1, 0.0)
    v0 = TangentVector(start, 0.3, 0.5, 0.1)
    s0 = frame_norm(start, v0.frame_components())
    path = integrate_geodesic(start, v0, 4.0, 400)
    for row in path[::40]:
        assert abs(frame_norm(ChartPoint(*row[:3]), row[3:]) - s0) <= 1e-9


@settings(max_examples=50, deadline=None)
@given(coords, coords, coords, coords, coords, coords)
def test_geodesic_ode_rhs_matches_connection(x, y, zeta, a, b, c):
    # off the slice too: zeta and c drop out of the acceleration
    p = ChartPoint(x, y, zeta)
    acc = geodesic_ode_rhs(p, TangentVector(p, a, b, c))
    ref = -christoffel_closed_form(p).apply([a, b, c], [a, b, c])
    diff = np.abs(np.array([acc.a, acc.b, acc.c]) - ref)
    assert np.max(diff) <= 1e-15 * np.max(np.abs(ref))


def test_integrate_geodesic_matches_koszul_oracle_off_slice():
    # independent reference: DOP853 on the finite-difference Koszul connection
    def rhs(_t, s):
        acc = -christoffel_from_metric(ChartPoint(*s[:3])).apply(s[3:], s[3:])
        return np.concatenate([s[3:], acc])

    rng = np.random.default_rng(11)
    for _ in range(3):
        x, y, zeta = rng.uniform(-2, 2, size=3)
        a, b, c = rng.uniform(-1, 1, size=3)
        start = ChartPoint(x, y, zeta)
        path = integrate_geodesic(start, TangentVector(start, a, b, c), 2.0, 400)
        ref = solve_ivp(rhs, (0.0, 2.0), [x, y, zeta, a, b, c], method="DOP853",
                        rtol=1e-12, atol=1e-12)
        assert ref.success
        assert abs(zeta) > 0.0 and abs(c) > 0.0
        assert np.max(np.abs(path[-1] - ref.y[:, -1])) <= 1e-6


def test_integrate_geodesic_fourth_order():
    # halving the step divides the endpoint error by about 2^4
    start = ChartPoint(0.7, -1.3, 0.4)
    v0 = TangentVector(start, 0.6, 0.8, -0.5)
    ref = integrate_geodesic(start, v0, 2.0, 1600)[-1]
    errs = [np.max(np.abs(integrate_geodesic(start, v0, 2.0, n)[-1] - ref)) for n in (20, 40, 80)]
    assert 14.0 <= errs[0] / errs[1] <= 18.0
    assert 14.0 <= errs[1] / errs[2] <= 18.0


def test_integrate_geodesic_rejects_bad_steps():
    start = ChartPoint(0, 0, 0)
    with pytest.raises(ValueError):
        integrate_geodesic(start, TangentVector(start, 1, 0, 0), 1.0, 0)


def test_diagonal_unit_speed():
    for t in np.linspace(0, 10, 21):
        p = ChartPoint(t / 2, t / 2, 0.0)
        assert abs(frame_norm(p, [0.5, 0.5, 0.0]) - 1.0) <= 1e-12

