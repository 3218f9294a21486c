"""Group algebra of Nil3 and the balanced-metric connection engine.

Matrix coordinates (x, y, z) label the unipotent matrix [[1, x, z], [0, 1, y],
[0, 0, 1]]; all group algebra happens there.  Differential geometry happens in
the graph chart (x, y, zeta) -> (x, y, x*y/2 + zeta), whose coordinate frame
{X, Y, Z} carries every tensor in this package.

The balanced metric at g is the flat inner product on strictly upper
triangular matrices pulled back through both the left and the right
translation by g^-1 and then summed.  That defining construction
(`balanced_metric_from_translations`) and the closed-form coefficients
(`metric_closed_form`) are implemented independently so each can certify the
other; the same goes for the connection (`christoffel_closed_form` vs the
finite-difference Koszul oracle `christoffel_from_metric`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupElement",
    "ChartPoint",
    "TangentVector",
    "MetricAtPoint",
    "ChristoffelAtPoint",
    "IDENTITY",
    "multiply",
    "inverse",
    "tangent_from_matrix_velocity",
    "balanced_metric_from_translations",
    "metric_closed_form",
    "christoffel_closed_form",
    "christoffel_from_metric",
    "frame_norm",
    "geodesic_ode_rhs",
    "integrate_geodesic",
]


@dataclass(frozen=True)
class GroupElement:
    """Point of Nil3 in matrix coordinates; z is the (1,3) entry."""

    x: float
    y: float
    z: float

    def as_matrix(self) -> np.ndarray:
        return np.array(
            [[1.0, self.x, self.z], [0.0, 1.0, self.y], [0.0, 0.0, 1.0]]
        )

    def to_chart(self) -> "ChartPoint":
        return ChartPoint(self.x, self.y, self.z - self.x * self.y / 2.0)


IDENTITY = GroupElement(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ChartPoint:
    """Point in the graph chart; the matrix (1,3) entry is x*y/2 + zeta."""

    x: float
    y: float
    zeta: float = 0.0

    def to_group(self) -> GroupElement:
        return GroupElement(self.x, self.y, self.x * self.y / 2.0 + self.zeta)


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector with components (a, b, c) on the coordinate frame {X, Y, Z}."""

    base: ChartPoint
    a: float
    b: float
    c: float

    def frame_components(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])

    def matrix_velocity(self) -> np.ndarray:
        """Velocities of the matrix entries (x, y, z).

        X = (1, 0, y/2), Y = (0, 1, x/2), Z = (0, 0, 1) in matrix-entry
        velocities, so the conversion is linear with point-dependent weights.
        """
        x, y = self.base.x, self.base.y
        vz = self.a * y / 2.0 + self.b * x / 2.0 + self.c
        return np.array([self.a, self.b, vz])


def tangent_from_matrix_velocity(base: ChartPoint, v) -> TangentVector:
    """Inverse of :meth:`TangentVector.matrix_velocity` at the given base point."""
    vx, vy, vz = float(v[0]), float(v[1]), float(v[2])
    c = vz - (base.y * vx + base.x * vy) / 2.0
    return TangentVector(base, vx, vy, c)


def multiply(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Product of the two upper-triangular matrices."""
    return GroupElement(g1.x + g2.x, g1.y + g2.y, g1.z + g2.z + g1.x * g2.y)


def inverse(g: GroupElement) -> GroupElement:
    """Matrix inverse; multiply(g, inverse(g)) is the identity."""
    return GroupElement(-g.x, -g.y, g.x * g.y - g.z)


@dataclass(frozen=True)
class MetricAtPoint:
    """Symmetric metric coefficients on the frame {X, Y, Z}.

    The cross terms with Z vanish identically and ezz == 2 at every point;
    they are stored anyway so the closed form and the translation-based
    construction can be compared coefficient by coefficient.
    """

    exx: float
    eyy: float
    ezz: float
    exy: float
    exz: float
    eyz: float

    def matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.exx, self.exy, self.exz],
                [self.exy, self.eyy, self.eyz],
                [self.exz, self.eyz, self.ezz],
            ]
        )

    def inner(self, u, v) -> float:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return float(u @ self.matrix() @ v)


@dataclass(frozen=True)
class ChristoffelAtPoint:
    """Connection coefficients gamma[k, i, j] with nabla_{E_i} E_j = gamma[k,i,j] E_k."""

    gamma: np.ndarray

    def apply(self, u, v) -> np.ndarray:
        """Components of nabla contracted with two frame vectors: Gamma^k_{ij} u^i v^j."""
        return np.einsum("kij,i,j->k", self.gamma, u, v)


def _flat_components(m: np.ndarray) -> np.ndarray:
    # (a, b, c) entries of a strictly upper triangular matrix
    return np.array([m[0, 1], m[1, 2], m[0, 2]])


def _check_based_at(g: GroupElement, *vectors: TangentVector) -> None:
    gm = (g.x, g.y, g.z)
    for v in vectors:
        h = v.base.to_group()
        err = max(abs(h.x - gm[0]), abs(h.y - gm[1]), abs(h.z - gm[2]))
        scale = 1.0 + max(abs(gm[0]), abs(gm[1]), abs(gm[2]))
        if err > 1e-9 * scale:
            raise ValueError("tangent vector is not based at g (base-point mismatch)")


def balanced_metric_from_translations(
    g: GroupElement, u: TangentVector, v: TangentVector
) -> float:
    """Inner product of u and v at g from the defining construction.

    Pulls both vectors back to the identity through left and right
    translation by g^-1 (exact matrix products) and sums the two flat inner
    products.  Agrees with `metric_closed_form` to machine precision.
    """
    _check_based_at(g, u, v)
    gi = inverse(g).as_matrix()

    def _pullbacks(w: TangentVector):
        vel = w.matrix_velocity()
        vm = np.array([[0.0, vel[0], vel[2]], [0.0, 0.0, vel[1]], [0.0, 0.0, 0.0]])
        return _flat_components(gi @ vm), _flat_components(vm @ gi)

    lu, ru = _pullbacks(u)
    lv, rv = _pullbacks(v)
    return float(lu @ lv + ru @ rv)


def metric_closed_form(p: ChartPoint) -> MetricAtPoint:
    """Metric coefficients at the chart point; they depend on (x, y) only."""
    x, y = p.x, p.y
    return MetricAtPoint(
        exx=2.0 + 0.5 * y * y,
        eyy=2.0 + 0.5 * x * x,
        ezz=2.0,
        exy=-0.5 * x * y,
        exz=0.0,
        eyz=0.0,
    )


def christoffel_closed_form(p: ChartPoint) -> ChristoffelAtPoint:
    """Connection coefficients in closed form.

    Every coefficient carrying a Z index vanishes (Z is a parallel field) and
    the whole tensor vanishes at the origin.
    """
    x, y = p.x, p.y
    den = 2.0 * x * x + 2.0 * y * y + 8.0
    gam = np.zeros((3, 3, 3))
    gam[0, 0, 0] = -x * y * y / den
    gam[1, 0, 0] = -(4.0 * y + y**3) / den
    gam[0, 0, 1] = gam[0, 1, 0] = y * (2.0 + x * x) / den
    gam[1, 0, 1] = gam[1, 1, 0] = x * (2.0 + y * y) / den
    gam[0, 1, 1] = -(4.0 * x + x**3) / den
    gam[1, 1, 1] = -x * x * y / den
    return ChristoffelAtPoint(gam)


def christoffel_from_metric(p: ChartPoint, h: float = 1e-4) -> ChristoffelAtPoint:
    """Koszul-formula oracle with central finite differences of the metric.

    Independent of `christoffel_closed_form`; agreement is O(h^2).
    """
    if h <= 0:
        raise ValueError("finite-difference step h must be positive")

    def gmat(dx=0.0, dy=0.0, dz=0.0):
        return metric_closed_form(
            ChartPoint(p.x + dx, p.y + dy, p.zeta + dz)
        ).matrix()

    dg = np.zeros((3, 3, 3))  # dg[l] = d g / d coord_l
    shifts = [(h, 0.0, 0.0), (0.0, h, 0.0), (0.0, 0.0, h)]
    for l, sh in enumerate(shifts):
        dg[l] = (gmat(*sh) - gmat(*[-s for s in sh])) / (2.0 * h)

    ginv = np.linalg.inv(gmat())
    gamma = 0.5 * (
        np.einsum("kl,ilj->kij", ginv, dg)
        + np.einsum("kl,jli->kij", ginv, dg)
        - np.einsum("kl,lij->kij", ginv, dg)
    )
    return ChristoffelAtPoint(gamma)


def frame_norm(p: ChartPoint, u) -> float:
    return math.sqrt(metric_closed_form(p).inner(u, u))


def geodesic_ode_rhs(p: ChartPoint, v: TangentVector) -> TangentVector:
    """Acceleration -Gamma^k_{ij} v^i v^j of the geodesic equation at (p, v)."""
    _check_based_at(p.to_group(), v)
    comps = v.frame_components()
    acc = -christoffel_closed_form(p).apply(comps, comps)
    return TangentVector(p, float(acc[0]), float(acc[1]), float(acc[2]))


def _geodesic_rhs_state(state: np.ndarray) -> np.ndarray:
    pt = ChartPoint(state[0], state[1], state[2])
    vel = state[3:]
    acc = -christoffel_closed_form(pt).apply(vel, vel)
    return np.concatenate([vel, acc])


def integrate_geodesic(
    p0: ChartPoint, v0: TangentVector, T: float, n_steps: int
) -> list[tuple[ChartPoint, TangentVector]]:
    """Fixed-step classical 4th-order integration of the geodesic equation.

    Returns the n_steps+1 states including the initial one.  The step count
    is the caller's choice; speed is conserved to O((T/n_steps)^4) per unit
    time.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    _check_based_at(p0.to_group(), v0)

    h = T / n_steps
    state = np.array([p0.x, p0.y, p0.zeta, v0.a, v0.b, v0.c])
    path = [(p0, v0)]
    for _ in range(n_steps):
        k1 = _geodesic_rhs_state(state)
        k2 = _geodesic_rhs_state(state + 0.5 * h * k1)
        k3 = _geodesic_rhs_state(state + 0.5 * h * k2)
        k4 = _geodesic_rhs_state(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        pt = ChartPoint(state[0], state[1], state[2])
        path.append((pt, TangentVector(pt, state[3], state[4], state[5])))
    return path
