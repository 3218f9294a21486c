"""Group algebra of Nil3 and the balanced-metric connection engine.

Matrix coordinates (x, y, z) label the unipotent matrix [[1, x, z], [0, 1, y],
[0, 0, 1]]; all group algebra happens there.  Differential geometry happens in
the graph chart (x, y, zeta) -> (x, y, x*y/2 + zeta), whose coordinate frame
{X, Y, Z} carries every tensor in this package.

The balanced metric at g is the flat inner product on strictly upper
triangular matrices pulled back through both the left and the right
translation by g^-1 and then summed.  `balanced_metric_form` implements that
defining construction once, on arrays of points; the frame metric
`frame_metric_from_translations`, the inner product
`balanced_metric_from_translations` and the finite-difference Koszul oracle
`christoffel_from_metric` all evaluate it.  It and the closed-form
coefficients (`metric_closed_form`) are implemented independently so each can
certify the other; the same goes for the connection (`christoffel_closed_form`
vs `christoffel_from_metric`).  Points and coefficients may hold numpy arrays
of one shape in place of floats; the functions then broadcast over them.
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
    "balanced_metric_form",
    "frame_metric_from_translations",
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
        """The (3, 3) matrix, or (..., 3, 3) when the coordinates are arrays."""
        x, y, z = np.broadcast_arrays(self.x, self.y, self.z)
        m = np.zeros(x.shape + (3, 3))
        m[..., 0, 0] = m[..., 1, 1] = m[..., 2, 2] = 1.0
        m[..., 0, 1], m[..., 1, 2], m[..., 0, 2] = x, y, z
        return m

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
        return np.stack(np.broadcast_arrays(self.a, self.b, vz), axis=-1)


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
        """The (3, 3) coefficient matrix, or (..., 3, 3) when the coefficients are arrays."""
        xx, yy, zz, xy, xz, yz = np.broadcast_arrays(
            self.exx, self.eyy, self.ezz, self.exy, self.exz, self.eyz
        )
        return np.stack([xx, xy, xz, xy, yy, yz, xz, yz, zz], axis=-1).reshape(xx.shape + (3, 3))

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
        return np.einsum("...kij,...i,...j->...k", self.gamma, u, v)


# Strictly upper triangular matrices of the unit matrix velocities (x, y, z),
# and the (row, column) of each entry, which read the flat components back.
_ROWS, _COLS = (0, 1, 0), (1, 2, 2)
_VELOCITY_BASIS = np.zeros((3, 3, 3))
_VELOCITY_BASIS[(0, 1, 2), _ROWS, _COLS] = 1.0


def _check_based_at(g: GroupElement, *vectors: TangentVector) -> None:
    gm = (g.x, g.y, g.z)
    for v in vectors:
        h = v.base.to_group()
        err = max(abs(h.x - gm[0]), abs(h.y - gm[1]), abs(h.z - gm[2]))
        scale = 1.0 + max(abs(gm[0]), abs(gm[1]), abs(gm[2]))
        if err > 1e-9 * scale:
            raise ValueError("tangent vector is not based at g (base-point mismatch)")


def balanced_metric_form(g: GroupElement) -> np.ndarray:
    """The balanced metric at g as a form on matrix velocities, from its definition.

    Each unit matrix velocity is pulled back to the identity through the left
    and through the right translation by g^-1 (exact matrix products), and
    the two flat inner products are summed.  Returns (3, 3), or (..., 3, 3)
    when the coordinates of g are arrays.
    """
    gi = inverse(g).as_matrix()[..., None, :, :]
    left = (gi @ _VELOCITY_BASIS)[..., _ROWS, _COLS]
    right = (_VELOCITY_BASIS @ gi)[..., _ROWS, _COLS]
    return left @ np.swapaxes(left, -1, -2) + right @ np.swapaxes(right, -1, -2)


def frame_metric_from_translations(p: ChartPoint) -> np.ndarray:
    """`balanced_metric_form` at p on the frame {X, Y, Z}: (3, 3) or (..., 3, 3)."""
    frame = np.stack([TangentVector(p, *e).matrix_velocity() for e in np.eye(3)], axis=-2)
    return frame @ balanced_metric_form(p.to_group()) @ np.swapaxes(frame, -1, -2)


def balanced_metric_from_translations(
    g: GroupElement, u: TangentVector, v: TangentVector
) -> float:
    """Inner product of u and v at g: `balanced_metric_form` on their matrix velocities.

    Agrees with `metric_closed_form` to machine precision.
    """
    _check_based_at(g, u, v)
    return float(u.matrix_velocity() @ balanced_metric_form(g) @ v.matrix_velocity())


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


def _christoffel_xy(x: float, y: float) -> tuple[float, float, float, float, float, float]:
    """The six distinct nonzero connection coefficients at chart (x, y).

    In the order Gamma^X_XX, Gamma^Y_XX, Gamma^X_XY, Gamma^Y_XY, Gamma^X_YY,
    Gamma^Y_YY (the connection is torsion free, so Gamma^k_YX = Gamma^k_XY).
    """
    den = 2.0 * x * x + 2.0 * y * y + 8.0
    return (
        -x * y * y / den,
        -(4.0 * y + y**3) / den,
        y * (2.0 + x * x) / den,
        x * (2.0 + y * y) / den,
        -(4.0 * x + x**3) / den,
        -x * x * y / den,
    )


def christoffel_closed_form(p: ChartPoint) -> ChristoffelAtPoint:
    """Connection coefficients in closed form: gamma is (3, 3, 3), or (..., 3, 3, 3).

    Every coefficient carrying a Z index vanishes (Z is a parallel field) and
    the whole tensor vanishes at the origin.
    """
    xxx, yxx, xxy, yxy, xyy, yyy = np.broadcast_arrays(*_christoffel_xy(p.x, p.y))
    gam = np.zeros(xxx.shape + (3, 3, 3))
    gam[..., 0, 0, 0] = xxx
    gam[..., 1, 0, 0] = yxx
    gam[..., 0, 0, 1] = gam[..., 0, 1, 0] = xxy
    gam[..., 1, 0, 1] = gam[..., 1, 1, 0] = yxy
    gam[..., 0, 1, 1] = xyy
    gam[..., 1, 1, 1] = yyy
    return ChristoffelAtPoint(gam)


def christoffel_from_metric(p: ChartPoint, h: float = 1e-4) -> ChristoffelAtPoint:
    """Koszul-formula oracle: central differences of `frame_metric_from_translations`.

    Independent of `christoffel_closed_form`; agreement is O(h^2).  gamma is
    (3, 3, 3), or (..., 3, 3, 3) when the coordinates of p are arrays.
    """
    if h <= 0:
        raise ValueError("finite-difference step h must be positive")
    base = np.stack(np.broadcast_arrays(p.x, p.y, p.zeta), axis=-1)
    shifted = base[..., None, :] + np.concatenate([h * np.eye(3), -h * np.eye(3)])
    gm = frame_metric_from_translations(ChartPoint(*np.moveaxis(shifted, -1, 0)))
    dg = (gm[..., :3, :, :] - gm[..., 3:, :, :]) / (2.0 * h)  # dg[..., l] = d g / d coord_l
    ginv = np.linalg.inv(frame_metric_from_translations(p))
    gamma = 0.5 * (
        np.einsum("...kl,...ilj->...kij", ginv, dg)
        + np.einsum("...kl,...jli->...kij", ginv, dg)
        - np.einsum("...kl,...lij->...kij", ginv, dg)
    )
    return ChristoffelAtPoint(gamma)


def frame_norm(p: ChartPoint, u) -> float:
    return math.sqrt(metric_closed_form(p).inner(u, u))


def _acceleration(x: float, y: float, a: float, b: float) -> tuple[float, float]:
    """X and Y components of -Gamma^k_{ij} v^i v^j for v = (a, b, c).

    The Z component is 0 and c drops out, because every coefficient with a Z
    index vanishes.  The terms are summed in the (i, j) order of
    `ChristoffelAtPoint.apply`, so the two agree bit for bit (up to the sign
    of a zero sum).
    """
    xxx, yxx, xxy, yxy, xyy, yyy = _christoffel_xy(x, y)
    return (
        -(xxx * a * a + xxy * a * b + xxy * b * a + xyy * b * b),
        -(yxx * a * a + yxy * a * b + yxy * b * a + yyy * b * b),
    )


def geodesic_ode_rhs(p: ChartPoint, v: TangentVector) -> TangentVector:
    """Acceleration -Gamma^k_{ij} v^i v^j of the geodesic equation at (p, v)."""
    _check_based_at(p.to_group(), v)
    ax, ay = _acceleration(p.x, p.y, v.a, v.b)
    return TangentVector(p, ax, ay, 0.0)


def integrate_geodesic(
    p0: ChartPoint, v0: TangentVector, T: float, n_steps: int
) -> np.ndarray:
    """Fixed-step classical 4th-order integration of the geodesic equation.

    Returns an (n_steps + 1, 6) array whose rows are the states
    (x, y, zeta, a, b, c) at the times k*T/n_steps, the initial state first:
    the chart point and the frame components of the velocity.  The step
    count is the caller's choice; speed is conserved to O((T/n_steps)^4) per
    unit time.  c is constant (Z is parallel in the closed-form connection),
    so zeta stays exactly 0 on slice-tangent launches by construction,
    whatever the metric; they are no evidence of a totally geodesic slice.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    _check_based_at(p0.to_group(), v0)

    h = T / n_steps
    h2 = 0.5 * h
    h6 = h / 6.0
    x, y, z = float(p0.x), float(p0.y), float(p0.zeta)
    a, b, c = float(v0.a), float(v0.b), float(v0.c)
    dz = h6 * (c + 2.0 * c + 2.0 * c + c)  # zeta' = c is constant
    rows = [(x, y, z, a, b, c)]
    for _ in range(n_steps):
        a1, b1 = _acceleration(x, y, a, b)
        xa, ya, aa, ba = x + h2 * a, y + h2 * b, a + h2 * a1, b + h2 * b1
        a2, b2 = _acceleration(xa, ya, aa, ba)
        xb, yb, ab, bb = x + h2 * aa, y + h2 * ba, a + h2 * a2, b + h2 * b2
        a3, b3 = _acceleration(xb, yb, ab, bb)
        xc, yc, ac, bc = x + h * ab, y + h * bb, a + h * a3, b + h * b3
        a4, b4 = _acceleration(xc, yc, ac, bc)
        x += h6 * (a + 2.0 * aa + 2.0 * ab + ac)
        y += h6 * (b + 2.0 * ba + 2.0 * bb + bc)
        a += h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        b += h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        z += dz
        rows.append((x, y, z, a, b, c))
    return np.array(rows)
