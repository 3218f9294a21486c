"""Correctness checks computed apart from the program.

Every reference value here comes from the benchmark's own arithmetic: a
Gauss-Legendre quadrature of the closed-form barrier derivative, the radial
minimal graph integrated from its flux first integral, an OBJ parser, and the
symmetries and bounds the discrete problems must have.  Nothing is compared
with a stored copy of earlier output.  Each check returns a list of failure
messages (empty when the check holds).
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
_GL_T, _GL_W = np.polynomial.legendre.leggauss(16)


def gauss_legendre(fn, a: float, b: float, panels: int = 1) -> float:
    """Composite 16-point Gauss-Legendre integral of a vectorised fn over [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    return float(np.sum(half * _GL_W * fn(mid + half * _GL_T)))


def warp(r):
    """g(r) = r sqrt(1 + r^2/8), the warp of the slice metric dr^2 + g^2 dtheta^2."""
    return r * np.sqrt(1.0 + r * r / 8.0)


# ---------------------------------------------------------------- exterior


def barrier_cap(s: float, alpha: float, r: float) -> float:
    """f(r) = int_0^r f' for the barrier with f'(0) = s and offset alpha."""
    if s == 0:
        return 0.0
    scale = s * (alpha**2 + 8.0) / math.exp(SQRT2 * alpha * math.atan(SQRT2 * alpha / 4.0))

    def fprime(t):
        w = t + alpha
        return scale * np.exp(SQRT2 * alpha * np.arctan(w / (2.0 * SQRT2))) / (w * w + 8.0)

    return gauss_legendre(fprime, 0.0, r, panels=max(8, int(4 * r)))


def radial_graph(s: float, r0: float, nodes: np.ndarray) -> np.ndarray:
    """Radial minimal graph with u(r0) = 0 and u'(r0) = s, at increasing nodes >= r0.

    The flux first integral g u' / sqrt(1 + u'^2) = c with c = s g(r0) / sqrt(1 + s^2)
    gives u' = c / sqrt(g^2 - c^2), integrated interval by interval.
    """
    c = s * warp(r0) / math.sqrt(1.0 + s * s)

    def slope(r):
        g = warp(r)
        return c / np.sqrt(g * g - c * c)

    steps = [gauss_legendre(slope, a, b) for a, b in zip(nodes[:-1], nodes[1:])]
    return np.concatenate([[0.0], np.cumsum(steps)])


def inner_gradient(u: np.ndarray, r: np.ndarray, dtheta: float) -> float:
    """Sup over the inner row of sqrt(u_r^2 + u_theta^2 / g^2).

    u_r is the derivative at r[0] of the quadratic through the first three
    rows; u_theta the periodic central difference.
    """
    x0, x1, x2 = r[:3]
    d0 = (2 * x0 - x1 - x2) / ((x0 - x1) * (x0 - x2))
    d1 = (x0 - x2) / ((x1 - x0) * (x1 - x2))
    d2 = (x0 - x1) / ((x2 - x0) * (x2 - x1))
    ur = d0 * u[0] + d1 * u[1] + d2 * u[2]
    ut = (np.roll(u[0], -1) - np.roll(u[0], 1)) / (2.0 * dtheta)
    return float(np.max(np.hypot(ur, ut / warp(x0))))


def check_exterior(sols: dict, r0: float, oracle, oracle_points) -> list[str]:
    """sols maps s to the ExteriorSolution of exterior_solve(s, r0, cfg)."""
    bad = []
    for s, sol in sols.items():
        for k, (m, grid, u) in enumerate(zip(sol.schedule, sol.grids, sol.fields)):
            grad = inner_gradient(u, grid.r, grid.dtheta)
            if not abs(grad - s) <= 1e-3:
                bad.append(f"exterior s={s} m={m}: boundary gradient {grad:.6g}")
            t_m = sol.t_trace[k]
            if not np.all(u[-1] == t_m):
                bad.append(f"exterior s={s} m={m}: outer row differs from t_m={t_m}")
            cap = barrier_cap(s, r0, m - r0)
            if not t_m <= cap + 1e-6:
                bad.append(f"exterior s={s} m={m}: t_m={t_m:.10g} above cap {cap:.10g}")
            if not np.all(np.isfinite(u)):
                bad.append(f"exterior s={s} m={m}: non-finite field")

    final = sols[1.0]
    r = final.grid.r
    ref = radial_graph(1.0, r0, r)
    window = (r >= 1.2) & (r <= 3.0)
    err = float(np.max(np.abs(final.u[window] - ref[window, None])))
    if not err <= 1e-3:
        bad.append(f"exterior s=1: {err:.3e} from the radial minimal graph on [1.2, 3]")

    ordered = sorted(sols)
    for lo, hi in zip(ordered, ordered[1:]):
        gap = float(np.min(sols[hi].u[1:-1] - sols[lo].u[1:-1]))
        if not gap > 0:
            bad.append(f"exterior: u_{lo} < u_{hi} fails at interior nodes (gap {gap:.3e})")

    h = oracle(final.u, final.grid, oracle_points)
    if not h <= 5e-3:
        bad.append(f"exterior s=1: 3-D mean curvature {h:.3e} above 5e-3")
    return bad


# -------------------------------------------------------------- asymptotic


def compact_sup_diff(grid_a, u_a, grid_b, u_b, r_max: float) -> float:
    """Sup of |u_a - u_b| on the nodes of grid_a with r <= r_max (u_b interpolated in r)."""
    rows = grid_a.r <= r_max
    other = np.column_stack(
        [np.interp(grid_a.r[rows], grid_b.r, u_b[:, j]) for j in range(u_b.shape[1])]
    )
    return float(np.max(np.abs(u_a[rows] - other)))


def check_asymptotic(cosine, lifted, const, phase_index: int, newton_tol: float,
                     compact_rmax: float, oracle, oracle_points) -> list[str]:
    """Data cos(theta - phi), cos(theta - phi) + 0.4 and 0.7 with phi = phase_index * dtheta."""
    bad = []
    for R, u in zip(const.radii, const.fields):
        err = float(np.max(np.abs(u - 0.7)))
        if not err <= newton_tol:
            bad.append(f"asymptotic R={R}: constant data off by {err:.3e}")

    slack = 10.0 * newton_tol
    for label, sol, lo, hi in (("cosine", cosine, -1.0, 1.0), ("lifted", lifted, -0.6, 1.4)):
        for R, u in zip(sol.radii, sol.fields):
            if not (u.min() >= lo - slack and u.max() <= hi + slack):
                bad.append(f"asymptotic {label} R={R}: range [{u.min()}, {u.max()}] breaks the maximum principle")

    n = cosine.fields[0].shape[1]
    j = np.arange(n)
    for R, u, v in zip(cosine.radii, cosine.fields, lifted.fields):
        shift = float(np.max(np.abs(v - (u + 0.4))))
        if not shift <= 1e-8:
            bad.append(f"asymptotic R={R}: lifted minus cosine differs from 0.4 by {shift:.3e}")
        odd = float(np.max(np.abs(u[:, (j + n // 2) % n] + u)))
        even = float(np.max(np.abs(u[:, (2 * phase_index - j) % n] - u)))
        if not (odd <= 1e-8 and even <= 1e-8):
            bad.append(f"asymptotic R={R}: symmetry defects odd {odd:.3e}, even {even:.3e}")

    diffs = [
        compact_sup_diff(ga, ua, gb, ub, compact_rmax)
        for ga, ua, gb, ub in zip(cosine.grids, cosine.fields, cosine.grids[1:], cosine.fields[1:])
    ]
    if not all(b < a for a, b in zip(diffs, diffs[1:])):
        bad.append(f"asymptotic: compact sup-differences do not decrease: {diffs}")

    for R, grid, u in zip(cosine.radii, cosine.grids, cosine.fields):
        h = oracle(u, grid, [(min(r, 0.75 * R), th) for r, th in oracle_points])
        if not h <= 5e-3:
            bad.append(f"asymptotic cosine R={R}: 3-D mean curvature {h:.3e} above 5e-3")
    return bad


# ---------------------------------------------------------------- geometry


def read_obj(path) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (n, 3) and zero-based triangle indices (m, 3) of an ASCII OBJ."""
    verts, faces = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                verts.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(x.split("/")[0]) - 1 for x in parts[1:]])
    return np.array(verts), np.array(faces, dtype=int)


def orientation_errors(faces: np.ndarray, n_verts: int) -> list[str]:
    """Each directed edge once at most; an edge shared by two faces runs both ways."""
    bad = []
    if faces.min() < 0 or faces.max() >= n_verts:
        bad.append("face index out of range")
    seen = set()
    for a, b, c in faces:
        for e in ((a, b), (b, c), (c, a)):
            if e in seen:
                bad.append(f"directed edge {e} used twice")
            seen.add(e)
    return bad[:5]


def catenoid_height(c: float, t0: float, t: float) -> float:
    """Chart offset h(t) = (c / sqrt 2) int_t0^t ds / sqrt(s^2 (s^2 + 8) - c^2).

    With a = t0_min^2 the quartic factors as (s^2 - a)(s^2 + a + 8); the
    substitution s = t0 + v^2 removes the neck singularity.
    """
    if t <= t0:
        return 0.0
    a = math.sqrt(c * c + 16.0) - 4.0
    delta = t0 * t0 - a

    def integrand(v):
        s = t0 + v * v
        return 2.0 * v / np.sqrt((v * v * (s + t0) + delta) * (s * s + a + 8.0))

    return c / SQRT2 * gauss_legendre(integrand, 0.0, math.sqrt(t - t0), panels=8)


def check_geometry(reports, obj_path, c: float, t0: float, tmax: float,
                   n_t: int, n_theta: int, rings) -> list[str]:
    bad = []
    verdicts = {r.claim_id: r.verdict for r in reports}
    passes = [k for k, v in verdicts.items() if v == "pass"]
    if len(reports) != 6 or len(passes) != 5 or verdicts.get("curvature-constant") != "discrepancy":
        bad.append(f"geometry: verdicts {verdicts}")
    k0 = -2.0 * (0.0 + 12.0) / (0.0 + 8.0) ** 2
    curv = [r for r in reports if r.claim_id == "curvature-constant"]
    if curv:
        origin = curv[0].values["oracle_value_at_origin"]
        if not abs(origin - k0) <= 1e-6:
            bad.append(f"geometry: curvature oracle at the origin {origin} != {k0}")

    verts, faces = read_obj(obj_path)
    if verts.shape != (n_t * n_theta, 3) or faces.shape != (2 * (n_t - 1) * n_theta, 3):
        bad.append(f"geometry: OBJ has {verts.shape} vertices, {faces.shape} faces")
        return bad
    bad += [f"geometry: OBJ {e}" for e in orientation_errors(faces, len(verts))]
    t_nodes = np.linspace(t0, tmax, n_t)
    angles = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    for i in rings:
        ring = verts[i * n_theta:(i + 1) * n_theta]
        rho = t_nodes[i] / SQRT2
        plane = max(
            float(np.max(np.abs(ring[:, 0] - rho * np.cos(angles)))),
            float(np.max(np.abs(ring[:, 1] - rho * np.sin(angles)))),
        )
        zeta = ring[:, 2] - ring[:, 0] * ring[:, 1] / 2.0
        height = float(np.max(np.abs(zeta - catenoid_height(c, t0, t_nodes[i]))))
        if not (plane <= 1e-12 and height <= 1e-8):
            bad.append(f"geometry: OBJ ring {i} off by {plane:.3e} in plane, {height:.3e} in height")
    return bad
