"""The benchmark workloads: inputs from a seed, operations, checks.

Each workload is a closed-loop, single-process batch: one pass runs its
operations one after the other, and the benchmark repeats whole passes.

* exterior   - exterior_solve(s, r0=1) for s in {0, 0.5, 1} at the acceptance
               settings (the outer-value search, barrier caps and warm-started,
               rotationally symmetric Newton solves), then the geometry the
               exhaustion rests on: run_claim_checks() and the catenoid OBJ
               export.
* asymptotic - asymptotic_solve on disks R in {8, 16, 32} for cos(theta - phi),
               cos(theta - phi) + 0.4 and the constant 0.7: cold-started,
               non-radial Newton solves with the zero-flux core and no search.

The geometry operations are not a workload of their own: alone, their pass
time moved by up to 1.6x with the load of the shared machine and no run
length fitting the benchmark's time made them steady (see README.md).

The seed picks the cosine phase phi (a whole number of grid steps 2 pi / 64),
the sample points of the 3-D mean-curvature oracle checks and the mesh rings
checked.  The solver and geometry inputs of `exterior` are fixed by the
method under test.
"""

from __future__ import annotations

import math
import os

import numpy as np

import checks

R0 = 1.0
S_VALUES = (0.0, 0.5, 1.0)
RADII = (8.0, 16.0, 32.0)
CATENOID = dict(c=3.0, t0=1.0, tmax=6.0, n_t=60, n_theta=64, tol=1e-10)


def mean_curvature_sup(u, grid, points) -> float:
    """Largest |H| of the graph of u over the sample points (r, theta), by the 3-D oracle."""
    from nil3lab import verify

    sample = verify.graph_embed(u, grid)
    return max(abs(verify.mean_curvature_residual(sample, p)) for p in points)


class Geometry:
    """Claim checks and the catenoid OBJ export; part of the `exterior` pass."""

    def __init__(self, seed: int, scratch: str):
        from nil3lab import meshio  # noqa: F401  (imported at set-up, not in the first pass)
        from nil3lab.radial import CatenoidParams

        self.params = CatenoidParams(CATENOID["c"], CATENOID["t0"])
        self.obj_path = os.path.join(scratch, "catenoid.obj")
        rng = np.random.default_rng(seed)
        self.rings = sorted(int(i) for i in rng.choice(CATENOID["n_t"], 8, replace=False))

    def _export(self):
        from nil3lab import meshio, verify

        sample = verify.catenoid_sample(self.params, CATENOID["tmax"], n_t=CATENOID["n_t"],
                                        n_theta=CATENOID["n_theta"], tol=CATENOID["tol"])
        meshio.export_mesh(sample, self.obj_path, fmt="obj")
        return self.obj_path

    def operations(self):
        from nil3lab import verify

        return [("run_claim_checks", lambda: verify.run_claim_checks()),
                ("catenoid export", self._export)]

    def check(self, outputs) -> list[str]:
        reports, path = outputs
        return checks.check_geometry(
            reports, path, CATENOID["c"], CATENOID["t0"], CATENOID["tmax"],
            CATENOID["n_t"], CATENOID["n_theta"], self.rings,
        )


class Exterior:
    name = "exterior"

    def __init__(self, seed: int, scratch: str):
        from nil3lab.solver import SolverConfig

        self.cfg = SolverConfig(
            n_r=256, n_theta=64, newton_tol=1e-10, schedule=(4.0, 8.0, 16.0, 32.0),
            bisection_tol=1e-4, grading=2.0,
        )
        rng = np.random.default_rng(seed)
        self.oracle_points = [
            (float(r), float(th))
            for r, th in zip(rng.uniform(2.0, 20.0, 20), rng.uniform(0.0, 2 * math.pi, 20))
        ]
        self.geometry = Geometry(seed, scratch)

    def operations(self):
        from nil3lab import solver

        solves = [(f"exterior_solve s={s}", lambda s=s: solver.exterior_solve(s, R0, self.cfg))
                  for s in S_VALUES]
        return solves + self.geometry.operations()

    def check(self, outputs) -> list[str]:
        sols = dict(zip(S_VALUES, outputs))
        return (checks.check_exterior(sols, R0, mean_curvature_sup, self.oracle_points)
                + self.geometry.check(outputs[len(S_VALUES):]))


class Asymptotic:
    name = "asymptotic"

    def __init__(self, seed: int, scratch: str):
        from nil3lab.solver import SolverConfig
        from nil3lab.surface import BoundaryData

        self.cfg = SolverConfig(n_r=256, n_theta=64, newton_tol=1e-10, r_core=0.02,
                                compact_rmax=4.0)
        rng = np.random.default_rng(seed)
        self.phase_index = int(rng.integers(self.cfg.n_theta))
        phi = self.phase_index * 2.0 * math.pi / self.cfg.n_theta
        self.data = [
            BoundaryData.cosine(1.0, 1, phase=phi),
            BoundaryData(lambda th: np.cos(np.asarray(th) - phi) + 0.4),
            BoundaryData.constant(0.7),
        ]
        self.oracle_points = [
            (float(r), float(th))
            for r, th in zip(rng.uniform(0.5, 6.0, 12), rng.uniform(0.0, 2 * math.pi, 12))
        ]

    def operations(self):
        from nil3lab import solver

        names = ("cosine", "cosine+0.4", "constant 0.7")
        return [(f"asymptotic_solve {n}", lambda d=d: solver.asymptotic_solve(d, self.cfg, radii=RADII))
                for n, d in zip(names, self.data)]

    def check(self, outputs) -> list[str]:
        cosine, lifted, const = outputs
        return checks.check_asymptotic(
            cosine, lifted, const, self.phase_index, self.cfg.newton_tol,
            self.cfg.compact_rmax, mean_curvature_sup, self.oracle_points,
        )


WORKLOADS = {cls.name: cls for cls in (Exterior, Asymptotic)}
