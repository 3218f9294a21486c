"""Fast self-test of the benchmark's tracing on small grids (a few seconds).

    python3 perfbench/selftest.py

Checks, on today's solver, that the Newton steps counted from the
``nil3lab.solver`` logger equal the Jacobian builds and the linear solves,
that every span lies inside its parent, that calls are counted whichever
module binds the traced name, that a seam which no longer exists reports
zero calls without failing, and that uninstalling restores every binding.
Exits with 1 and names the failures if any check does not hold.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import SEAMS, Tracer  # noqa: E402

import nil3lab  # noqa: E402
from nil3lab import solver, surface, verify  # noqa: E402


def traced(fn, seams=SEAMS):
    tracer = Tracer(seams)
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer


def main() -> int:
    failures = []
    cfg = solver.SolverConfig(n_r=33, n_theta=16, schedule=(3.0, 5.0), bisection_tol=1e-3)
    bindings = {name: getattr(solver, name) for name in ("dirichlet_solve", "spsolve", "barrier_f")}

    runs = {
        "exterior": lambda: solver.exterior_solve(1.0, 1.0, cfg),
        "asymptotic": lambda: solver.asymptotic_solve(
            surface.BoundaryData.cosine(1.0), cfg, radii=(4.0, 8.0)),
    }
    for name, fn in runs.items():
        tr = traced(fn)
        m = tr.layer_metrics()
        counts = (m["solver.newton_steps"], m["solver.jacobian.calls"], m["solver.linsolve.calls"])
        if not (counts[0] > 0 and len(set(counts)) == 1):
            failures.append(f"{name}: newton steps, jacobians, linear solves = {counts}")
        failures += [f"{name}: {e}" for e in tr.nesting_errors()]
        if name == "exterior" and not m["solver.outer_evals_per_m"] > 0:
            failures.append("exterior: no outer-value evaluations counted")

    # christoffel_closed_form reached through verify's and surface's own bindings
    sample = verify.slice_sample()
    tr = traced(lambda: (verify.mean_curvature_residual(sample, (0.5, 0.5)),
                         surface.gaussian_curvature_riemann(surface.SurfacePoint(0.3, 0.1))))
    via_verify = 1
    via_surface = 7  # connection, two coefficient columns, four differences of them
    got = tr.layer_metrics()["nilcore.christoffel_closed_form.calls"]
    if got != via_verify + via_surface:
        failures.append(f"christoffel calls {got}, expected {via_verify + via_surface}")

    # a seam that has gone: zero calls, no failure
    gone = [seam if seam[0] != "solver.jacobian" else (seam[0], seam[1], "_no_such_seam", True, None)
            for seam in SEAMS]
    tr = traced(runs["asymptotic"], gone)
    m = tr.layer_metrics()
    if m["solver.jacobian.calls"] != 0 or "solver.jacobian" not in tr.missing:
        failures.append("a missing seam did not report zero calls")
    if not m["solver.linsolve.calls"] > 0:
        failures.append("tracing stopped after a missing seam")

    for name, fn in bindings.items():
        if getattr(solver, name) is not fn:
            failures.append(f"uninstall left solver.{name} patched")
    if nil3lab.christoffel_closed_form is not nil3lab.nilcore.christoffel_closed_form:
        failures.append("uninstall left a package binding patched")

    for msg in failures:
        print(f"FAIL {msg}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
