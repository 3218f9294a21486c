"""Command-line surface.

Subcommands: geodesic, curvature, catenoid, barrier, exterior, asymptotic,
verify, export.  Every run echoes its fully resolved configuration before
doing work; all numeric output is deterministic given the configuration.

Exit codes: 0 success, 1 solver failure, 2 usage error.  The only
environment variable honored is NIL3LAB_LOG (logging level name) for the
verbosity of solver diagnostics.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

import numpy as np

from . import meshio, radial, solver, surface, verify
from .nilcore import ChartPoint, TangentVector, integrate_geodesic


def _echo_config(args: argparse.Namespace, cfg=None) -> None:
    print("# resolved configuration")
    for key, val in sorted(vars(args).items()):
        if key in ("func",):
            continue
        print(f"{key} = {val}")
    if cfg is not None:
        for line in cfg.to_lines():
            print(line)
    print("#")


def _solver_config(args) -> solver.SolverConfig:
    if getattr(args, "config", None):
        cfg = solver.SolverConfig.from_file(args.config)
    else:
        cfg = solver.SolverConfig()
    overrides = {}
    for name in ("n_r", "n_theta"):
        val = getattr(args, name, None)
        if val is not None:
            overrides[name] = val
    if getattr(args, "schedule", None):
        overrides["schedule"] = tuple(float(x) for x in args.schedule.split(","))
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
    return cfg


def _cmd_geodesic(args) -> int:
    _echo_config(args)
    gp = surface.geodesic_closed_form(args.theta, args.t)
    unit = surface.geodesic_closed_form(args.theta, 1.0).point  # the launch velocity
    v0 = TangentVector(ChartPoint(0.0, 0.0, 0.0), unit.x, unit.y, 0.0)
    path = integrate_geodesic(ChartPoint(0.0, 0.0, 0.0), v0, args.t, args.steps)
    x, y, zeta = path[-1, :3]
    err = max(abs(x - gp.point.x), abs(y - gp.point.y), abs(zeta))
    print(f"closed form endpoint: x={gp.point.x:.12g} y={gp.point.y:.12g} z={gp.z:.12g}")
    print(f"integrated endpoint:  x={x:.12g} y={y:.12g} zeta={zeta:.12g}")
    print(f"closed-form vs integrated: {err:.3e}")
    print(f"distance identity r = |t|: r={surface.distance_to_identity(gp.point):.12g}")
    return 0


def _cmd_curvature(args) -> int:
    _echo_config(args)
    radii = np.array([float(x) for x in args.r.split(",")])
    p = surface.PolarCoord(radii, 0.0).to_surface_point()
    k_fd = surface.gaussian_curvature_riemann(p)
    cands = surface.curvature_closed_forms(p)
    print("r  K_connection_fd  K_warp_closed  K_doubled_candidate")
    for r, k, k_warp, k_doubled in zip(radii, k_fd, cands.k_warp, cands.k_doubled):
        print(f"{r:g}  {k:.10g}  {k_warp:.10g}  {k_doubled:.10g}")
    print(
        "adjudication: oracles agree with the single-warp value to "
        f"{np.max(np.abs(k_fd - cands.k_warp)):.2e}; "
        "the doubled candidate is inconsistent with the connection data (discrepancy)"
    )
    return 0


def _catenoid_params(args) -> radial.CatenoidParams:
    params = radial.CatenoidParams(args.c, args.t0)
    if not params.t0 < args.tmax < math.inf:
        raise ValueError(f"--tmax={args.tmax:g} must be finite and above the neck --t0={args.t0:g}")
    return params


def _cmd_catenoid(args) -> int:
    _echo_config(args)
    params = _catenoid_params(args)
    if args.samples < 2:
        raise ValueError("--samples must be at least 2: a profile needs two nodes")
    t_nodes = np.linspace(params.t0, args.tmax, args.samples)
    prof = radial.catenoid_profile(params, t_nodes, tol=args.tol)
    heights = surface.CenterElement.from_arc_length(prof.value).t  # chart offsets
    flux_lo = radial.catenoid_flux_check(params, params.t0 + 0.25 * (args.tmax - params.t0))
    flux_hi = radial.catenoid_flux_check(params, args.tmax)
    print(f"neck minimum t0_min(c) = {radial.t0_min(args.c):.12g}")
    print(f"flux constant c/(2 sqrt 2) = {prof.flux:.12g}")
    print(f"flux check at two radii: {flux_lo:.12g}, {flux_hi:.12g}")
    print(f"height at tmax (chart offset): {heights[-1]:.12g}")
    if args.export_csv:
        meshio.export_csv({"t": prof.r, "h": heights, "uprime": prof.deriv}, args.export_csv)
        print(f"wrote {args.export_csv}")
    if args.export_obj:
        sample = verify.catenoid_sample(params, args.tmax, n_t=args.samples, tol=args.tol)
        meshio.export_mesh(sample, args.export_obj, fmt="obj")
        print(f"wrote {args.export_obj}")
    return 0


def _cmd_barrier(args) -> int:
    _echo_config(args)
    params = radial.BarrierParams(s=args.s, alpha=args.alpha)
    if not (0 < args.rmax < math.inf and 0 < args.step < math.inf):
        raise ValueError("--rmax and --step must be finite and positive")
    if args.step > args.rmax:
        raise ValueError("--step must not exceed --rmax: a profile needs two nodes")
    r_nodes = np.arange(0.0, args.rmax + 0.5 * args.step, args.step)
    prof = radial.barrier_profile(params, r_nodes)
    bound = radial.barrier_sup_bound(params)
    residual = np.max(np.abs(radial.barrier_ode_residual(params, r_nodes[1:])))
    report = radial.subsolution_check(params, args.alpha, r_nodes[1:])
    print(f"normalization f'(0) = {radial.barrier_fprime(params, 0.0):.12g} (target s={args.s:g})")
    print(f"sup bound: {bound:.12g}; f(rmax) = {prof.value[-1]:.12g}")
    print(f"max |ode residual| on (0, rmax]: {residual:.3e}")
    print(
        f"subsolution: min operator value {report.min_operator:.3e}, "
        f"min curvature-bound margin {report.min_margin:.6g}"
    )
    if args.export_csv:
        meshio.export_csv(prof, args.export_csv)
        print(f"wrote {args.export_csv}")
    return 0


def _cmd_exterior(args) -> int:
    cfg = _solver_config(args)
    _echo_config(args, cfg)
    sol = solver.exterior_solve(args.s, args.r0, cfg)
    for k, m in enumerate(sol.schedule):
        print(
            f"m={m:g}: t_m={sol.t_trace[k]:.8g} barrier_cap={sol.barrier_caps[k]:.8g} "
            f"gradient={sol.boundary_gradients[k]:.6g}"
        )
    for k, d in enumerate(sol.cauchy):
        print(f"cauchy sup-diff m={sol.schedule[k]:g}->{sol.schedule[k + 1]:g}: {d:.3e}")
    if args.export_csv:
        meshio.export_csv({"r": sol.grid.r, "u": sol.u[:, 0]}, args.export_csv)
        print(f"wrote {args.export_csv}")
    return 0


def _cmd_asymptotic(args) -> int:
    cfg = _solver_config(args)
    _echo_config(args, cfg)
    if args.constant is not None:
        phi = surface.BoundaryData.constant(args.constant)
    else:
        phi = surface.BoundaryData.cosine(amplitude=args.amplitude, mode=args.mode)
    sol = solver.asymptotic_solve(phi, cfg)
    for rad, u in zip(sol.radii, sol.fields):
        print(f"R={rad:g}: min={u.min():.8g} max={u.max():.8g}")
    for k, d in enumerate(sol.sup_diffs):
        print(
            f"sup-diff on r<= {sol.compact_rmax:g} for R {sol.radii[k]:g}->{sol.radii[k + 1]:g}: {d:.3e}"
        )
    return 0


def _cmd_verify(args) -> int:
    _echo_config(args)
    reports = verify.run_claim_checks(args.tol)
    print(verify.claims_table(reports))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(verify.claims_to_json(reports) + "\n")
        print(f"wrote {args.json}")
    return 0


def _cmd_export(args) -> int:
    _echo_config(args)
    if min(args.nu, args.nv) < 2:
        raise ValueError("--nu and --nv must be at least 2: a mesh needs two samples per direction")
    if args.surface == "tplane":
        if not 0 < args.extent < math.inf:
            raise ValueError(f"--extent={args.extent:g} must be finite and positive")
        sample = verify.slice_sample(extent=args.extent, n=args.nu, n_v=args.nv)
    elif args.surface == "catenoid":
        if args.nv < 3:
            raise ValueError(f"--nv={args.nv} must be at least 3 for --surface catenoid: "
                             "the angle closes up, and two angles would cover each quad twice")
        sample = verify.catenoid_sample(
            _catenoid_params(args), args.tmax, n_t=args.nu, n_theta=args.nv
        )
    else:
        raise ValueError(f"unknown surface {args.surface!r}")
    fmt = "ply" if args.ply else "obj"
    path = args.ply or args.obj
    meshio.export_mesh(sample, path, fmt=fmt)
    print(f"wrote {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="nil3lab",
        description="Geometry and minimal-surface solver laboratory for Nil3 with the balanced metric",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geodesic", help="closed-form vs integrated radial geodesics")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=1000)
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("curvature", help="curvature oracles and the adjudication verdict")
    p.add_argument("--r", type=str, default="0,1,2,5")
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("catenoid", help="catenoid profile, flux check, exports")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--tmax", type=float, default=6.0)
    p.add_argument("--samples", type=int, default=60)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--export-obj", type=str, default=None)
    p.add_argument("--export-csv", type=str, default=None)
    p.set_defaults(func=_cmd_catenoid)

    p = sub.add_parser("barrier", help="radial barrier profile and subsolution report")
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--rmax", type=float, default=30.0)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--export-csv", type=str, default=None)
    p.set_defaults(func=_cmd_barrier)

    p = sub.add_parser("exterior", help="exterior Dirichlet exhaustion")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--r0", type=float, default=1.0)
    p.add_argument("--schedule", type=str, default=None)
    p.add_argument("--n-r", dest="n_r", type=int, default=None)
    p.add_argument("--n-theta", dest="n_theta", type=int, default=None)
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--export-csv", type=str, default=None)
    p.set_defaults(func=_cmd_exterior)

    p = sub.add_parser("asymptotic", help="truncated-disk solves for angular data at infinity")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--mode", type=int, default=1)
    p.add_argument("--constant", type=float, default=None)
    p.add_argument("--schedule", type=str, default=None)
    p.add_argument("--n-r", dest="n_r", type=int, default=None)
    p.add_argument("--n-theta", dest="n_theta", type=int, default=None)
    p.add_argument("--config", type=str, default=None)
    p.set_defaults(func=_cmd_asymptotic)

    p = sub.add_parser("verify", help="claim-by-claim verification report")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--json", type=str, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export", help="mesh export of built-in surfaces")
    p.add_argument("--surface", choices=("tplane", "catenoid"), default="tplane")
    p.add_argument("--extent", type=float, default=3.0)
    p.add_argument("--nu", type=int, default=10)
    p.add_argument("--nv", type=int, default=10)
    p.add_argument("--c", type=float, default=3.0)
    p.add_argument("--t0", type=float, default=1.0)
    p.add_argument("--tmax", type=float, default=6.0)
    out = p.add_mutually_exclusive_group(required=True)
    out.add_argument("--obj", type=str, default=None)
    out.add_argument("--ply", type=str, default=None)
    p.set_defaults(func=_cmd_export)

    return top


def main(argv=None) -> int:
    level = os.environ.get("NIL3LAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (solver.SolverError, radial.QuadratureError, radial.NoAdmissibleFluxError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
