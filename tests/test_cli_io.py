import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nil3lab import meshio, verify as vf
from nil3lab import radial as rd
from nil3lab.cli import main


def test_slice_mesh_counts():
    sample = vf.slice_sample(extent=3.0, n=10)
    verts, faces = meshio.surface_mesh(sample)
    assert len(verts) == 100
    assert len(faces) == 162  # 2 * 9 * 9
    meshio.check_mesh(verts, faces)


def test_periodic_mesh_seam_identified(monkeypatch):
    params = rd.CatenoidParams(3.0, 1.0)
    calls = []
    heights = rd.FluxGraph.heights
    monkeypatch.setattr(rd.FluxGraph, "heights",
                        lambda graph, r, tol: calls.append(list(r)) or heights(graph, r, tol))
    sample = vf.catenoid_sample(params, 4.0, n_t=8, n_theta=12)
    verts, faces = meshio.surface_mesh(sample)
    monkeypatch.undo()
    # the ring heights come from one profile pass, not one quadrature per ring
    assert calls == [sample.u_grid.tolist()]
    ring_heights = rd.catenoid_profile(params, sample.u_grid, 1e-13).value / np.sqrt(2.0)
    offsets = verts[:, 2] - verts[:, 0] * verts[:, 1] / 2.0
    assert np.max(np.abs(offsets - np.repeat(ring_heights, 12))) <= 1e-15
    assert len(verts) == 8 * 12
    assert len(faces) == 2 * 7 * 12  # closed strip in the angular direction
    meshio.check_mesh(verts, faces)


def test_check_mesh_rejects_bad_input():
    verts = np.zeros((3, 3))
    with pytest.raises(meshio.MeshValidationError):
        meshio.check_mesh(verts, np.array([[0, 1, 5]]))
    with pytest.raises(meshio.MeshValidationError):
        meshio.check_mesh(verts, np.array([[0, 1, 1]]))
    # same edge traversed twice in the same direction = inconsistent orientation
    with pytest.raises(meshio.MeshValidationError):
        meshio.check_mesh(np.zeros((4, 3)), np.array([[0, 1, 2], [0, 1, 3]]))
    # (0,1) is met before the repeated (1,0): the repeat is still the error named
    with pytest.raises(meshio.MeshValidationError, match=r"edge \(1,0\) traversed twice"):
        meshio.check_mesh(np.zeros((5, 3)), np.array([[0, 1, 2], [1, 0, 3], [1, 0, 4]]))


def test_check_mesh_accepts_an_empty_face_array():
    meshio.check_mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))


def test_periodic_mesh_seam_faces_and_their_orientation():
    # n_u = 2, n_v = 3, closed in v: the seam joins column 2 back to column 0
    sample = vf.SurfaceSample(vf.slice_sample().jet, np.arange(2.0), np.arange(3.0),
                              periodic_v=True)
    verts, faces = meshio.surface_mesh(sample)
    assert faces.tolist() == [[0, 3, 4], [0, 4, 1], [1, 4, 5], [1, 5, 2], [2, 5, 3], [2, 3, 0]]
    faces[-1] = faces[-1][::-1]
    with pytest.raises(meshio.MeshValidationError):
        meshio.check_mesh(verts, faces)
    # two samples around a closed v-direction would give each quad twice
    sample.v_grid = np.arange(2.0)
    with pytest.raises(meshio.MeshValidationError, match="at least 3 samples, got 2"):
        meshio.surface_mesh(sample)


_SLICE_OBJ = """\
# nil3lab surface mesh, matrix coordinates (x, y, z entries)
v -1 -1 0.5
v -1 0 0
v -1 1 -0.5
v 0 -1 0
v 0 0 0
v 0 1 0
v 1 -1 -0.5
v 1 0 0
v 1 1 0.5
f 1 4 5
f 1 5 2
f 2 5 6
f 2 6 3
f 4 7 8
f 4 8 5
f 5 8 9
f 5 9 6
"""

_SLICE_PLY = """\
ply
format ascii 1.0
comment nil3lab surface mesh, matrix coordinates (x, y, z entries)
element vertex 9
property double x
property double y
property double z
property double quality
element face 8
property list uchar int vertex_indices
end_header
-1 -1 0.5 0
-1 0 0 0.25
-1 1 -0.5 0.5
0 -1 0 0.75
0 0 0 1
0 1 0 1.25
1 -1 -0.5 1.5
1 0 0 1.75
1 1 0.5 2
3 0 3 4
3 0 4 1
3 1 4 5
3 1 5 2
3 3 6 7
3 3 7 4
3 4 7 8
3 4 8 5
"""


def test_export_writes_the_exact_obj_and_ply_text(tmp_path):
    # the slice zeta = 0 in matrix coordinates is z = x y / 2
    sample = vf.slice_sample(extent=1.0, n=3)
    meshio.export_mesh(sample, tmp_path / "s.obj", fmt="obj")
    assert (tmp_path / "s.obj").read_bytes() == _SLICE_OBJ.encode()
    meshio.export_mesh(sample, tmp_path / "s.ply", fmt="ply", scalar=np.arange(9.0) / 4)
    assert (tmp_path / "s.ply").read_bytes() == _SLICE_PLY.encode()


def test_catenoid_obj_has_the_format_template_bytes_and_reads_back_exactly(tmp_path):
    # the benchmark's 60 x 64 catenoid, against the "{:.17g}" / "{}" template
    sample = vf.catenoid_sample(rd.CatenoidParams(3.0, 1.0), 6.0, n_t=60, n_theta=64, tol=1e-10)
    meshio.export_mesh(sample, tmp_path / "c.obj", fmt="obj")
    verts, faces = meshio.surface_mesh(sample)
    lines = ["# nil3lab surface mesh, matrix coordinates (x, y, z entries)"]
    lines += ["v {:.17g} {:.17g} {:.17g}".format(*row) for row in verts.tolist()]
    lines += ["f {} {} {}".format(*row) for row in (faces + 1).tolist()]
    text = (tmp_path / "c.obj").read_text()
    assert text.encode() == ("\n".join(lines) + "\n").encode()
    back = [[float(x) for x in line.split()[1:]] for line in text.splitlines() if line[0] == "v"]
    assert np.array_equal(np.array(back), verts)


def test_export_rejects_an_unknown_format_before_triangulating(tmp_path):
    calls = []
    jet = vf.slice_sample().jet
    sample = vf.SurfaceSample(lambda uu, vv: calls.append(1) or jet(uu, vv),
                              np.arange(3.0), np.arange(3.0))
    with pytest.raises(ValueError, match="unknown mesh format"):
        meshio.export_mesh(sample, tmp_path / "c.xyz", fmt="xyz")
    assert calls == []
    assert not (tmp_path / "c.xyz").exists()


def test_export_obj_and_ply_stable_bytes(tmp_path):
    sample = vf.slice_sample(extent=2.0, n=5)
    p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
    meshio.export_mesh(sample, p1, fmt="obj")
    meshio.export_mesh(sample, p2, fmt="obj")
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.count("\nf ") == 32  # 2 * 4 * 4
    assert "matrix coordinates" in text

    ply = tmp_path / "a.ply"
    scalar = np.arange(25.0)
    meshio.export_mesh(sample, ply, fmt="ply", scalar=scalar)
    content = ply.read_text()
    assert "property double quality" in content
    assert content.startswith("ply\nformat ascii 1.0\n")
    with pytest.raises(ValueError):
        meshio.export_mesh(sample, tmp_path / "c.xyz", fmt="xyz")
    with pytest.raises(ValueError):
        meshio.export_mesh(sample, tmp_path / "d.ply", fmt="ply", scalar=np.arange(3.0))


def test_csv_round_trip_is_exact(tmp_path):
    params = rd.BarrierParams(1.0, 1.0)
    nodes = np.arange(0.0, 30.0 + 0.05, 0.1)
    prof = rd.barrier_profile(params, nodes)
    path = tmp_path / "barrier.csv"
    meshio.export_csv({"r": prof.r, "f": prof.value, "fprime": prof.deriv}, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,f,fprime"
    assert len(lines) == 302  # header + 301 records
    back = meshio.read_csv(path)
    assert np.array_equal(back["r"], prof.r)
    assert np.array_equal(back["f"], prof.value)
    assert np.array_equal(back["fprime"], prof.deriv)


def test_graph_mesh_with_residual_channel(tmp_path):
    # graph of a converged exterior field, exported with per-vertex |residual|
    import numpy as np
    from nil3lab import solver as sv

    cfg = sv.SolverConfig(n_r=24, n_theta=12, newton_tol=1e-10, schedule=(3.0,),
                          bisection_tol=1e-3)
    sol = sv.exterior_solve(0.4, 1.0, cfg)
    sample = vf.graph_embed(sol.u, sol.grid)
    rr, th = np.meshgrid(sol.grid.r, sol.grid.theta, indexing="ij")
    scalar = np.abs(vf.mean_curvature_residual(sample, np.stack([rr, th], axis=-1)))
    assert np.all(np.isfinite(scalar))
    path = tmp_path / "graph.ply"
    meshio.export_mesh(sample, path, fmt="ply", scalar=scalar)
    text = path.read_text()
    assert "property double quality" in text
    assert f"element vertex {scalar.size}" in text


def test_csv_generic_columns(tmp_path):
    path = tmp_path / "cols.csv"
    meshio.export_csv({"t": np.array([1.0, 2.0]), "h": np.array([0.5, 0.25])}, path)
    back = meshio.read_csv(path)
    assert set(back) == {"t", "h"}
    with pytest.raises(ValueError):
        meshio.export_csv({"a": np.zeros(2), "b": np.zeros(3)}, path)
    with pytest.raises(ValueError, match="no column"):
        meshio.export_csv({}, path)
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError, match="line 3 has 1 fields"):
        meshio.read_csv(path)


# ---------------------------------------------------------------- CLI


def test_cli_geodesic_runs(capsys):
    assert main(["geodesic", "--theta", "0", "--t", "1"]) == 0
    out = capsys.readouterr().out
    assert "resolved configuration" in out
    assert "closed form endpoint" in out
    err = out.split("closed-form vs integrated:")[1].split()[0]
    assert float(err) <= 1e-8


def test_cli_curvature_adjudication(capsys):
    assert main(["curvature", "--r", "0,2"]) == 0
    out = capsys.readouterr().out
    assert "-0.375" in out
    assert "-0.75" in out
    assert "discrepancy" in out


def _relative_disagreement(out):
    return float(out.split("max |K_fd/K_warp - 1| = ")[1].split(";")[0])


def test_cli_curvature_reports_the_relative_disagreement(capsys):
    # K falls like -2/r^2, so an absolute difference of the oracles reads
    # small far out (9e-24 at r = 1e11), where x +- 1e-4 rounds and the
    # difference oracle is 4.5% off
    assert main(["curvature"]) == 0
    assert _relative_disagreement(capsys.readouterr().out) <= 1e-8
    assert main(["curvature", "--r", "1e6,1e8,1e10,1e11,1e12"]) == 0
    assert _relative_disagreement(capsys.readouterr().out) >= 1e-2


def test_cli_curvature_refuses_a_radius_where_the_difference_step_is_lost(capsys):
    # a usage error, not a row of nan or an overflow warning (which fails the test)
    assert main(["curvature", "--r", "1,1e200"]) == 2
    assert "lost to rounding" in capsys.readouterr().err


def test_cli_verify_json(tmp_path, capsys):
    path = tmp_path / "claims.json"
    assert main(["verify", "--tol", "1e-6", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "DISCREPANCY" in out
    payload = json.loads(path.read_text())
    assert len(payload) == 6


def test_cli_catenoid_exports(tmp_path, capsys):
    obj = tmp_path / "cat.obj"
    csv = tmp_path / "cat.csv"
    code = main(
        [
            "catenoid", "--c", "3", "--t0", "1", "--tmax", "4",
            "--samples", "12", "--export-obj", str(obj), "--export-csv", str(csv),
        ]
    )
    assert code == 0
    assert obj.exists() and csv.exists()
    cols = meshio.read_csv(csv)
    assert set(cols) == {"t", "h", "uprime"}


def test_cli_barrier(capsys):
    assert main(["barrier", "--s", "1", "--alpha", "1", "--rmax", "10", "--step", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "subsolution" in out


def test_cli_barrier_csv_holds_the_profile_columns_at_17_digits(tmp_path):
    path = tmp_path / "barrier.csv"
    assert main(["barrier", "--s", "1", "--alpha", "1", "--rmax", "3", "--step", "0.25",
                 "--export-csv", str(path)]) == 0
    prof = rd.barrier_profile(rd.BarrierParams(1.0, 1.0), np.arange(0.0, 3.125, 0.25))
    rows = ["%.17g,%.17g,%.17g" % row for row in zip(prof.r, prof.value, prof.deriv)]
    assert path.read_text() == "\n".join(["r,f,fprime"] + rows) + "\n"


def test_cli_barrier_at_radii_whose_squares_overflow(capsys):
    # (r + alpha)^2 and r^2 overflow above r of about 1.3e154; the curvature
    # bound and g'/g then take their limits instead of inf/inf
    assert main(["barrier", "--rmax", "1e155", "--step", "1e154"]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out and "inf" not in out
    line = out.split("subsolution: min operator value ")[1]
    op, margin = line.split(", min curvature-bound margin ")
    assert np.isfinite(float(op)) and np.isfinite(float(margin))


def test_cli_exterior_small(tmp_path, capsys):
    cfgfile = tmp_path / "solver.cfg"
    cfgfile.write_text("n_r = 48\nn_theta = 16\nbisection_tol = 1e-3\n")
    slice_csv = tmp_path / "slice.csv"
    code = main(
        ["exterior", "--s", "0.4", "--r0", "1", "--schedule", "3,5",
         "--config", str(cfgfile), "--export-csv", str(slice_csv)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "t_m=" in out
    assert "cauchy sup-diff" in out
    cols = meshio.read_csv(slice_csv)
    assert set(cols) == {"r", "u"}


def test_cli_exterior_barrier_past_first_cut(capsys):
    # the caps are the closed-form barrier at r = m - r0 = 2 and 30; the
    # m = 32 one lies out on its slowly decaying tail
    code = main(["exterior", "--s", "1", "--r0", "2", "--schedule", "4,32",
                 "--n-r", "33", "--n-theta", "16"])
    assert code == 0
    out = capsys.readouterr().out
    assert "barrier_cap=2.422264" in out
    assert "barrier_cap=15.929367" in out


@pytest.mark.parametrize("s", ["inf", "nan"])
def test_cli_exterior_non_finite_s_is_usage_error(s, capsys):
    code = main(["exterior", "--s", s, "--schedule", "3", "--n-r", "24", "--n-theta", "12"])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["asymptotic", "--schedule", "8,inf", "--n-r", "33", "--n-theta", "16"],
        ["catenoid", "--c", "nan", "--t0", "1"],
        ["verify", "--tol", "nan"],
        ["catenoid", "--c", "3", "--t0", "1", "--tol", "nan"],
        ["catenoid", "--c", "3", "--t0", "1", "--tol", "inf"],
        ["barrier", "--step", "0"],
        ["barrier", "--step", "-0.1"],
        ["barrier", "--step", "nan"],
        ["barrier", "--rmax", "0"],
        ["barrier", "--rmax", "inf"],
        ["curvature", "--r", "nan"],
        ["curvature", "--r", "1,inf"],
        ["geodesic", "--t", "nan"],
        ["geodesic", "--theta", "nan"],
    ],
    ids=["asymptotic-schedule", "catenoid-c", "verify-tol", "catenoid-tol-nan",
         "catenoid-tol-inf", "barrier-step-zero",
         "barrier-step-negative", "barrier-step-nan", "barrier-rmax-zero", "barrier-rmax-inf",
         "curvature-r-nan", "curvature-r-inf", "geodesic-t-nan", "geodesic-theta-nan"],
)
def test_cli_non_finite_input_is_usage_error(argv, capsys):
    assert main(argv) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["barrier", "--step", "50", "--rmax", "1"], "--step"),
        (["catenoid", "--c", "3", "--t0", "1", "--samples", "1"], "--samples"),
        (["catenoid", "--c", "3", "--t0", "1", "--tmax", "0.5"], "--tmax"),
        (["export", "--surface", "catenoid", "--tmax", "0.5"], "--tmax"),
        (["export", "--extent", "nan"], "--extent"),
        (["export", "--extent", "inf"], "--extent"),
        (["export", "--extent", "0"], "--extent"),
        (["export", "--surface", "catenoid", "--nu", "3", "--nv", "2"], "--nv"),
    ],
    ids=["barrier-step-above-rmax", "catenoid-one-sample", "catenoid-tmax-below-neck",
         "export-tmax-below-neck", "export-extent-nan", "export-extent-inf",
         "export-extent-zero", "export-catenoid-two-angles"],
)
def test_cli_names_the_flag_at_fault(argv, flag, tmp_path, capsys):
    # the helper's own message ("profile needs at least two nodes", "profile
    # radius t=... below the neck") names no flag; a non-finite or zero
    # --extent gave a mesh of NaN vertices or of the origin alone, and exit 0;
    # two catenoid angles failed the mesh check under an edge's name
    mesh = tmp_path / "m.obj"
    if argv[0] == "export":
        argv = [*argv, "--obj", str(mesh)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and flag in err
    assert not mesh.exists()


@pytest.mark.parametrize(
    "argv, lines",
    [
        (["asymptotic", "--schedule", "4,6"], "n_r = 17\nn_theta = 8\ncompact_rmax = 0.01\n"),
        (["exterior", "--s", "0.5", "--r0", "1"], "n_r = 17\nn_theta = 8\nschedule = 1.5,3\n"),
    ],
    ids=["asymptotic-compact-window", "exterior-cauchy-window"],
)
def test_cli_config_without_window_nodes_is_usage_error(tmp_path, argv, lines, capsys):
    cfgfile = tmp_path / "window.cfg"
    cfgfile.write_text(lines)
    assert main(argv + ["--config", str(cfgfile)]) == 2
    assert "window" in capsys.readouterr().err


def test_cli_solver_failure_exits_one(tmp_path, capsys):
    # a disk solve of cosine data needs several Newton steps; one is too few
    cfgfile = tmp_path / "starved.cfg"
    cfgfile.write_text("n_r = 48\nn_theta = 16\nmax_newton = 1\n")
    code = main(["asymptotic", "--schedule", "5,8", "--config", str(cfgfile)])
    assert code == 1
    assert "solver failure" in capsys.readouterr().err


def test_cli_asymptotic_constant(capsys):
    code = main(
        ["asymptotic", "--constant", "0.5", "--schedule", "5,8",
         "--n-r", "48", "--n-theta", "16"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "sup-diff" in out


def test_cli_asymptotic_any_angular_count(capsys):
    # n_theta = 18 is not a multiple of 4
    code = main(["asymptotic", "--n-r", "33", "--n-theta", "18", "--schedule", "4,8"])
    assert code == 0
    assert "sup-diff" in capsys.readouterr().out


def test_cli_export_surface(tmp_path):
    path = tmp_path / "t.obj"
    assert main(["export", "--surface", "tplane", "--nu", "4", "--nv", "9", "--obj", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert sum(line.startswith("v ") for line in lines) == 4 * 9
    assert sum(line.startswith("f ") for line in lines) == 2 * 3 * 8


@pytest.mark.parametrize("outputs", [["--obj", "a.obj", "--ply", "b.ply"], []],
                         ids=["both", "neither"])
def test_cli_export_needs_exactly_one_output(tmp_path, monkeypatch, outputs):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["export", "--nu", "3", "--nv", "3", *outputs])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [["--surface", "tplane", "--nu", "0"], ["--surface", "tplane", "--nv", "1"],
     ["--surface", "catenoid", "--nu", "1"], ["--surface", "catenoid", "--nv", "1"]],
    ids=["tplane-nu-0", "tplane-nv-1", "catenoid-nu-1", "catenoid-nv-1"],
)
def test_cli_export_without_faces_is_usage_error(tmp_path, args, capsys):
    # one sample row gives vertices but no faces, zero gives an empty mesh
    path = tmp_path / "empty.obj"
    assert main(["export", *args, "--obj", str(path)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not path.exists()


def test_cli_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["catenoid", "--c", "3", "--t0", "1", "--unknown-flag", "5"])
    assert exc.value.code == 2


def test_cli_solver_failure_exit_code(capsys):
    # catenoid with an inadmissible neck is a usage error (ValueError -> 2)
    assert main(["catenoid", "--c", "3", "--t0", "0.2"]) == 2


_IMPORT_PROBE = """
import json, sys
scipy_loaded = lambda: json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
import nil3lab, nil3lab.cli
from nil3lab import radial, solver, surface, verify
print(scipy_loaded())
solver.asymptotic_solve(surface.BoundaryData.cosine(1.0),
                        solver.SolverConfig(n_r=33, n_theta=16), radii=(8.0,))
print(scipy_loaded())
radial.FluxGraph(1.0, 1.0, surface.warp_g(1.0) ** 2 - 1.0).heights([2.0], 1e-12)
attain = radial.FluxGraph(surface.warp_g(1.0), 1.0, 0.0).heights([2.0], 1e-12)[0]
prof = radial.radial_mse_solve(1.0, 2.0, 0.0, 0.5 * attain)
assert 0 < prof.flux < surface.warp_g(1.0)  # the root-find ran
radial.catenoid_profile(radial.CatenoidParams(3.0, 1.0), [1.0, 2.0])
surface.orbit_circumference(2.0)
sol = solver.exterior_solve(1.0, 2.0, solver.SolverConfig(n_r=33, n_theta=16, schedule=(4.0, 32.0)))
verify.run_claim_checks()
print(scipy_loaded())
assert abs(verify.mean_curvature_residual(verify.graph_embed(sol.u, sol.grid), (3.0, 0.4))) < 1e-2
print(scipy_loaded())
"""


def _run_probe(code: str, *args: str) -> str:
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_solves_claims_and_the_graph_oracle_load_no_scipy():
    # a counter gate on the import set, never on seconds: the solver's
    # kernels, the quadratures, the flux root-find and the graph interpolant
    # of the mean-curvature oracle are numpy only, so importing nil3lab, disk
    # and annulus solves, the exterior exhaustion, the claim checks and a
    # graph_embed oracle call load no scipy module
    loaded = [json.loads(line) for line in _run_probe(_IMPORT_PROBE).splitlines()]
    assert loaded == [[], [], [], []]


_BLOCKED_PROBE = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from nil3lab import cli, solver, verify
assert cli.main(["exterior", "--s", "1", "--r0", "2", "--schedule", "4,32",
                 "--n-r", "33", "--n-theta", "16"]) == 0
assert cli.main(["asymptotic", "--schedule", "8,16", "--n-r", "33", "--n-theta", "16"]) == 0
assert cli.main(["verify"]) == 0
assert cli.main(["catenoid", "--c", "3", "--t0", "1", "--tmax", "4", "--samples", "9",
                 "--export-obj", sys.argv[1]]) == 0
sol = solver.exterior_solve(1.0, 2.0, solver.SolverConfig(n_r=33, n_theta=16, schedule=(4.0,)))
sample = verify.graph_embed(sol.u, sol.grid)
print(abs(verify.mean_curvature_residual(sample, (3.0, 0.4))))
"""


def test_the_cli_and_the_graph_oracle_run_with_scipy_blocked(tmp_path):
    # the installed package needs only numpy: with every scipy import made to
    # fail, the CLI's solves, claim checks and export, and one graph_embed
    # oracle call, all succeed
    out = _run_probe(_BLOCKED_PROBE, str(tmp_path / "c.obj"))
    assert float(out.splitlines()[-1]) < 1e-2
    assert (tmp_path / "c.obj").read_text().startswith("#")
