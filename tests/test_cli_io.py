import json

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
    heights = []
    monkeypatch.setattr(vf, "catenoid_height", lambda *a: heights.append(a) or rd.catenoid_height(*a))
    sample = vf.catenoid_sample(params, 4.0, n_t=8, n_theta=12)
    verts, faces = meshio.surface_mesh(sample)
    assert len(heights) == 8  # one quadrature per profile ring, not per vertex
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
    assert "property float quality" in content
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
    meshio.export_csv(prof, path)
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
    pad = 3 * sample.fd_step
    r_lo, r_hi = sol.grid.r[0] + pad, sol.grid.r[-1] - pad
    scalar = np.empty(sol.grid.shape)
    for i, r in enumerate(sol.grid.r):
        rr = min(max(r, r_lo), r_hi)
        for j, th in enumerate(sol.grid.theta):
            scalar[i, j] = abs(vf.mean_curvature_residual(sample, (rr, th)))
    assert np.all(np.isfinite(scalar))
    path = tmp_path / "graph.ply"
    meshio.export_mesh(sample, path, fmt="ply", scalar=scalar)
    text = path.read_text()
    assert "property float quality" in text
    assert f"element vertex {scalar.size}" in text


def test_csv_generic_columns(tmp_path):
    path = tmp_path / "cols.csv"
    meshio.export_csv({"t": np.array([1.0, 2.0]), "h": np.array([0.5, 0.25])}, path)
    back = meshio.read_csv(path)
    assert set(back) == {"t", "h"}
    with pytest.raises(ValueError):
        meshio.export_csv({"a": np.zeros(2), "b": np.zeros(3)}, path)


# ---------------------------------------------------------------- CLI


def test_cli_geodesic_runs(capsys):
    assert main(["geodesic", "--theta", "0", "--t", "1"]) == 0
    out = capsys.readouterr().out
    assert "resolved configuration" in out
    assert "closed form endpoint" in out


def test_cli_curvature_adjudication(capsys):
    assert main(["curvature", "--r", "0,2"]) == 0
    out = capsys.readouterr().out
    assert "-0.375" in out
    assert "-0.75" in out
    assert "discrepancy" in out


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
    ],
    ids=["asymptotic-schedule", "catenoid-c", "verify-tol"],
)
def test_cli_non_finite_input_is_usage_error(argv, capsys):
    assert main(argv) == 2
    assert "usage error" in capsys.readouterr().err


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
    cfgfile = tmp_path / "starved.cfg"
    cfgfile.write_text("n_r = 48\nn_theta = 16\nmax_newton = 1\n")
    code = main(
        ["exterior", "--s", "0.4", "--r0", "1", "--schedule", "3", "--config", str(cfgfile)]
    )
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
    assert main(["export", "--surface", "tplane", "--nu", "6", "--obj", str(path)]) == 0
    assert path.exists()


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
