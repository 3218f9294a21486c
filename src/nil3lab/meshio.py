"""ASCII mesh (OBJ/PLY) and CSV export.

Meshes are written in matrix coordinates so external viewers show the true
embedding; a file header comment says so.  Exports are byte-stable given
identical inputs, and CSV uses 17 significant digits so re-parsing
reproduces the values exactly at the printed precision.
"""

from __future__ import annotations

import numpy as np

from .nilcore import ChartPoint

__all__ = [
    "MeshValidationError",
    "surface_mesh",
    "check_mesh",
    "export_mesh",
    "export_csv",
    "read_csv",
]

_HEADER = "nil3lab surface mesh, matrix coordinates (x, y, z entries)"


class MeshValidationError(ValueError):
    pass


def surface_mesh(sample) -> tuple[np.ndarray, np.ndarray]:
    """Triangulate a SurfaceSample over its parameter grid, in matrix coordinates.

    Vertex i * n_v + j is the sample at (u_i, v_j).  Each grid quad gives the
    faces (v00, v10, v11), (v00, v11, v01) in row-major order.  A periodic
    v-direction is closed by identifying the seam vertices, so the vertex
    count is n_u * n_v instead of n_u * (n_v + 1); it needs n_v >= 3, since
    with two samples each quad's two triangles would be met twice, once in
    each orientation.
    """
    ugrid = np.asarray(sample.u_grid, dtype=float)
    vgrid = np.asarray(sample.v_grid, dtype=float)
    n_u, n_v = len(ugrid), len(vgrid)
    if sample.periodic_v and n_v < 3:
        raise MeshValidationError(f"a periodic v-direction needs at least 3 samples, got {n_v}")
    g = ChartPoint(*sample.points(ugrid[:, None], vgrid[None, :]).reshape(-1, 3).T).to_group()
    verts = np.stack([g.x, g.y, g.z], axis=-1)

    v_pairs = n_v if sample.periodic_v else n_v - 1
    i = np.arange(n_u - 1)[:, None]
    j = np.arange(v_pairs)[None, :]
    v00 = i * n_v + j
    v01 = i * n_v + (j + 1) % n_v
    v10, v11 = v00 + n_v, v01 + n_v
    faces = np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)
    return verts, faces


def check_mesh(vertices: np.ndarray, faces: np.ndarray) -> None:
    """Raise unless indices are in range, no face is degenerate and no directed
    edge occurs twice.

    In a consistently oriented mesh every shared edge is traversed once in
    each direction, so a directed edge seen twice marks a flipped (or a
    repeated) face.
    """
    n = len(vertices)
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    if faces.size and (faces.min() < 0 or faces.max() >= n):
        raise MeshValidationError("face index out of range")
    a, b, c = faces.T
    degenerate = (a == b) | (b == c) | (a == c)
    if degenerate.any():
        raise MeshValidationError(f"degenerate face {faces[np.argmax(degenerate)]}")
    keys, counts = np.unique(faces * n + np.roll(faces, -1, axis=1), return_counts=True)
    if (counts > 1).any():
        a, b = divmod(int(keys[np.argmax(counts > 1)]), n)
        raise MeshValidationError(f"edge ({a},{b}) traversed twice in the same direction")


def _rows(template: str, table: np.ndarray) -> str:
    """The printf-style template filled in from each table row in turn, one line per row."""
    return ((template + "\n") * len(table)) % tuple(table.ravel().tolist())


def export_mesh(sample, path, fmt: str = "obj", scalar=None) -> None:
    """Write the triangulated sample as ASCII OBJ or PLY.

    scalar, if given, must be one value per vertex (flattened parameter grid
    order); it lands in a PLY "quality" property or, for OBJ, in the common
    vertex-color extension slots.
    """
    if fmt not in ("obj", "ply"):
        raise ValueError(f"unknown mesh format {fmt!r} (expected 'obj' or 'ply')")
    verts, faces = surface_mesh(sample)
    check_mesh(verts, faces)
    table = verts
    if scalar is not None:
        scalar = np.asarray(scalar, dtype=float).ravel()
        if len(scalar) != len(verts):
            raise ValueError("per-vertex scalar length does not match the mesh")
        table = np.column_stack([verts] + [scalar] * (3 if fmt == "obj" else 1))
    if fmt == "obj":
        header, vert_row, face_row, faces = [f"# {_HEADER}"], "v ", "f %d %d %d", faces + 1
    else:
        props = ["x", "y", "z"] + (["quality"] if scalar is not None else [])
        header = ["ply", "format ascii 1.0", f"comment {_HEADER}", f"element vertex {len(verts)}"]
        header += [f"property double {name}" for name in props]
        header += [f"element face {len(faces)}", "property list uchar int vertex_indices", "end_header"]
        vert_row, face_row = "", "3 %d %d %d"
    vert_row += " ".join(["%.17g"] * table.shape[1])
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n" + _rows(vert_row, table) + _rows(face_row, faces))


def export_csv(data, path) -> None:
    """Write a mapping of named columns, one CSV column each in mapping order."""
    columns = {k: np.asarray(v, dtype=float) for k, v in data.items()}
    if not columns:
        raise ValueError("CSV export has no columns: the mapping is empty")
    if len({len(col) for col in columns.values()}) > 1:
        raise ValueError("CSV columns must share a length")
    table = np.column_stack(list(columns.values()))
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n" + _rows(",".join(["%.17g"] * len(columns)), table))


def read_csv(path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            row = line.strip().split(",")
            if len(row) != len(names):
                raise ValueError(
                    f"{path}: line {lineno} has {len(row)} fields, the header names {len(names)}"
                )
            rows.append(row)
    return {name: np.array([float(row[i]) for row in rows]) for i, name in enumerate(names)}
