"""Watertight triangle meshes of the dome and binary STL / text OBJ export."""

import math
import struct
from dataclasses import dataclass

import numpy as np

from ._io import write_bytes, write_text
from .surface import SolidSpec, _integer, scaling_factor_array

__all__ = [
    "MeshResolution",
    "TriangleMesh",
    "NonWatertightError",
    "tessellate",
    "write_stl",
    "write_obj",
]

_STL_HEADER_TAG = b"polydome binary STL"

# 50 bytes per triangle: float32 normal, three float32 vertices, uint16 attribute.
_STL_RECORD = np.dtype([("normal", "<f4", (3,)), ("vertices", "<f4", (3, 3)), ("attr", "<u2")])

# Largest mesh built.  At the bound, building, checking and writing a mesh
# peaked at 740 MB (dome) and 800 MB (staircase) on x86-64 with numpy 2.4.
_MAX_TRIANGLES = 3_500_000


class NonWatertightError(ValueError):
    """Mesh has edges not shared by exactly two consistently wound triangles."""

    def __init__(self, message: str, edges: list[tuple[int, int]]):
        super().__init__(message)
        self.edges = edges


@dataclass(frozen=True)
class MeshResolution:
    """Grid density: azimuthal subdivisions per polygon sector, profile rings.

    The azimuthal grid is laid out per sector, so polygon corners (the
    creases of the surface) always fall exactly on grid lines.
    """

    segments_per_sector: int = 32
    rings: int = 32

    def __post_init__(self):
        for name in ("segments_per_sector", "rings"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))


@dataclass(frozen=True)
class TriangleMesh:
    """Indexed triangle soup, counter-clockwise winding seen from outside.

    ``dropped_triangles`` counts zero-area triangles discarded during
    construction; arrays are made read-only so meshes can be shared freely.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    dropped_triangles: int = 0

    def __post_init__(self):
        vertices = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3))
        triangles = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3))
        if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
            raise ValueError("triangle indices out of range")
        vertices.setflags(write=False)
        triangles.setflags(write=False)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "triangles", triangles)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)

    def signed_volume(self) -> float:
        """Volume by the divergence theorem: (1/6) * sum of v0 . (v1 x v2)."""
        corners = self.vertices[self.triangles]
        cross = np.cross(corners[:, 1], corners[:, 2])
        return float(np.einsum("ij,ij->", corners[:, 0], cross) / 6.0)

    def face_normals(self) -> np.ndarray:
        """Unit normals from the winding; zero-area triangles get (0, 0, 0)."""
        columns, lengths = _cross_columns(self.vertices, self.triangles)
        lengths = np.where(lengths > 0.0, lengths, 1.0)
        return np.column_stack([column / lengths for column in columns])

    def _edge_runs(self, directed: bool) -> tuple[np.ndarray, np.ndarray]:
        """Ascending distinct edge keys and how many triangle sides use each.

        A side (a, b) has the key ``a*V + b`` when ``directed``, else
        ``min(a, b)*V + max(a, b)``, where V is the vertex count.
        """
        src = self.triangles.ravel()
        dst = self.triangles[:, [1, 2, 0]].ravel()
        if not directed:
            src, dst = np.minimum(src, dst), np.maximum(src, dst)
        # Keys are exact while V**2 < 2**63, i.e. for fewer than 3.03e9 vertices.
        keys = np.sort(src * self.vertex_count + dst)
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        return keys[starts], np.diff(starts, append=keys.size)

    def edge_count(self) -> int:
        """Number of distinct undirected edges."""
        return len(self._edge_runs(directed=False)[0])

    def euler_characteristic(self) -> int:
        return self.vertex_count - self.edge_count() + self.triangle_count

    def defective_edges(self) -> list[tuple[int, int]]:
        """Undirected edges not used exactly twice, or reused in one direction."""
        V = self.vertex_count
        undirected, uses = self._edge_runs(directed=False)
        directed, repeats = self._edge_runs(directed=True)
        a, b = np.divmod(directed[repeats > 1], V)
        bad = np.union1d(undirected[uses != 2], np.minimum(a, b) * V + np.maximum(a, b))
        lo, hi = np.divmod(bad, V)
        return list(zip(lo.tolist(), hi.tolist()))

    def is_watertight(self) -> bool:
        return not self.defective_edges()

    def require_watertight(self) -> None:
        bad = self.defective_edges()
        if bad:
            preview = ", ".join(map(str, bad[:8]))
            more = "" if len(bad) <= 8 else f", ... ({len(bad)} total)"
            raise NonWatertightError(f"mesh is not watertight: defective edges {preview}{more}", bad)


def _cross_columns(vertices: np.ndarray, triangles: np.ndarray):
    """(v1 - v0) x (v2 - v0) of every triangle as three 1-D columns, and its length.

    Bit-identical to ``np.cross`` and ``np.linalg.norm(axis=1)``: the same
    products and differences, and the same (x^2 + y^2) + z^2 sum.
    """
    X, Y, Z = np.ascontiguousarray(vertices.T)
    i0, i1, i2 = triangles.T
    x0, y0, z0 = X[i0], Y[i0], Z[i0]
    ux, uy, uz = X[i1] - x0, Y[i1] - y0, Z[i1] - z0
    vx, vy, vz = X[i2] - x0, Y[i2] - y0, Z[i2] - z0
    cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    return (cx, cy, cz), np.sqrt(cx * cx + cy * cy + cz * cz)


def _drop_degenerate(vertices: np.ndarray, triangles: np.ndarray, area_floor: float):
    keep = _cross_columns(vertices, triangles)[1] > 2.0 * area_floor
    dropped = int((~keep).sum())
    return (triangles[keep], dropped) if dropped else (triangles, 0)


def tessellate(spec: SolidSpec, res: MeshResolution) -> TriangleMesh:
    """Triangulate the dome plus its flat base into one watertight mesh.

    The dome is sampled on the per-sector (r, t) grid with the degenerate
    top ring collapsed to a single apex vertex (closed by a triangle fan);
    the base polygon is fanned from its center.  Any triangle whose area
    underflows is dropped and counted in ``dropped_triangles``.
    """
    n, R = spec.n, spec.R
    cols = n * res.segments_per_sector
    rings = res.rings
    _integer(2 * cols * rings, "triangle count 2*n*segments*rings", 1, _MAX_TRIANGLES)

    theta = -math.pi / n + np.arange(cols) * (2.0 * math.pi / cols)
    radial = R / scaling_factor_array(theta, spec)
    t = (math.pi / 2.0) * np.arange(rings) / rings
    x = np.outer(np.cos(t), radial * np.cos(theta))
    y = np.outer(np.cos(t), radial * np.sin(theta))
    z = np.repeat(R * np.sin(t), cols)
    apex = rings * cols
    center = apex + 1
    vertices = np.vstack([
        np.column_stack([x.ravel(), y.ravel(), z]),
        [0.0, 0.0, R],
        [0.0, 0.0, 0.0],
    ])

    k = np.arange(cols)
    k1 = (k + 1) % cols
    # Ring j's quads split into the band [a, b, c] followed by the band [a, c, d].
    row = (np.arange(rings - 1) * cols)[:, None]
    a, b = row + k, row + k1
    c, d = b + cols, a + cols
    bands = np.stack([np.stack([a, b, c], axis=-1), np.stack([a, c, d], axis=-1)], axis=1)
    top = (rings - 1) * cols
    triangles = np.concatenate([
        bands.reshape(-1, 3),
        np.column_stack([top + k, top + k1, np.full(cols, apex)]),
        np.column_stack([np.full(cols, center), k1, k]),
    ])

    triangles, dropped = _drop_degenerate(vertices, triangles, area_floor=1e-14 * R * R)
    return TriangleMesh(vertices, triangles, dropped_triangles=dropped)


def write_stl(mesh: TriangleMesh, destination) -> int:
    """Write binary STL and return the byte count (84 + 50 per triangle).

    Layout: 80-byte zero-padded ASCII header, little-endian uint32 triangle
    count, then per triangle twelve little-endian float32 (normal and three
    vertices) plus a zero uint16 attribute.  Normals are recomputed from the
    vertex winding.
    """
    count = mesh.triangle_count
    if count > 0xFFFFFFFF:
        raise ValueError(f"triangle count {count} exceeds the 32-bit STL limit")
    records = np.zeros(count, dtype=_STL_RECORD)
    if count:
        records["normal"] = mesh.face_normals().astype("<f4")
        records["vertices"] = mesh.vertices.astype("<f4")[mesh.triangles]
    payload = _STL_HEADER_TAG.ljust(80, b"\x00") + struct.pack("<I", count) + records.tobytes()
    write_bytes(destination, payload)
    return len(payload)


def write_obj(mesh: TriangleMesh, destination) -> int:
    """Write text OBJ (``v``/``f`` records only, LF endings, 9 significant
    digits) and return the number of lines written."""
    vertices, faces = ("v %.9g %.9g %.9g\n", mesh.vertices), ("f %d %d %d\n", mesh.triangles + 1)
    write_text(destination, "", vertices, faces)
    return mesh.vertex_count + mesh.triangle_count
