"""Watertight triangle meshes of the dome and binary STL / text OBJ export."""

import math
import struct
from dataclasses import dataclass

import numpy as np

from ._io import write_bytes, write_text
from .surface import SolidSpec, scaling_factor_array

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

# Rows per OBJ formatting call: bounds the temporary Python list a chunk needs.
_OBJ_CHUNK = 1 << 14


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
        if self.segments_per_sector < 1:
            raise ValueError(f"segments_per_sector must be >= 1, got {self.segments_per_sector}")
        if self.rings < 1:
            raise ValueError(f"rings must be >= 1, got {self.rings}")


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
        corners = self.vertices[self.triangles]
        normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        lengths = np.linalg.norm(normals, axis=1)
        return normals / np.where(lengths > 0.0, lengths, 1.0)[:, None]

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


def _drop_degenerate(vertices: np.ndarray, triangles: np.ndarray, area_floor: float):
    corners = vertices[triangles]
    doubled_area = np.linalg.norm(
        np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]), axis=1
    )
    keep = doubled_area > 2.0 * area_floor
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
    bands = []
    for j in range(rings - 1):
        a = j * cols + k
        b = j * cols + k1
        c = (j + 1) * cols + k1
        d = (j + 1) * cols + k
        bands.append(np.column_stack([a, b, c]))
        bands.append(np.column_stack([a, c, d]))
    top = (rings - 1) * cols
    bands.append(np.column_stack([top + k, top + k1, np.full(cols, apex)]))
    bands.append(np.column_stack([np.full(cols, center), k1, k]))
    triangles = np.concatenate(bands)

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
        records["vertices"] = mesh.vertices[mesh.triangles].astype("<f4")
    payload = _STL_HEADER_TAG.ljust(80, b"\x00") + struct.pack("<I", count) + records.tobytes()
    write_bytes(destination, payload)
    return len(payload)


def _obj_records(record: str, rows: np.ndarray) -> str:
    """``record`` formatted once per row, ``_OBJ_CHUNK`` rows per ``%``."""
    return "".join(
        (record * len(chunk)) % tuple(chunk.ravel().tolist())
        for chunk in (rows[start:start + _OBJ_CHUNK] for start in range(0, len(rows), _OBJ_CHUNK))
    )


def write_obj(mesh: TriangleMesh, destination) -> int:
    """Write text OBJ (``v``/``f`` records only, LF endings, 9 significant
    digits) and return the number of lines written."""
    text = _obj_records("v %.9g %.9g %.9g\n", mesh.vertices)
    text += _obj_records("f %d %d %d\n", mesh.triangles + 1)
    write_text(destination, text)
    return mesh.vertex_count + mesh.triangle_count
