"""Volume three independent ways, plus vertical cross-section extraction.

The closed forms come from the prism-minus-pyramid construction: the prism
of height R over the base polygon loses the inscribed pyramid, leaving
two thirds of the prism.  The mesh estimator integrates a watertight
triangulation by the divergence theorem, and the Monte Carlo estimator
samples the bounding box of the solid; the three must agree within their
stated tolerances for the geometry to be trusted.

Cross-sections by a vertical plane through the axis split into two
half-plane branches; each branch is a quarter ellipse with horizontal
semi-axis R/a(azimuth of the branch) and vertical semi-axis R, which
``ellipse_residual`` quantifies.
"""

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._io import write_text
from .meshing import MeshResolution, TriangleMesh, tessellate
from .surface import SolidSpec, _integer, inside_mask, scaling_factor, surface_point

__all__ = [
    "polygon_area",
    "prism_volume",
    "solid_volume",
    "mesh_volume",
    "MonteCarloResult",
    "monte_carlo_volume",
    "VolumeReport",
    "volume_report",
    "PlaneSection",
    "plane_section",
    "ellipse_residual",
    "mesh_plane_section",
    "write_section_csv",
]

# Monte Carlo substream granularity.  Chunk c of a run always draws from the
# generator seeded with (seed, c), so estimates depend only on (samples, seed)
# and are reproducible no matter how chunks are scheduled across workers.
_MC_CHUNK = 1 << 17


def polygon_area(spec: SolidSpec) -> float:
    """Area of the base polygon: n * R**2 * tan(pi/n)."""
    return spec.n * spec.R**2 * math.tan(math.pi / spec.n)


def prism_volume(spec: SolidSpec) -> float:
    """Volume of the prism of height R over the base polygon."""
    return polygon_area(spec) * spec.R


def solid_volume(spec: SolidSpec) -> float:
    """Volume of the dome solid: (2/3) * n * R**3 * tan(pi/n)."""
    return 2.0 * prism_volume(spec) / 3.0


def mesh_volume(mesh: TriangleMesh) -> float:
    """Signed volume of a watertight, outward-oriented mesh.

    Raises :class:`polydome.meshing.NonWatertightError` (listing the
    defective edges) for open or non-manifold meshes, and ``ValueError``
    when the winding is inverted (negative enclosed volume).
    """
    mesh.require_watertight()
    volume = mesh.signed_volume()
    if volume <= 0.0:
        raise ValueError(f"mesh winding is inverted: signed volume {volume!r} is not positive")
    return volume


class MonteCarloResult(NamedTuple):
    estimate: float
    std_error: float


def monte_carlo_volume(spec: SolidSpec, samples: int, seed: int = 0) -> MonteCarloResult:
    """Estimate the solid volume by uniform sampling of its bounding box.

    Points are drawn in [-C, C] x [-C, C] x [0, R] with C the base
    circumradius; the estimate is the box volume times the hit fraction and
    the standard error is box_volume * sqrt(p * (1 - p) / samples).
    Deterministic for a given (samples, seed) pair.
    """
    samples = _integer(samples, "samples", 1)
    seed = _integer(seed, "seed", 0)
    c = spec.circumradius
    lo = np.array([-c, -c, 0.0])
    span = np.array([2.0 * c, 2.0 * c, spec.R])
    hits = 0
    for chunk, start in enumerate(range(0, samples, _MC_CHUNK)):
        rng = np.random.default_rng((seed, chunk))
        points = lo + rng.random((min(_MC_CHUNK, samples - start), 3)) * span
        hits += int(inside_mask(points, spec).sum())
    box = 4.0 * c * c * spec.R
    p = hits / samples
    return MonteCarloResult(box * p, box * math.sqrt(p * (1.0 - p) / samples))


@dataclass(frozen=True)
class VolumeReport:
    """Cross-validated volume estimates for one solid."""

    analytic: float
    mesh_estimate: float | None = None
    mc_estimate: float | None = None
    mc_std_error: float | None = None
    sample_count: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.analytic) and self.analytic > 0):
            raise ValueError(f"analytic volume must be positive, got {self.analytic!r}")
        if self.mc_std_error is not None and not self.mc_std_error >= 0:
            raise ValueError(f"mc_std_error must be non-negative, got {self.mc_std_error!r}")
        if self.sample_count is not None:
            object.__setattr__(self, "sample_count", _integer(self.sample_count, "sample_count", 1))

    def to_dict(self) -> dict:
        """Plain dict in field order (stable for byte-level diffing)."""
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def volume_report(
    spec: SolidSpec,
    mesh_resolution: int | None = None,
    mc_samples: int | None = None,
    seed: int = 0,
) -> VolumeReport:
    """Assemble a :class:`VolumeReport`; estimators run only when requested."""
    mesh_estimate = None
    if mesh_resolution is not None:
        mesh_estimate = mesh_volume(tessellate(spec, MeshResolution(mesh_resolution, mesh_resolution)))
    if mc_samples is None:
        return VolumeReport(solid_volume(spec), mesh_estimate)
    mc = monte_carlo_volume(spec, mc_samples, seed)
    return VolumeReport(solid_volume(spec), mesh_estimate, mc.estimate, mc.std_error, int(mc_samples), int(seed))


@dataclass(frozen=True)
class PlaneSection:
    """Vertical cut through the axis, split into two half-plane branches.

    Branch points are (rho, z) pairs with rho the distance from the axis;
    the branches share the apex (0, R).
    """

    azimuth: float
    branch_pos: tuple[tuple[float, float], ...]
    branch_neg: tuple[tuple[float, float], ...]
    semi_axis_pos: float
    semi_axis_neg: float
    vertical_semi_axis: float

    def to_dict(self) -> dict:
        return {
            "azimuth": self.azimuth,
            "semi_axis_pos": self.semi_axis_pos,
            "semi_axis_neg": self.semi_axis_neg,
            "vertical_semi_axis": self.vertical_semi_axis,
            "branch_pos": [list(p) for p in self.branch_pos],
            "branch_neg": [list(p) for p in self.branch_neg],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def plane_section(azimuth: float, spec: SolidSpec, points_per_branch: int = 33) -> PlaneSection:
    """Sample both half-plane branches of the analytic surface.

    ``points_per_branch`` values of t are spaced uniformly over [0, pi/2],
    so both branches end at the shared apex point (0, R).
    """
    points_per_branch = _integer(points_per_branch, "points_per_branch", 2)

    def branch(phi: float) -> tuple[tuple[tuple[float, float], ...], float]:
        points = []
        for j in range(points_per_branch):
            t = (math.pi / 2.0) * (j / (points_per_branch - 1))
            x, y, z = surface_point(phi, t, spec)
            points.append((math.hypot(x, y), z))
        return tuple(points), spec.R / scaling_factor(phi, spec)

    branch_pos, axis_pos = branch(azimuth)
    branch_neg, axis_neg = branch(azimuth + math.pi)
    return PlaneSection(float(azimuth), branch_pos, branch_neg, axis_pos, axis_neg, spec.R)


def ellipse_residual(section: PlaneSection) -> float:
    """Worst deviation of any branch point from its branch's ellipse.

    Returns max |(rho/A)**2 + (z/R)**2 - 1| over all points, with A the
    branch's horizontal semi-axis; 0.0 for a section with no points.
    """
    worst = 0.0
    for points, axis in (
        (section.branch_pos, section.semi_axis_pos),
        (section.branch_neg, section.semi_axis_neg),
    ):
        for rho, z in points:
            value = (rho / axis) ** 2 + (z / section.vertical_semi_axis) ** 2
            worst = max(worst, abs(value - 1.0))
    return worst


def mesh_plane_section(mesh: TriangleMesh, azimuth: float, spec: SolidSpec) -> PlaneSection:
    """Cut a mesh with the vertical plane through the axis at ``azimuth``.

    Plane/triangle crossings are interpolated along triangle edges;
    segments lying in the base plane are discarded, surviving endpoints are
    assigned to the half-plane branches by the sign of their in-plane
    coordinate (points on the axis land in both branches), welded, and
    sorted by height.  A plane that misses the mesh yields empty branches.
    """
    phi = float(azimuth)
    if not math.isfinite(phi):
        raise ValueError(f"azimuth must be finite, got {azimuth!r}")
    normal = np.array([-math.sin(phi), math.cos(phi), 0.0])
    along = np.array([math.cos(phi), math.sin(phi), 0.0])
    tol = 1e-9 * spec.R
    vertices, triangles = mesh.vertices, mesh.triangles

    distances = vertices @ normal
    signs = np.zeros(len(distances), dtype=np.int8)
    signs[distances > tol] = 1
    signs[distances < -tol] = -1
    s0, s1, s2 = (signs[triangles[:, k]] for k in range(3))
    total = s0 + s1 + s2
    low = np.minimum(np.minimum(s0, s1), s2)
    crossing = (np.maximum(np.maximum(s0, s1), s2) > 0) & (low < 0)
    # Edges lying in the plane: counted once, from the triangle on the positive side.
    in_plane = triangles[(low == 0) & (total == 1)]

    def cut(ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
        w = distances[ia] / (distances[ia] - distances[ib])
        return vertices[ia] + w[:, None] * (vertices[ib] - vertices[ia])

    # Rotate each crossing triangle so corner 0 is the one alone on its side
    # of the plane, whose sign is minus the sign sum, or else (sum 0) the one on it.
    rows, lone = triangles[crossing], -total[crossing]
    first = np.argmax(signs[rows] == lone[:, None], axis=1)[:, None]
    i0, i1, i2 = np.take_along_axis(rows, (first + np.arange(3)) % 3, axis=1).T
    through = lone != 0  # no corner on the plane
    p = np.where(through[:, None], cut(i0, i1), vertices[i0])
    q = cut(np.where(through, i0, i1), i2)
    a, b = in_plane[signs[in_plane] == 0].reshape(-1, 2).T
    p = np.concatenate([p, vertices[a]])
    q = np.concatenate([q, vertices[b]])

    kept = ~((p[:, 2] <= tol) & (q[:, 2] <= tol))  # drop cuts through the flat base
    points = np.stack([p[kept], q[kept]], axis=1).reshape(-1, 3)
    entries = [(math.hypot(x, y), z) for x, y, z in points.tolist()]
    offsets = (points @ along).tolist()
    branch_pos = [entry for entry, s in zip(entries, offsets) if s >= -tol]
    branch_neg = [entry for entry, s in zip(entries, offsets) if s <= tol]

    return PlaneSection(
        phi,
        _weld_sorted(branch_pos, tol),
        _weld_sorted(branch_neg, tol),
        spec.R / scaling_factor(phi, spec),
        spec.R / scaling_factor(phi + math.pi, spec),
        spec.R,
    )


def _weld_sorted(points: list[tuple[float, float]], tol: float) -> tuple[tuple[float, float], ...]:
    welded: list[tuple[float, float]] = []
    for rho, z in sorted(points, key=lambda p: (p[1], p[0])):
        if welded and abs(z - welded[-1][1]) <= tol and abs(rho - welded[-1][0]) <= tol:
            continue
        welded.append((rho, z))
    return tuple(welded)


def write_section_csv(section: PlaneSection, sink) -> int:
    """Write branch points as CSV rows (branch, rho, z); returns line count."""
    lines = ["branch,rho,z"]
    for name, points in (("pos", section.branch_pos), ("neg", section.branch_neg)):
        lines.extend(f"{name},{rho!r},{z!r}" for rho, z in points)
    write_text(sink, "\n".join(lines) + "\n")
    return len(lines)
