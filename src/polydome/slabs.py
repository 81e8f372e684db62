"""Equal-volume slab stacks whose staircase converges to the smooth dome.

The solid is sliced into ``m`` horizontal slices of equal height; each
slice is replaced by a prism slab over the same regular n-gon family whose
volume equals the slice's (so the stack preserves the total volume for
every ``m``), and the slabs are stacked concentrically.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._io import write_text
from .meshing import _MAX_TRIANGLES, TriangleMesh
from .surface import SolidSpec, _integer

__all__ = [
    "SlabStack",
    "SlabComparison",
    "slice_volume",
    "slab_apothem",
    "build_slab_stack",
    "slab_stack_mesh",
    "convergence_profile",
    "write_slab_csv",
]


def _footprint_per_apothem_sq(spec: SolidSpec) -> float:
    # regular n-gon area = n * tan(pi/n) * apothem**2
    return spec.n * math.tan(math.pi / spec.n)


def slice_volume(i: int, m: int, spec: SolidSpec) -> float:
    """Volume of the ``i``-th of ``m`` equal-height horizontal slices.

    Closed-form integral of the cross-section area
    ``n * tan(pi/n) * (R**2 - z**2)`` over ``[(i-1)*R/m, i*R/m]``.
    """
    m = _integer(m, "slab count m", 1)
    i = _integer(i, "slab index", 1, m)
    R = spec.R
    h = R / m
    z0 = (i - 1) * h
    z1 = i * h
    return _footprint_per_apothem_sq(spec) * (
        (R * R * z1 - z1**3 / 3.0) - (R * R * z0 - z0**3 / 3.0)
    )


def slab_apothem(i: int, m: int, spec: SolidSpec) -> float:
    """Apothem of the prism slab with the same volume as slice ``i``."""
    h = spec.R / m
    return math.sqrt(slice_volume(i, m, spec) / (h * _footprint_per_apothem_sq(spec)))


@dataclass(frozen=True)
class SlabStack:
    """Apothems of the stacked prism slabs, bottom to top."""

    m: int
    slab_height: float
    apothems: tuple[float, ...]

    def __post_init__(self):
        if self.m < 1 or len(self.apothems) != self.m:
            raise ValueError(f"expected {self.m} apothems, got {len(self.apothems)}")
        previous = math.inf
        for apothem in self.apothems:
            if not 0.0 < apothem < previous:
                raise ValueError("slab apothems must be positive and strictly decreasing")
            previous = apothem

    def z_bounds(self, i: int) -> tuple[float, float]:
        """Height interval of the 1-based slab ``i``."""
        return (i - 1) * self.slab_height, i * self.slab_height


def build_slab_stack(m: int, spec: SolidSpec) -> SlabStack:
    """Stack of ``m`` equal-volume prism slabs spanning heights [0, R]."""
    m = _integer(m, "slab count m", 1)
    apothems = tuple(slab_apothem(i, m, spec) for i in range(1, m + 1))
    return SlabStack(m=m, slab_height=spec.R / m, apothems=apothems)


def slab_stack_mesh(stack: SlabStack, spec: SolidSpec) -> TriangleMesh:
    """Watertight boundary mesh of the staircase union of prism slabs.

    Includes the exposed flat ring wherever a slab steps inward from the one
    below it; both caps are fanned from their first corner.
    """
    n, m = spec.n, stack.m
    _integer(4 * n * m - 4, "triangle count 4*n*m - 4", 1, _MAX_TRIANGLES)
    cos_half = math.cos(math.pi / n)
    angles = -math.pi / n + np.arange(n) * (2.0 * math.pi / n)
    ux = np.cos(angles) / cos_half
    uy = np.sin(angles) / cos_half

    # Ring 0 is the base; ring 2i+1 is the top of slab i and ring 2i+2 the
    # bottom of slab i+1, at the same height; ring 2m-1 is the top cap.
    ring = np.arange(2 * m)
    apothem = np.asarray(stack.apothems)[ring // 2][:, None]
    z = ((ring + 1) // 2) * stack.slab_height
    vertices = np.stack([apothem * ux, apothem * uy, np.repeat(z[:, None], n, axis=1)], axis=-1)

    k = np.arange(n)
    k1 = (k + 1) % n
    fan = np.arange(1, n - 1)
    base, top = 0, (2 * m - 1) * n

    def bands(lower: np.ndarray) -> np.ndarray:
        # two triangles per side between each ring offset in ``lower`` and the next ring
        a = lower[:, None]
        b = a + n
        halves = [np.stack([a + k, a + k1, b + k1], axis=-1), np.stack([a + k, b + k1, b + k], axis=-1)]
        return np.stack(halves, axis=1).reshape(-1, 3)

    triangles = [
        np.column_stack([np.full(n - 2, base), base + fan + 1, base + fan]),  # cap faces -z
        np.column_stack([np.full(n - 2, top), top + fan, top + fan + 1]),  # cap faces +z
        bands(ring[0::2] * n),  # slab walls
        bands(ring[1:-1:2] * n),  # steps, the exposed flat rings
    ]
    return TriangleMesh(vertices, np.concatenate(triangles))


class SlabComparison(NamedTuple):
    """One slab against the smooth cross-section at the slab's mid-height."""

    z_mid: float
    slab_apothem: float
    smooth_apothem: float
    error: float


def convergence_profile(m: int, spec: SolidSpec) -> list[SlabComparison]:
    """Per-slab apothem versus the smooth apothem sqrt(R**2 - z_mid**2)."""
    stack = build_slab_stack(m, spec)
    rows = []
    for i, apothem in enumerate(stack.apothems, start=1):
        z_mid = (i - 0.5) * stack.slab_height
        smooth = math.sqrt(max(spec.R**2 - z_mid**2, 0.0))
        rows.append(SlabComparison(z_mid, apothem, smooth, abs(apothem - smooth)))
    return rows


def write_slab_csv(stack: SlabStack, spec: SolidSpec, sink) -> int:
    """Write one CSV row per slab and return the line count.

    Columns: index, z_lo, z_hi, apothem, volume (full-precision floats).
    """
    lines = ["index,z_lo,z_hi,apothem,volume"]
    for i, apothem in enumerate(stack.apothems, start=1):
        z_lo, z_hi = stack.z_bounds(i)
        volume = slice_volume(i, stack.m, spec)
        lines.append(f"{i},{z_lo!r},{z_hi!r},{apothem!r},{volume!r}")
    write_text(sink, "\n".join(lines) + "\n")
    return len(lines)
