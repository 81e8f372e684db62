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
    "build_slab_stack",
    "slab_stack_mesh",
    "convergence_profile",
    "write_slab_csv",
]

# Largest slab count: ``slabs`` at the bound (stack, profile and CSV) took 5.4 s
# and peaked at 213 MB on x86-64 with numpy 2.4.
_M_MAX = 2_000_000


def _mid_sq(i, m: int, spec: SolidSpec):
    """R**2 - z**2 at the mid-height z of slab ``i`` of ``m``, as (R - z)(R + z).

    Both factors come from the integer index, so nothing cancels.  Operators
    only, so ``i`` may be an int or an integer array.
    """
    h = spec.R / m
    return ((m - i + 0.5) * h) * ((m + i - 0.5) * h)


def _apothem_sq(i, m: int, spec: SolidSpec):
    """Squared apothem of slab ``i``: the mean of R**2 - z**2 over its slice."""
    h = spec.R / m
    return _mid_sq(i, m, spec) - h * h / 12.0


def _slice_volume(i, m: int, spec: SolidSpec):
    # the prism slab of apothem a: the regular n-gon's area times the height h
    return spec.n * math.tan(math.pi / spec.n) * (spec.R / m) * _apothem_sq(i, m, spec)


def slice_volume(i: int, m: int, spec: SolidSpec) -> float:
    """Volume of the ``i``-th of ``m`` equal-height slices, [(i-1)*R/m, i*R/m]."""
    m = _integer(m, "slab count m", 1, _M_MAX)
    return _slice_volume(_integer(i, "slab index", 1, m), m, spec)


@dataclass(frozen=True)
class SlabStack:
    """Apothems of the stacked prism slabs, bottom to top, as a read-only array."""

    m: int
    slab_height: float
    apothems: np.ndarray

    def __post_init__(self):
        apothems = np.array(self.apothems, dtype=float)
        apothems.setflags(write=False)
        object.__setattr__(self, "apothems", apothems)
        if self.m < 1 or apothems.shape != (self.m,):
            raise ValueError(f"expected {self.m} apothems, got shape {apothems.shape}")
        chain = np.concatenate(([math.inf], apothems, [0.0]))  # inf > a_1 > ... > a_m > 0; NaN fails
        if not (chain[:-1] > chain[1:]).all():
            raise ValueError("slab apothems must be positive and strictly decreasing")


def build_slab_stack(m: int, spec: SolidSpec) -> SlabStack:
    """Stack of ``m`` equal-volume prism slabs spanning heights [0, R]."""
    m = _integer(m, "slab count m", 1, _M_MAX)
    apothems = np.sqrt(_apothem_sq(np.arange(1, m + 1), m, spec))
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
    apothem = stack.apothems[ring // 2][:, None]
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
    """Each slab against the smooth cross-section at its mid-height, one array per field."""

    z_mid: np.ndarray
    slab_apothem: np.ndarray
    smooth_apothem: np.ndarray
    error: np.ndarray


def convergence_profile(stack: SlabStack, spec: SolidSpec) -> SlabComparison:
    """Per-slab apothem versus the smooth apothem sqrt(R**2 - z_mid**2)."""
    i = np.arange(1, stack.m + 1)
    smooth = np.sqrt(_mid_sq(i, stack.m, spec))
    return SlabComparison((i - 0.5) * stack.slab_height, stack.apothems, smooth, abs(stack.apothems - smooth))


def write_slab_csv(stack: SlabStack, spec: SolidSpec, sink) -> int:
    """Write one CSV row per slab and return the line count.

    Columns: index, z_lo, z_hi, apothem, volume (full-precision floats).
    """
    i = np.arange(1, stack.m + 1)
    h = stack.slab_height
    rows = np.column_stack([i, (i - 1) * h, i * h, stack.apothems, _slice_volume(i, stack.m, spec)])
    write_text(sink, "index,z_lo,z_hi,apothem,volume\n", ("%d,%r,%r,%r,%r\n", rows))
    return stack.m + 1
