"""Core parametrization of a dome over a regular polygonal base.

The solid is fixed by two numbers: the side count ``n`` of the base polygon
and its apothem ``R`` (the in-circle radius, half the distance between
opposite sides for even ``n``).  Every horizontal cross-section at height
``z`` is the concentric regular n-gon with apothem ``sqrt(R**2 - z**2)``,
so the boundary is swept by a quarter-circle profile of radius ``R`` whose
horizontal coordinate is stretched by ``1 / a(r)``, where the scaling
factor ``a`` is the cosine of the angular offset between the azimuth ``r``
and the midline of the polygon sector containing it.

All angles are radians; all functions here are pure and thread-safe.  Only
``scaling_factor_array`` and the membership test use numpy, and they import
it on first call, so the rest (and ``polydome params``) starts without it.
"""

import math
import numbers
from dataclasses import dataclass

__all__ = [
    "SolidSpec",
    "scaling_factor",
    "scaling_factor_array",
    "surface_point",
    "inside_solid",
    "inside_mask",
]

_TWO_PI = 2.0 * math.pi
_HALF_PI = math.pi / 2.0

# Valid apothems: R**3 stays finite and float32 STL coordinates stay normal.
_R_RANGE = (1e-30, 1e30)

# Largest side count: far past any useful polygon, and it keeps per-sector work bounded.
_N_MAX = 10**6


def _integer(value, name: str, minimum: int, maximum: int | None = None) -> int:
    """``value`` as an int if it is an integral number (not a bool) in [minimum, maximum]."""
    try:
        integral = not isinstance(value, bool) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be at most {maximum}, got {value}")
    return int(value)


@dataclass(frozen=True)
class SolidSpec:
    """Regular polygonal base: ``n`` sides and in-circle radius ``R``."""

    n: int
    R: float

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n", 3, _N_MAX))
        R = self.R
        lo, hi = _R_RANGE
        if isinstance(R, bool) or not isinstance(R, numbers.Real) or not lo <= R <= hi:
            raise ValueError(f"R must be a real number in [{lo:g}, {hi:g}], got {R!r}")
        object.__setattr__(self, "R", float(R))

    @property
    def sector_width(self) -> float:
        """Angular width of one polygon sector, 2*pi/n."""
        return _TWO_PI / self.n

    @property
    def circumradius(self) -> float:
        """Distance from the center to a base polygon vertex, R/cos(pi/n)."""
        return self.R / math.cos(math.pi / self.n)

    @property
    def tolerance(self) -> float:
        """Comparison tolerance for lengths: relative to R, so it scales with the solid."""
        return 1e-12 * self.R


def _check_azimuth(r: float) -> None:
    if not math.isfinite(r):
        raise ValueError(f"azimuth must be finite, got {r!r}")


def _check_profile_parameter(t: float) -> None:
    if not (math.isfinite(t) and 0.0 <= t <= _HALF_PI):
        raise ValueError(f"profile parameter t must lie in [0, pi/2], got {t!r}")


def _sector_offset(r, spec: SolidSpec):
    """Offset of azimuth ``r`` from the midline of the sector containing it.

    ``r`` is wrapped into [-pi/n, 2*pi - pi/n), which splits into n
    half-open sectors of width 2*pi/n, each centered on one side's outward
    normal.  Only arithmetic operators, so ``r`` may be a float or an array.
    """
    half = math.pi / spec.n
    u = (r + half) % _TWO_PI
    k = u // spec.sector_width
    k = k * (k < spec.n)  # u may round up to 2*pi, the start of the first sector
    return u - k * spec.sector_width - half


def scaling_factor(r: float, spec: SolidSpec) -> float:
    """Cosine of the offset between ``r`` and its sector midline.

    Dividing ``R`` by this factor gives the support radius of the base
    polygon at azimuth ``r``; the value lies in [cos(pi/n), 1].
    """
    _check_azimuth(r)
    return math.cos(_sector_offset(r, spec))


def scaling_factor_array(r, spec: SolidSpec):
    """Vectorized :func:`scaling_factor` over an array of azimuths."""
    import numpy as np

    return np.cos(_sector_offset(np.asarray(r, dtype=float), spec))


def surface_point(r: float, t: float, spec: SolidSpec) -> tuple[float, float, float]:
    """Dome point at azimuth ``r`` and profile parameter ``t`` in [0, pi/2].

    At ``t = 0`` this is the base polygon's boundary point at azimuth ``r``;
    at ``t = pi/2`` every azimuth maps to the apex ``(0, 0, R)``.
    """
    _check_profile_parameter(t)
    if t == _HALF_PI:
        return 0.0, 0.0, spec.R
    radius = (spec.R / scaling_factor(r, spec)) * math.cos(t)
    return radius * math.cos(r), radius * math.sin(r), spec.R * math.sin(t)


def inside_solid(p, spec: SolidSpec) -> bool:
    """True iff ``p`` lies in the closed solid (boundary points included)."""
    x, y, z = (float(c) for c in p)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"point coordinates must be finite, got {p!r}")
    return bool(inside_mask([(x, y, z)], spec)[0])


def inside_mask(points, spec: SolidSpec):
    """Closed-solid membership of each row of an (N, 3) array of points."""
    import numpy as np

    pts = np.asarray(points, dtype=float)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    tol = spec.tolerance
    R = spec.R
    a = scaling_factor_array(np.arctan2(y, x), spec)
    cross_section = np.sqrt(np.maximum(R * R - z * z, 0.0))
    return (z >= -tol) & (z <= R + tol) & (np.hypot(x, y) * a <= cross_section + tol)
