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
the two array kernels use numpy, and they import it on first call, so the
scalar layer (and ``polydome params``) starts without it.
"""

import math
import numbers
from dataclasses import dataclass

__all__ = [
    "SolidSpec",
    "AngularDomain",
    "SurfaceSample",
    "sector_index",
    "scaling_factor",
    "scaling_factor_array",
    "base_point",
    "profile_arc_point",
    "surface_point",
    "surface_sample",
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


@dataclass(frozen=True)
class AngularDomain:
    """Azimuth domain [-pi/n, 2*pi - pi/n) split into n half-open sectors."""

    lo: float
    hi: float
    sector_width: float

    @classmethod
    def of(cls, spec: SolidSpec) -> "AngularDomain":
        half = math.pi / spec.n
        return cls(lo=-half, hi=_TWO_PI - half, sector_width=2.0 * half)

    def sector_interval(self, i: int) -> tuple[float, float]:
        """Half-open [lo, hi) azimuth interval of the 1-based sector ``i``."""
        lo = self.lo + (i - 1) * self.sector_width
        return lo, lo + self.sector_width

    def sector_midline(self, i: int) -> float:
        """Azimuth of sector ``i``'s midline (the outward normal of side i)."""
        return (i - 1) * self.sector_width


@dataclass(frozen=True)
class SurfaceSample:
    """A parameter pair together with its image point on the dome."""

    r: float
    t: float
    point: tuple[float, float, float]


def _check_azimuth(r: float) -> None:
    if not math.isfinite(r):
        raise ValueError(f"azimuth must be finite, got {r!r}")


def _check_profile_parameter(t: float) -> None:
    if not (math.isfinite(t) and 0.0 <= t <= _HALF_PI):
        raise ValueError(f"profile parameter t must lie in [0, pi/2], got {t!r}")


def sector_index(r: float, spec: SolidSpec) -> int:
    """1-based index of the polygon sector containing azimuth ``r``.

    ``r`` is wrapped into [-pi/n, 2*pi - pi/n) first; each sector is the
    half-open wedge of width 2*pi/n centered on one side's outward normal,
    and the upper edge of the last sector wraps to the first sector.
    """
    _check_azimuth(r)
    u = (r + math.pi / spec.n) % _TWO_PI
    return int(u // spec.sector_width) % spec.n + 1


def scaling_factor(r: float, spec: SolidSpec) -> float:
    """Cosine of the offset between ``r`` and its sector midline.

    Dividing ``R`` by this factor gives the support radius of the base
    polygon at azimuth ``r``; the value lies in [cos(pi/n), 1].
    """
    _check_azimuth(r)
    half = math.pi / spec.n
    u = (r + half) % _TWO_PI
    k = int(u // spec.sector_width) % spec.n
    return math.cos(u - k * spec.sector_width - half)


def scaling_factor_array(r, spec: SolidSpec):
    """Vectorized :func:`scaling_factor` over an array of azimuths."""
    import numpy as np

    half = math.pi / spec.n
    u = np.mod(np.asarray(r, dtype=float) + half, _TWO_PI)
    k = np.floor_divide(u, spec.sector_width)
    k = np.where(k >= spec.n, 0.0, k)
    return np.cos(u - k * spec.sector_width - half)


def base_point(r: float, spec: SolidSpec) -> tuple[float, float]:
    """Point of the base polygon boundary at azimuth ``r``."""
    radius = spec.R / scaling_factor(r, spec)
    return radius * math.cos(r), radius * math.sin(r)


def profile_arc_point(t: float, spec: SolidSpec) -> tuple[float, float, float]:
    """Point of the quarter-circle generator in the xz-plane, t in [0, pi/2]."""
    _check_profile_parameter(t)
    if t == _HALF_PI:
        # cos(pi/2) rounds to 6.1e-17; the arc's top point is exact by definition.
        return 0.0, 0.0, spec.R
    return spec.R * math.cos(t), 0.0, spec.R * math.sin(t)


def surface_point(r: float, t: float, spec: SolidSpec) -> tuple[float, float, float]:
    """Dome point at azimuth ``r`` and profile parameter ``t`` in [0, pi/2].

    At ``t = 0`` this agrees with :func:`base_point`; at ``t = pi/2`` every
    azimuth maps to the apex ``(0, 0, R)``.
    """
    _check_profile_parameter(t)
    if t == _HALF_PI:
        return 0.0, 0.0, spec.R
    radius = (spec.R / scaling_factor(r, spec)) * math.cos(t)
    return radius * math.cos(r), radius * math.sin(r), spec.R * math.sin(t)


def surface_sample(r: float, t: float, spec: SolidSpec) -> SurfaceSample:
    """Bundle ``(r, t)`` with its dome point."""
    return SurfaceSample(float(r), float(t), surface_point(r, t, spec))


def inside_solid(p, spec: SolidSpec) -> bool:
    """True iff ``p`` lies in the closed solid (boundary points included)."""
    x, y, z = (float(c) for c in p)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"point coordinates must be finite, got {p!r}")
    tol = spec.tolerance
    R = spec.R
    if z < -tol or z > R + tol:
        return False
    a = scaling_factor(math.atan2(y, x), spec)
    cross_section = math.sqrt(max(R * R - z * z, 0.0))
    return math.hypot(x, y) * a <= cross_section + tol


def inside_mask(points, spec: SolidSpec):
    """Vectorized :func:`inside_solid` over an (N, 3) array of points."""
    import numpy as np

    pts = np.asarray(points, dtype=float)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    tol = spec.tolerance
    R = spec.R
    a = scaling_factor_array(np.arctan2(y, x), spec)
    cross_section = np.sqrt(np.maximum(R * R - z * z, 0.0))
    return (z >= -tol) & (z <= R + tol) & (np.hypot(x, y) * a <= cross_section + tol)
