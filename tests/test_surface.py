import math
from fractions import Fraction

import numpy as np
import pytest

from polydome.surface import (
    SolidSpec,
    _sector_offset,
    inside_mask,
    inside_solid,
    scaling_factor,
    scaling_factor_array,
    surface_point,
)

TAU = 2.0 * math.pi


def sector_index(r, spec):
    """1-based sector of azimuth ``r``, read off its offset from the sector midline."""
    midline = r - _sector_offset(r, spec)
    return round(midline / spec.sector_width) % spec.n + 1


def base_point(r, spec):
    """Base polygon boundary point at azimuth ``r``: the surface at t = 0."""
    x, y, z = surface_point(r, 0.0, spec)
    assert z == 0.0
    return x, y


def profile_arc_point(t, spec):
    """The quarter-circle generator: the surface over the first sector's midline."""
    return surface_point(0.0, t, spec)


class TestSolidSpec:
    def test_valid(self):
        spec = SolidSpec(4, 1.0)
        assert spec.n == 4
        assert spec.R == 1.0
        assert spec.sector_width == pytest.approx(math.pi / 2)
        assert spec.circumradius == pytest.approx(math.sqrt(2.0))

    @pytest.mark.parametrize("n", [2, 1, 0, -3, 4.5])
    def test_rejects_bad_side_count(self, n):
        with pytest.raises(ValueError):
            SolidSpec(n, 1.0)

    @pytest.mark.parametrize("R", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_apothem(self, R):
        with pytest.raises(ValueError):
            SolidSpec(4, R)

    @pytest.mark.parametrize("R", [1e-31, 1e31, 1e200, 1e-200, 10**400, True, "1", 1j])
    def test_rejects_apothem_outside_the_range(self, R):
        with pytest.raises(ValueError, match=r"R must be a real number in \[1e-30, 1e\+30\]"):
            SolidSpec(4, R)

    @pytest.mark.parametrize("R", [1e-30, 1e30, 2, np.int64(2), np.float32(0.5), Fraction(1, 2)])
    def test_accepts_any_real_apothem_in_the_range(self, R):
        spec = SolidSpec(4, R)
        assert type(spec.R) is float and spec.R == float(R)

    @pytest.mark.parametrize("n", [True, "4", math.inf, math.nan])
    def test_rejects_non_integer_side_count(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            SolidSpec(n, 1.0)

    @pytest.mark.parametrize("n", [10**6 + 1, 10**400, 1e300])
    def test_rejects_side_count_above_the_bound(self, n):
        with pytest.raises(ValueError, match="n must be at most 1000000"):
            SolidSpec(n, 1.0)

    def test_accepts_side_count_at_the_bound(self):
        assert SolidSpec(10**6, 1.0).sector_width == 2.0 * math.pi / 10**6

    @pytest.mark.parametrize("R", [1e-30, 1e-14, 1.0, 1e30])
    def test_tolerance_is_relative_to_R(self, R):
        assert SolidSpec(4, R).tolerance == 1e-12 * R


class TestAngularDomain:
    """The azimuth domain [-pi/n, 2*pi - pi/n) and its n half-open sectors."""

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 12])
    def test_full_turn(self, n):
        spec = SolidSpec(n, 1.0)
        assert abs(n * spec.sector_width - TAU) < 1e-12
        assert _sector_offset(-math.pi / n, spec) == -math.pi / n  # the domain starts a sector
        for r in np.linspace(-3.0, 3.0, 61):
            assert abs(_sector_offset(r + TAU, spec) - _sector_offset(r, spec)) < 1e-12

    def test_sector_intervals_tile_the_domain(self):
        spec = SolidSpec(5, 1.0)
        half, eps = math.pi / 5, 1e-9
        for i in range(1, 6):
            lo = -half + (i - 1) * spec.sector_width
            assert _sector_offset(lo + eps, spec) == pytest.approx(eps - half, abs=1e-12)
            assert _sector_offset(lo + spec.sector_width - eps, spec) == pytest.approx(half - eps, abs=1e-12)
        assert lo + spec.sector_width == pytest.approx(TAU - half)

    def test_midlines(self):
        spec = SolidSpec(4, 1.0)
        for midline in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
            assert _sector_offset(midline, spec) == pytest.approx(0.0, abs=1e-15)


class TestSectorIndex:
    def test_first_sector_contains_zero(self):
        assert sector_index(0.0, SolidSpec(4, 1.0)) == 1

    def test_sector_centers(self):
        assert sector_index(math.pi / 2, SolidSpec(4, 1.0)) == 2

    def test_boundary_goes_to_upper_sector(self):
        # half-open sectors: pi/4 is the lower edge of sector 2 for n=4
        assert sector_index(math.pi / 4, SolidSpec(4, 1.0)) == 2

    def test_full_turn_wraps(self):
        assert sector_index(TAU, SolidSpec(5, 1.0)) == 1

    def test_domain_upper_edge_wraps_to_first_sector(self):
        spec = SolidSpec(5, 1.0)
        assert sector_index(TAU - math.pi / 5, spec) == 1

    def test_every_sector_reachable(self):
        spec = SolidSpec(7, 1.0)
        hits = {sector_index((i - 1) * spec.sector_width, spec) for i in range(1, 8)}
        assert hits == set(range(1, 8))

    @pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, r):
        with pytest.raises(ValueError, match="azimuth must be finite"):
            scaling_factor(r, SolidSpec(4, 1.0))


class TestScalingFactor:
    def test_sector_midline_gives_one(self):
        for n in (3, 4, 9):
            assert scaling_factor(0.0, SolidSpec(n, 1.0)) == 1.0

    def test_square_corner(self):
        assert scaling_factor(math.pi / 4, SolidSpec(4, 1.0)) == pytest.approx(
            math.cos(math.pi / 4), abs=1e-15
        )

    def test_pentagon_corner(self):
        assert scaling_factor(math.pi / 5, SolidSpec(5, 1.0)) == pytest.approx(
            math.cos(math.pi / 5), abs=1e-15
        )

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 12])
    def test_continuous_across_sector_boundaries(self, n):
        # evaluate the scaling factor formula with both adjacent sectors'
        # midline offsets at every boundary angle: cosine symmetry makes
        # them agree, so the half-open sector convention is invisible
        spec = SolidSpec(n, 1.0)
        width = spec.sector_width
        for i in range(1, n + 1):
            boundary = -math.pi / n + i * width
            left = math.cos(boundary - (i - 1) * width)
            right = math.cos(boundary - i * width)
            assert abs(left - right) < 1e-12
            assert abs(scaling_factor(boundary, spec) - left) < 1e-12
            assert abs(scaling_factor(boundary - 1e-13, spec) - left) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 6, 11])
    def test_range(self, n):
        spec = SolidSpec(n, 1.0)
        rng = np.random.default_rng(20240 + n)
        floor = math.cos(math.pi / n)
        for r in rng.uniform(-20.0, 20.0, 1000):
            a = scaling_factor(float(r), spec)
            assert floor - 1e-15 <= a <= 1.0

    def test_array_matches_scalar_bitwise(self):
        spec = SolidSpec(7, 2.5)
        rng = np.random.default_rng(11)
        r = rng.uniform(-15.0, 15.0, 500)
        vector = scaling_factor_array(r, spec)
        scalar = np.array([scaling_factor(float(v), spec) for v in r])
        assert (vector == scalar).all()


class TestWrapGuard:
    """Just below -pi/n, the wrapped azimuth can round up to 2*pi: the first sector again."""

    def test_scalar_and_array_agree_at_the_wrap(self):
        fired = 0
        for n in range(3, 200):
            spec = SolidSpec(n, 1.0)
            half = math.pi / n
            r = math.nextafter(-half, -math.inf)
            a = scaling_factor(r, spec)
            assert a == scaling_factor_array(np.array([r]), spec)[0]  # a > 0, so == is bitwise
            assert abs(a - math.cos(half)) <= 1e-15
            u = (r + half) % TAU
            if u // spec.sector_width >= n:
                fired += 1
                assert a == math.cos(u - half)  # sector 1, not sector n + 1
        assert fired > 0


def _point_segment_distance(p, a, b):
    p, a, b = np.asarray(p), np.asarray(a), np.asarray(b)
    ab = b - a
    t = float(np.clip(np.dot(p - a, ab) / np.dot(ab, ab), 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def _polygon_distance(p, spec):
    corners = [
        (
            spec.circumradius * math.cos(-math.pi / spec.n + k * spec.sector_width),
            spec.circumradius * math.sin(-math.pi / spec.n + k * spec.sector_width),
        )
        for k in range(spec.n)
    ]
    return min(
        _point_segment_distance(p, corners[k], corners[(k + 1) % spec.n])
        for k in range(spec.n)
    )


class TestBasePoint:
    def test_edge_midpoint(self):
        assert base_point(0.0, SolidSpec(4, 1.0)) == pytest.approx((1.0, 0.0))

    def test_square_corner(self):
        x, y = base_point(math.pi / 4, SolidSpec(4, 1.0))
        assert (x, y) == pytest.approx((1.0, 1.0), abs=1e-12)
        assert math.hypot(x, y) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_opposite_edge_midpoint(self):
        assert base_point(math.pi, SolidSpec(4, 2.0)) == pytest.approx((-2.0, 0.0), abs=1e-12)

    @pytest.mark.parametrize("n,R", [(3, 1.0), (4, 1.0), (5, 2.5), (9, 0.5)])
    def test_base_closure(self, n, R):
        # densely sampled boundary points lie on the true polygon
        spec = SolidSpec(n, R)
        for r in np.linspace(-math.pi / n, TAU - math.pi / n, 720, endpoint=False):
            assert _polygon_distance(base_point(float(r), spec), spec) < 1e-12 * max(1.0, R)


class TestProfileArcPoint:
    def test_foot(self):
        assert profile_arc_point(0.0, SolidSpec(4, 1.0)) == (1.0, 0.0, 0.0)

    def test_apex(self):
        assert profile_arc_point(math.pi / 2, SolidSpec(4, 1.0)) == (0.0, 0.0, 1.0)

    def test_arc_midpoint(self):
        assert profile_arc_point(math.pi / 4, SolidSpec(4, 2.0)) == pytest.approx(
            (math.sqrt(2.0), 0.0, math.sqrt(2.0))
        )

    def test_on_circle(self):
        spec = SolidSpec(6, 1.5)
        for t in np.linspace(0.0, math.pi / 2, 50):
            x, _, z = profile_arc_point(float(t), spec)
            assert x * x + z * z == pytest.approx(spec.R**2, rel=1e-14)

    @pytest.mark.parametrize("t", [-1e-9, math.pi / 2 + 1e-9, math.nan])
    def test_rejects_out_of_range(self, t):
        with pytest.raises(ValueError):
            profile_arc_point(t, SolidSpec(4, 1.0))


def _rotation_matrix_point(r, t, spec):
    # independent route: z-rotation applied to the radially scaled profile arc
    a = scaling_factor(r, spec)
    arc = np.array([(spec.R / a) * math.cos(t), 0.0, spec.R * math.sin(t)])
    rot = np.array(
        [
            [math.cos(r), -math.sin(r), 0.0],
            [math.sin(r), math.cos(r), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    return rot @ arc


class TestSurfacePoint:
    def test_base_edge_midpoint(self):
        assert surface_point(0.0, 0.0, SolidSpec(4, 1.0)) == pytest.approx((1.0, 0.0, 0.0))

    def test_apex_for_any_azimuth(self):
        spec = SolidSpec(7, 3.0)
        for r in (-1.0, 0.0, 2.3, 11.0):
            assert surface_point(r, math.pi / 2, spec) == (0.0, 0.0, 3.0)

    def test_interior_sample(self):
        x, y, z = surface_point(math.pi / 4, math.pi / 3, SolidSpec(4, 1.0))
        assert (x, y, z) == pytest.approx((0.5, 0.5, math.sqrt(3.0) / 2), abs=1e-12)

    def test_matches_base_point_at_t_zero(self):
        # at t = 0 the surface is the base polygon's boundary
        spec = SolidSpec(5, 2.0)
        for r in np.linspace(-3.0, 7.0, 40):
            x, y, z = surface_point(float(r), 0.0, spec)
            assert _polygon_distance((x, y), spec) < 1e-12 * spec.R
            assert z == 0.0

    def test_rotation_matrix_route_agrees(self):
        spec = SolidSpec(5, 2.0)
        rng = np.random.default_rng(99)
        for _ in range(300):
            r = float(rng.uniform(-8.0, 8.0))
            t = float(rng.uniform(0.0, math.pi / 2))
            direct = np.array(surface_point(r, t, spec))
            rotated = _rotation_matrix_point(r, t, spec)
            assert np.max(np.abs(direct - rotated)) < 1e-12

    @pytest.mark.parametrize("n,R", [(3, 1.0), (4, 1.0), (8, 2.5)])
    def test_periodicity(self, n, R):
        spec = SolidSpec(n, R)
        rng = np.random.default_rng(5 + n)
        for _ in range(1000):
            r = float(rng.uniform(-8.0, 8.0))
            t = float(rng.uniform(0.0, math.pi / 2))
            p = np.array(surface_point(r, t, spec))
            q = np.array(surface_point(r + TAU, t, spec))
            assert np.max(np.abs(p - q)) < 1e-12 * max(1.0, R)

    @pytest.mark.parametrize("n,R", [(3, 1.0), (4, 1.0), (6, 0.5)])
    def test_elliptic_profile_identity(self, n, R):
        # at fixed azimuth the (rho, z) trace satisfies
        # rho^2/(R/a)^2 + z^2/R^2 = 1
        spec = SolidSpec(n, R)
        rng = np.random.default_rng(17 + n)
        for _ in range(200):
            phi = float(rng.uniform(-7.0, 7.0))
            t = float(rng.uniform(0.0, math.pi / 2))
            x, y, z = surface_point(phi, t, spec)
            axis = spec.R / scaling_factor(phi, spec)
            value = (math.hypot(x, y) / axis) ** 2 + (z / spec.R) ** 2
            assert abs(value - 1.0) < 1e-12

    def test_square_diagonal_is_the_sqrt2_ellipse(self):
        spec = SolidSpec(4, 1.0)
        for t in np.linspace(0.0, math.pi / 2, 33):
            x, y, z = surface_point(math.pi / 4, float(t), spec)
            rho = math.hypot(x, y)
            assert abs(rho**2 / 2.0 + z**2 - 1.0) < 1e-12

    def test_rejects_t_out_of_range(self):
        with pytest.raises(ValueError):
            surface_point(0.0, math.pi, SolidSpec(4, 1.0))


class TestSurfaceSample:
    def test_invariants(self):
        spec = SolidSpec(6, 2.0)
        rng = np.random.default_rng(1)
        for _ in range(100):
            r = float(rng.uniform(-6.0, 6.0))
            t = float(rng.uniform(0.0, math.pi / 2))
            x, y, z = surface_point(r, t, spec)
            assert abs(z - spec.R * math.sin(t)) < 1e-12 * spec.R
            expected_rho = (spec.R / scaling_factor(r, spec)) * math.cos(t)
            assert abs(math.hypot(x, y) - expected_rho) < 1e-12 * spec.R


class TestInsideSolid:
    def test_axis_is_interior(self):
        for n, R in ((3, 1.0), (8, 2.0)):
            assert inside_solid((0.0, 0.0, R / 2), SolidSpec(n, R))

    @pytest.mark.parametrize("R", [1.0, 2.5])
    def test_base_corner_height_excludes_wide_point(self, R):
        # cross-section apothem at z = 0.9R is sqrt(0.19)*R ~ 0.436R < R
        assert not inside_solid((R, 0.0, 0.9 * R), SolidSpec(4, R))

    def test_above_apex(self):
        assert not inside_solid((0.0, 0.0, 1.1), SolidSpec(5, 1.0))

    def test_boundary_counts_as_inside(self):
        spec = SolidSpec(4, 1.0)
        assert inside_solid(surface_point(0.3, 0.4, spec), spec)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            inside_solid((math.nan, 0.0, 0.0), SolidSpec(4, 1.0))

    @pytest.mark.parametrize("n,R", [(3, 1.0), (4, 1.0), (7, 2.5)])
    def test_membership_consistency(self, n, R):
        # radially shrunk surface points are inside, inflated ones are not
        spec = SolidSpec(n, R)
        rng = np.random.default_rng(31 + n)
        for _ in range(500):
            r = float(rng.uniform(-7.0, 7.0))
            t = float(rng.uniform(0.0, math.pi / 2))
            x, y, z = surface_point(r, t, spec)
            assert inside_solid((0.999 * x, 0.999 * y, z), spec)
            if math.hypot(x, y) > 1e-9 * R:
                assert not inside_solid((1.001 * x, 1.001 * y, z), spec)

    def test_mask_matches_scalar(self):
        rng = np.random.default_rng(3)
        for n, R in ((3, 0.5), (4, 1.0), (7, 2.5)):
            spec = SolidSpec(n, R)
            points = rng.uniform(-1.5 * spec.circumradius, 1.5 * spec.circumradius, (4000, 3))
            points[:, 2] = rng.uniform(-0.2 * R, 1.2 * R, 4000)
            mask = inside_mask(points, spec)
            scalar = np.array([inside_solid(p, spec) for p in points])
            assert (mask == scalar).all()
