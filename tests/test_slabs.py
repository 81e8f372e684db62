import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from polydome.analysis import solid_volume
from polydome.slabs import (
    SlabStack,
    build_slab_stack,
    convergence_profile,
    slab_stack_mesh,
    slice_volume,
    write_slab_csv,
)
from polydome.surface import SolidSpec, scaling_factor, surface_point

SQUARE = SolidSpec(4, 1.0)
PENTAGON = SolidSpec(5, 1.0)


def quadrature_slice_volume(i, m, spec):
    """Independent oracle: numeric integral of the cross-section area."""
    coeff = spec.n * math.tan(math.pi / spec.n)
    area = lambda z: coeff * (spec.R**2 - z**2)
    value, abserr = quad(area, (i - 1) * spec.R / m, i * spec.R / m, epsabs=1e-14, epsrel=1e-13)
    return value


class TestSliceVolume:
    def test_single_slab_is_whole_solid(self):
        assert slice_volume(1, 1, SQUARE) == pytest.approx(8.0 / 3.0, rel=1e-15)

    def test_partition_additivity(self):
        total = sum(slice_volume(i, 17, PENTAGON) for i in range(1, 18))
        # frozen via the closed form and the quadrature oracle
        assert total == pytest.approx(2.4218084266845366, rel=1e-13)
        assert total == pytest.approx(solid_volume(PENTAGON), rel=1e-13)

    @pytest.mark.parametrize("n,R,m", [(4, 1.0, 5), (3, 2.5, 9), (7, 0.5, 4)])
    def test_matches_quadrature_oracle(self, n, R, m):
        spec = SolidSpec(n, R)
        for i in range(1, m + 1):
            assert slice_volume(i, m, spec) == pytest.approx(
                quadrature_slice_volume(i, m, spec), rel=1e-12
            )

    def test_top_slab_shrinks_like_the_closed_form(self):
        # exact top-slab volume is coeff * (R*h**2 - h**3/3) with h = R/m
        m = 1000
        spec = SQUARE
        coeff = spec.n * math.tan(math.pi / spec.n)
        h = spec.R / m
        expected = coeff * (spec.R * h * h - h**3 / 3.0)
        assert slice_volume(m, m, spec) == pytest.approx(expected, rel=1e-9)
        assert slice_volume(m, m, spec) == pytest.approx(
            quadrature_slice_volume(m, m, spec), rel=1e-9
        )

    @pytest.mark.parametrize("i,m", [(0, 4), (5, 4), (-1, 4), (1, 0), (2.5, 4)])
    def test_rejects_bad_indices(self, i, m):
        with pytest.raises(ValueError):
            slice_volume(i, m, SQUARE)


def csv_rows(stack, spec):
    sink = io.StringIO()
    write_slab_csv(stack, spec, sink)
    return [[float(field) for field in line.split(",")] for line in sink.getvalue().splitlines()[1:]]


def profile(m, spec):
    return convergence_profile(build_slab_stack(m, spec), spec)


class TestSlabApothem:
    def test_single_slab(self):
        assert build_slab_stack(1, SQUARE).apothems[0] == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-15)

    def test_bottom_slab_tends_to_base_apothem(self):
        assert build_slab_stack(10**6, SolidSpec(6, 2.0)).apothems[0] == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("n,R", [(4, 1.0), (5, 2.5), (3, 0.5)])
    @pytest.mark.parametrize("m", [1, 2, 7, 32])
    def test_midpoint_law_is_exact(self, n, R, m):
        # slab average of the concave profile R^2 - z^2 sits (R/m)^2/12
        # below its midpoint value, exactly
        spec = SolidSpec(n, R)
        h = spec.R / m
        for i, apothem in enumerate(build_slab_stack(m, spec).apothems, start=1):
            z_mid = (i - 0.5) * h
            gap = (spec.R**2 - z_mid**2) - apothem**2
            assert abs(gap - h * h / 12.0) < 1e-12 * max(1.0, spec.R**2)


class TestBuildSlabStack:
    def test_single_slab(self):
        stack = build_slab_stack(1, SQUARE)
        assert stack.m == 1
        assert stack.apothems.tolist() == [pytest.approx(math.sqrt(2.0 / 3.0))]

    def test_apothems_strictly_decreasing_and_bounded(self):
        stack = build_slab_stack(4, SQUARE)
        assert all(a > b for a, b in zip(stack.apothems, stack.apothems[1:]))
        assert all(0.0 < a <= SQUARE.R for a in stack.apothems)

    def test_stack_height(self):
        spec = SolidSpec(5, 2.5)
        stack = build_slab_stack(7, spec)
        assert abs(stack.m * stack.slab_height - 2.5) < 1e-12 * 2.5
        rows = csv_rows(stack, spec)
        assert rows[0][1:3] == [0.0, stack.slab_height]
        assert [row[1] for row in rows[1:]] == [row[2] for row in rows[:-1]]
        assert abs(rows[-1][2] - 2.5) < 1e-12 * 2.5

    @pytest.mark.parametrize("m", [1, 2, 7, 32, 128])
    def test_volume_preserved_for_any_slab_count(self, m):
        spec = SolidSpec(5, 1.5)
        coeff = spec.n * math.tan(math.pi / spec.n)
        stack = build_slab_stack(m, spec)
        total = sum(coeff * a * a * stack.slab_height for a in stack.apothems)
        assert abs(total - solid_volume(spec)) / solid_volume(spec) < 1e-12

    @pytest.mark.parametrize("m", [0, -3, 2.5])
    def test_rejects_bad_slab_count(self, m):
        with pytest.raises(ValueError):
            build_slab_stack(m, SQUARE)

    def test_stack_validation_rejects_non_decreasing(self):
        with pytest.raises(ValueError):
            SlabStack(m=2, slab_height=0.5, apothems=(0.5, 0.9))

    @pytest.mark.parametrize("apothems", [
        (math.nextafter(0.5, 1.0), 0.5, 5e-324),  # one ulp apart, subnormal top
        (1.7976931348623157e308,),  # largest finite bottom
    ])
    def test_stack_validation_accepts_its_boundaries(self, apothems):
        assert SlabStack(len(apothems), 1.0, apothems).apothems.tolist() == list(apothems)

    @pytest.mark.parametrize("apothems", [
        (0.9, 0.0),  # top exactly zero
        (0.9, -0.0),
        (0.9, 0.5, 0.5),  # equal neighbours
        (0.9, 0.5, 0.5, 0.1),
        (math.inf, 0.5),
        (math.nan,),
        (math.nan, 0.5, 0.1),
        (0.9, math.nan, 0.1),
        (0.9, 0.5, math.nan),
    ])
    def test_stack_validation_rejects_each_boundary(self, apothems):
        with pytest.raises(ValueError, match="^slab apothems must be positive and strictly decreasing$"):
            SlabStack(len(apothems), 1.0, apothems)

    @pytest.mark.parametrize("m,apothems", [(3, (0.9, 0.5)), (1, (0.9, 0.5)), (2, ((0.9, 0.5),)), (0, ())])
    def test_stack_validation_rejects_a_wrong_length(self, m, apothems):
        with pytest.raises(ValueError, match=f"^expected {m} apothems, got shape "):
            SlabStack(m, 1.0, apothems)

    def test_apothems_are_a_read_only_copy(self):
        source = np.array([0.9, 0.5])
        stack = SlabStack(2, 0.5, source)
        source[0] = 0.1
        assert stack.apothems.tolist() == [0.9, 0.5]
        with pytest.raises(ValueError, match="read-only"):
            stack.apothems[0] = 1.0


def exact_apothem(i, m, R):
    """Correctly rounded sqrt of the slice mean of R**2 - z**2, in exact arithmetic."""
    R = Fraction(R)
    h = R / m
    square = R * R - ((i - Fraction(1, 2)) * h) ** 2 - h * h / 12
    shift = 200 - (square.numerator.bit_length() - square.denominator.bit_length()) // 2
    return float(Fraction(math.isqrt(square.numerator * 4**shift // square.denominator), 2**shift))


class TestExactness:
    """The slab layer carries no cancellation: it is exact to about an ulp at every m."""

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(3, 16),
        exponent=st.floats(-30.0, 30.0),
        m=st.integers(1, 10**6),
        data=st.data(),
    )
    def test_apothems_are_within_two_ulps_of_the_exact_value(self, n, exponent, m, data):
        R = min(max(10.0**exponent, 1e-30), 1e30)
        apothems = build_slab_stack(m, SolidSpec(n, R)).apothems
        sampled = data.draw(st.lists(st.integers(1, m), max_size=8))
        for i in {1, m, *sampled}:
            exact = exact_apothem(i, m, R)
            assert abs(apothems[i - 1] - exact) <= 2 * math.ulp(exact), (i, apothems[i - 1], exact)

    @pytest.mark.parametrize("n,R", [(4, 1.0), (5, 1e-30), (3, 1e30)])
    @pytest.mark.parametrize("m", [1, 2000, 10**5])
    def test_csv_volumes_sum_to_the_solid(self, n, R, m):
        spec = SolidSpec(n, R)
        total = math.fsum(row[4] for row in csv_rows(build_slab_stack(m, spec), spec))
        assert abs(total - solid_volume(spec)) <= 1e-15 * solid_volume(spec)

    @pytest.mark.parametrize("n,R", [(4, 1.0), (9, 1e30)])
    @pytest.mark.parametrize("m", [10**4, 10**5, 10**6])
    def test_midpoint_law_holds_at_large_m(self, n, R, m):
        spec = SolidSpec(n, R)
        rows = profile(m, spec)
        law = (spec.R / m) ** 2 / 12.0
        gaps = rows.smooth_apothem**2 - rows.slab_apothem**2
        assert abs(gaps.max() - law) <= 0.02 * law and abs(gaps.min() - law) <= 0.02 * law


def reference_staircase(stack, spec):
    """Ring-by-ring loop construction the vectorized mesh must match exactly."""
    n = spec.n
    cos_half = math.cos(math.pi / n)
    angles = -math.pi / n + np.arange(n) * (2.0 * math.pi / n)
    ux = np.cos(angles) / cos_half
    uy = np.sin(angles) / cos_half
    h = stack.slab_height
    rings, walls, steps = [], [], []
    for i, apothem in enumerate(stack.apothems):
        bottom = len(rings) * n
        rings.append(np.column_stack([apothem * ux, apothem * uy, np.full(n, i * h)]))
        if i:
            steps.append((bottom - n, bottom))
        top = len(rings) * n
        rings.append(np.column_stack([apothem * ux, apothem * uy, np.full(n, (i + 1) * h)]))
        walls.append((bottom, top))
    k = np.arange(n)
    k1 = (k + 1) % n
    fan = np.arange(1, n - 1)
    triangles = [
        np.column_stack([np.zeros(n - 2, dtype=int), fan + 1, fan]),
        np.column_stack([np.full(n - 2, top), top + fan, top + fan + 1]),
    ]
    for lower, upper in walls + steps:
        triangles.append(np.column_stack([lower + k, lower + k1, upper + k1]))
        triangles.append(np.column_stack([lower + k, upper + k1, upper + k]))
    return np.concatenate(rings), np.concatenate(triangles)


class TestSlabStackMesh:
    @pytest.mark.parametrize("n,m,R", [(3, 1, 1.0), (4, 2, 0.5), (7, 33, 2.0), (12, 100, 1e-3), (16, 250, 75.0)])
    def test_matches_loop_reference(self, n, m, R):
        spec = SolidSpec(n, R)
        stack = build_slab_stack(m, spec)
        mesh = slab_stack_mesh(stack, spec)
        vertices, triangles = reference_staircase(stack, spec)
        assert mesh.vertices.tobytes() == vertices.tobytes()
        assert np.array_equal(mesh.triangles, triangles)

    def test_single_slab_is_a_box(self):
        mesh = slab_stack_mesh(build_slab_stack(1, SQUARE), SQUARE)
        assert mesh.triangle_count == 12
        assert mesh.signed_volume() == pytest.approx(8.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 7, 32])
    def test_watertight_staircase(self, m):
        spec = SolidSpec(6, 1.0)
        mesh = slab_stack_mesh(build_slab_stack(m, spec), spec)
        assert mesh.is_watertight()
        assert mesh.euler_characteristic() == 2
        assert mesh.signed_volume() > 0.0

    @pytest.mark.parametrize("m", [1, 3, 32])
    def test_mesh_volume_equals_slab_volumes(self, m):
        spec = SolidSpec(7, 2.0)
        mesh = slab_stack_mesh(build_slab_stack(m, spec), spec)
        total = sum(slice_volume(i, m, spec) for i in range(1, m + 1))
        assert abs(mesh.signed_volume() - total) / total < 1e-9


class TestConvergenceProfile:
    def test_single_slab_row(self):
        rows = profile(1, SQUARE)
        assert all(len(column) == 1 for column in rows)
        z_mid, slab, smooth, error = (column[0] for column in rows)
        assert z_mid == pytest.approx(0.5)
        assert slab == pytest.approx(math.sqrt(2.0 / 3.0))
        assert smooth == pytest.approx(math.sqrt(0.75))
        # |sqrt(2/3) - sqrt(3)/2|
        assert error == pytest.approx(0.04952882285671256, abs=1e-15)

    def test_bottom_slab_error_is_smallest(self):
        errors = profile(20, SQUARE).error
        assert errors[0] == errors.min()

    def test_bottom_slab_error_halves_twice_per_doubling(self):
        bottom_10 = profile(10, SQUARE).error[0]
        bottom_20 = profile(20, SQUARE).error[0]
        assert bottom_10 / bottom_20 == pytest.approx(4.0, rel=0.02)

    def test_squared_apothem_gap_ratio_is_exactly_four(self):
        # (R^2 - z_mid^2) - apothem^2 = (R/m)^2 / 12 for every slab, so the
        # max squared gap scales exactly like m^-2
        def max_squared_gap(m):
            rows = profile(m, SQUARE)
            return np.abs(rows.slab_apothem**2 - rows.smooth_apothem**2).max()

        assert max_squared_gap(10) / max_squared_gap(20) == pytest.approx(4.0, rel=1e-9)

    def test_max_plain_error_non_increasing_under_doubling(self):
        errors = [profile(m, SQUARE).error.max() for m in (5, 10, 20, 40, 80)]
        assert errors == sorted(errors, reverse=True)

    @pytest.mark.parametrize("n,R", [(4, 1.0), (5, 2.0)])
    def test_smooth_apothem_matches_surface(self, n, R):
        # the smooth apothem at z equals a(r) * horizontal radius of the
        # surface point at that height, for any azimuth
        spec = SolidSpec(n, R)
        rng = np.random.default_rng(8)
        rows = profile(9, spec)
        for z_mid, smooth in zip(rows.z_mid, rows.smooth_apothem):
            t = math.asin(z_mid / spec.R)
            r = float(rng.uniform(-7.0, 7.0))
            x, y, _ = surface_point(r, t, spec)
            radius = math.hypot(x, y) * scaling_factor(r, spec)
            assert abs(radius - smooth) < 1e-12 * max(1.0, R)

    def test_columns_are_the_stack_and_its_mid_heights(self):
        spec = SolidSpec(7, 3.0)
        stack = build_slab_stack(50, spec)
        rows = convergence_profile(stack, spec)
        assert rows.slab_apothem.tobytes() == stack.apothems.tobytes()
        assert rows.z_mid.tolist() == [(i - 0.5) * stack.slab_height for i in range(1, 51)]
        assert rows.error.tolist() == [abs(a - b) for a, b in zip(rows.slab_apothem.tolist(), rows.smooth_apothem.tolist())]


class TestSlabCsv:
    def test_layout_and_volume_column(self, tmp_path):
        spec = SolidSpec(5, 1.0)
        stack = build_slab_stack(6, spec)
        target = tmp_path / "slabs.csv"
        assert write_slab_csv(stack, spec, target) == 7
        lines = target.read_text().splitlines()
        assert lines[0] == "index,z_lo,z_hi,apothem,volume"
        assert len(lines) == 7
        total = sum(float(line.split(",")[4]) for line in lines[1:])
        assert total == pytest.approx(solid_volume(spec), rel=1e-12)
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[1]) == 0.0

    def test_single_row_example(self, tmp_path):
        target = tmp_path / "one.csv"
        write_slab_csv(build_slab_stack(1, SQUARE), SQUARE, target)
        lines = target.read_text().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[3]) == pytest.approx(0.816497, abs=1e-6)
