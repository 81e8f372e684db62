import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydome.analysis import (
    PlaneSection,
    VolumeReport,
    ellipse_residual,
    mesh_plane_section,
    mesh_volume,
    monte_carlo_volume,
    plane_section,
    polygon_area,
    prism_volume,
    solid_volume,
    volume_report,
    write_section_csv,
)
from polydome.meshing import MeshResolution, NonWatertightError, TriangleMesh, tessellate
from polydome.surface import SolidSpec, scaling_factor

from test_meshing import closed_meshes, unit_cube_mesh

SQUARE = SolidSpec(4, 1.0)
TRIANGLE = SolidSpec(3, 1.0)


def shoelace_area(points):
    total = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):
        total += x0 * y1 - x1 * y0
    return abs(total) / 2.0


class TestClosedForms:
    def test_square_area(self):
        assert polygon_area(SQUARE) == pytest.approx(4.0, rel=1e-15)

    def test_hexagon_area_against_shoelace(self):
        spec = SolidSpec(6, 1.0)
        corners = [
            (
                spec.circumradius * math.cos(-math.pi / 6 + k * spec.sector_width),
                spec.circumradius * math.sin(-math.pi / 6 + k * spec.sector_width),
            )
            for k in range(6)
        ]
        assert polygon_area(spec) == pytest.approx(6.0 * math.tan(math.pi / 6), rel=1e-15)
        assert polygon_area(spec) == pytest.approx(shoelace_area(corners), rel=1e-12)

    def test_area_tends_to_circle(self):
        assert polygon_area(SolidSpec(100_000, 1.0)) == pytest.approx(math.pi, rel=1e-9)

    def test_prism_volumes(self):
        assert prism_volume(SQUARE) == pytest.approx(4.0, rel=1e-15)
        assert prism_volume(TRIANGLE) == pytest.approx(3.0 * math.tan(math.pi / 3), rel=1e-15)
        assert prism_volume(SolidSpec(4, 2.0)) == pytest.approx(32.0, rel=1e-15)

    def test_pyramid_volumes(self):
        # the prism minus the solid is the inscribed pyramid
        def pyramid_volume(spec):
            return prism_volume(spec) - solid_volume(spec)

        assert pyramid_volume(SQUARE) == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert pyramid_volume(SolidSpec(5, 1.0)) == pytest.approx(
            (5.0 / 3.0) * math.tan(math.pi / 5), rel=1e-15
        )
        assert pyramid_volume(SolidSpec(4, 3.0)) == pytest.approx(36.0, rel=1e-15)

    def test_solid_volumes(self):
        assert solid_volume(SQUARE) == pytest.approx(8.0 / 3.0, rel=1e-15)
        # frozen via (2/3)*5*tan(pi/5), cross-checked by Monte Carlo below
        assert solid_volume(SolidSpec(5, 1.0)) == pytest.approx(2.4218084266845366, rel=1e-15)

    def test_ratio_laws(self):
        # the identities hold to the last bit of double rounding
        for n in (3, 4, 7, 12):
            spec = SolidSpec(n, 1.3)
            assert abs(solid_volume(spec) / prism_volume(spec) - 2.0 / 3.0) <= math.ulp(2.0 / 3.0)

    def test_scaling_law(self):
        assert solid_volume(SolidSpec(5, 2.0)) == 8.0 * solid_volume(SolidSpec(5, 1.0))
        assert solid_volume(SolidSpec(5, 2.5)) == pytest.approx(
            2.5**3 * solid_volume(SolidSpec(5, 1.0)), rel=1e-15
        )

    def test_hemisphere_limit(self):
        hemisphere = 2.0 * math.pi / 3.0
        previous = math.inf
        n = 16
        while n <= 1024:
            error = abs(solid_volume(SolidSpec(n, 1.0)) - hemisphere)
            assert error < previous
            assert error < 2.0 * math.pi**3 / (9.0 * n * n) * 1.1
            previous = error
            n *= 2
        assert previous < 1e-4


class TestMeshVolume:
    def test_unit_cube(self):
        assert mesh_volume(unit_cube_mesh()) == pytest.approx(1.0)

    def test_fine_dome_matches_closed_form(self):
        mesh = tessellate(SQUARE, MeshResolution(64, 64))
        assert mesh_volume(mesh) == pytest.approx(8.0 / 3.0, rel=0.005)

    def test_rejects_reversed_orientation(self):
        cube = unit_cube_mesh()
        reversed_mesh = TriangleMesh(cube.vertices, np.asarray(cube.triangles)[:, ::-1])
        assert reversed_mesh.signed_volume() == pytest.approx(-1.0)
        with pytest.raises(ValueError, match="inverted"):
            mesh_volume(reversed_mesh)

    def test_rejects_open_mesh_with_diagnostics(self):
        cube = unit_cube_mesh()
        holed = TriangleMesh(cube.vertices, cube.triangles[:-1])
        with pytest.raises(NonWatertightError) as info:
            mesh_volume(holed)
        assert len(info.value.edges) == 3


class TestMonteCarlo:
    def test_deterministic_for_a_seed(self):
        first = monte_carlo_volume(SQUARE, 200_000, seed=7)
        second = monte_carlo_volume(SQUARE, 200_000, seed=7)
        assert first == second

    def test_different_seeds_differ(self):
        assert monte_carlo_volume(SQUARE, 100_000, 1) != monte_carlo_volume(SQUARE, 100_000, 2)

    def test_single_sample(self):
        box = 4.0 * SQUARE.circumradius**2 * SQUARE.R
        estimate, std_error = monte_carlo_volume(SQUARE, 1, seed=0)
        assert estimate in (0.0, pytest.approx(box))
        assert std_error == 0.0

    def test_within_three_sigma_of_closed_form(self):
        estimate, std_error = monte_carlo_volume(SQUARE, 10**6, seed=42)
        assert abs(estimate - 8.0 / 3.0) < 3.0 * std_error

    @pytest.mark.parametrize("samples,seed", [(0, 0), (-5, 0), (10, -1), (2.5, 0)])
    def test_rejects_bad_arguments(self, samples, seed):
        with pytest.raises(ValueError):
            monte_carlo_volume(SQUARE, samples, seed)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 12])
@pytest.mark.parametrize("R", [0.5, 1.0, 2.5])
def test_three_estimators_agree(n, R):
    spec = SolidSpec(n, R)
    reference = solid_volume(spec)
    mesh_estimate = mesh_volume(tessellate(spec, MeshResolution(64, 64)))
    assert abs(mesh_estimate - reference) / reference < 0.005
    estimate, std_error = monte_carlo_volume(spec, 10**6, seed=42)
    assert abs(estimate - reference) < 3.0 * std_error


class TestVolumeReport:
    def test_json_key_order_is_fixed(self):
        report = VolumeReport(analytic=2.5)
        assert list(json.loads(report.to_json())) == [
            "analytic", "mesh_estimate", "mc_estimate", "mc_std_error", "sample_count", "seed",
        ]

    def test_helper_runs_only_requested_estimators(self):
        bare = volume_report(SQUARE)
        assert bare.analytic == pytest.approx(8.0 / 3.0)
        assert bare.mesh_estimate is None and bare.mc_estimate is None

        full = volume_report(SQUARE, mesh_resolution=8, mc_samples=10_000, seed=3)
        assert full.mesh_estimate == pytest.approx(8.0 / 3.0, rel=0.02)
        assert abs(full.mc_estimate - 8.0 / 3.0) < 4.0 * full.mc_std_error
        assert full.sample_count == 10_000 and full.seed == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            VolumeReport(analytic=-1.0)
        with pytest.raises(ValueError):
            VolumeReport(analytic=1.0, mc_std_error=-0.1)
        with pytest.raises(ValueError):
            VolumeReport(analytic=1.0, sample_count=0)


class TestPlaneSection:
    def test_square_diagonal_semi_axes(self):
        section = plane_section(math.pi / 4, SQUARE, 33)
        assert abs(section.semi_axis_pos - math.sqrt(2.0)) < 1e-12
        assert abs(section.semi_axis_neg - math.sqrt(2.0)) < 1e-12
        assert section.vertical_semi_axis == 1.0

    def test_edge_midline_section_is_circular(self):
        section = plane_section(0.0, SQUARE, 9)
        assert section.semi_axis_pos == 1.0
        assert section.semi_axis_neg == 1.0

    def test_odd_polygon_has_asymmetric_branches(self):
        section = plane_section(0.0, TRIANGLE, 9)
        assert section.semi_axis_pos == pytest.approx(1.0)
        assert section.semi_axis_neg == pytest.approx(2.0, abs=1e-12)

    def test_branches_share_the_apex(self):
        section = plane_section(1.1, SolidSpec(7, 2.0), 17)
        assert section.branch_pos[-1] == (0.0, 2.0)
        assert section.branch_neg[-1] == (0.0, 2.0)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            plane_section(0.0, SQUARE, 1)

    def test_json_fields(self):
        section = plane_section(0.0, SQUARE, 3)
        document = json.loads(section.to_json())
        assert list(document) == [
            "azimuth", "semi_axis_pos", "semi_axis_neg", "vertical_semi_axis",
            "branch_pos", "branch_neg",
        ]
        assert len(document["branch_pos"]) == 3

    def test_csv_writer(self):
        section = plane_section(0.0, SQUARE, 4)
        sink = io.StringIO()
        assert write_section_csv(section, sink) == 9
        lines = sink.getvalue().splitlines()
        assert lines[0] == "branch,rho,z"
        assert sum(line.startswith("pos,") for line in lines) == 4
        assert sum(line.startswith("neg,") for line in lines) == 4


class TestEllipseResidual:
    def test_analytic_sections_are_elliptic(self):
        rng = np.random.default_rng(1234)
        for k in range(100):
            n = (3, 4, 6)[k % 3]
            azimuth = float(rng.uniform(0.0, 2.0 * math.pi))
            section = plane_section(azimuth, SolidSpec(n, 1.0), 33)
            assert ellipse_residual(section) < 1e-12

    def test_perturbation_sensitivity(self):
        section = plane_section(0.7, SQUARE, 17)
        rho, z = section.branch_pos[5]
        delta = 0.01
        perturbed_points = list(section.branch_pos)
        perturbed_points[5] = (rho + delta, z)
        perturbed = dataclasses.replace(section, branch_pos=tuple(perturbed_points))
        expected_floor = delta * 2.0 * rho / section.semi_axis_pos**2
        assert ellipse_residual(perturbed) >= expected_floor

    def test_empty_section_gives_zero(self):
        empty = PlaneSection(0.0, (), (), 1.0, 1.0, 1.0)
        assert ellipse_residual(empty) == 0.0


class TestMeshPlaneSection:
    def test_coarse_square_mesh_hand_enumerated(self):
        mesh = tessellate(SQUARE, MeshResolution(1, 1))
        section = mesh_plane_section(mesh, 0.0, SQUARE)
        assert section.branch_pos == ((1.0, 0.0), (0.0, 1.0))
        assert section.branch_neg == ((1.0, 0.0), (0.0, 1.0))

    def test_apex_is_shared_endpoint(self):
        mesh = tessellate(SolidSpec(5, 1.0), MeshResolution(4, 4))
        section = mesh_plane_section(mesh, 0.3, SolidSpec(5, 1.0))
        assert section.branch_pos[-1][1] == pytest.approx(1.0, abs=1e-9)
        assert section.branch_neg[-1][1] == pytest.approx(1.0, abs=1e-9)
        assert section.branch_pos[-1][0] == pytest.approx(0.0, abs=1e-9)

    def test_fine_mesh_tracks_the_ellipse(self):
        mesh = tessellate(SQUARE, MeshResolution(64, 64))
        section = mesh_plane_section(mesh, math.pi / 4, SQUARE)
        assert abs(section.semi_axis_pos - math.sqrt(2.0)) < 1e-12
        assert ellipse_residual(section) < 1e-3

    def test_points_sorted_by_height(self):
        mesh = tessellate(SolidSpec(6, 1.0), MeshResolution(8, 8))
        section = mesh_plane_section(mesh, 0.2, SolidSpec(6, 1.0))
        heights = [z for _, z in section.branch_pos]
        assert heights == sorted(heights)
        assert len(heights) > 2

    def test_plane_missing_the_mesh_gives_empty_branches(self):
        # a far-away cube never meets the plane x = 0
        cube = unit_cube_mesh()
        shifted = TriangleMesh(np.asarray(cube.vertices) + [5.0, 0.0, 0.0], cube.triangles)
        section = mesh_plane_section(shifted, math.pi / 2, SQUARE)
        assert section.branch_pos == ()
        assert section.branch_neg == ()


def reference_mesh_plane_section(mesh, azimuth, spec):
    """The per-triangle loop that ``mesh_plane_section`` replaced."""
    phi = float(azimuth)
    normal = np.array([-math.sin(phi), math.cos(phi), 0.0])
    along = np.array([math.cos(phi), math.sin(phi), 0.0])
    tol = 1e-9 * spec.R
    vertices, triangles = mesh.vertices, mesh.triangles

    distances = vertices @ normal
    signs = np.zeros(len(distances), dtype=np.int8)
    signs[distances > tol] = 1
    signs[distances < -tol] = -1

    def crossing(ia, ib):
        w = distances[ia] / (distances[ia] - distances[ib])
        return vertices[ia] + w * (vertices[ib] - vertices[ia])

    segments = []
    for corners in triangles:
        corner_signs = signs[corners]
        positive = int((corner_signs > 0).sum())
        negative = int((corner_signs < 0).sum())
        if positive and negative:
            if positive + negative == 3:
                lone = int(np.nonzero(corner_signs == (1 if positive == 1 else -1))[0][0])
                segments.append((
                    crossing(corners[lone], corners[(lone + 1) % 3]),
                    crossing(corners[lone], corners[(lone + 2) % 3]),
                ))
            else:
                anchor = int(np.nonzero(corner_signs == 0)[0][0])
                segments.append((
                    vertices[corners[anchor]],
                    crossing(corners[(anchor + 1) % 3], corners[(anchor + 2) % 3]),
                ))
    for corners in triangles:
        corner_signs = signs[corners]
        if (corner_signs == 0).sum() == 2 and (corner_signs > 0).sum() == 1:
            a, b = corners[corner_signs == 0]
            segments.append((vertices[a], vertices[b]))

    branches = {1: [], -1: []}
    for p, q in segments:
        if p[2] <= tol and q[2] <= tol:
            continue
        for point in (p, q):
            s = float(point @ along)
            entry = (float(math.hypot(point[0], point[1])), float(point[2]))
            if s >= -tol:
                branches[1].append(entry)
            if s <= tol:
                branches[-1].append(entry)

    def weld(points):
        welded = []
        for rho, z in sorted(points, key=lambda p: (p[1], p[0])):
            if not (welded and abs(z - welded[-1][1]) <= tol and abs(rho - welded[-1][0]) <= tol):
                welded.append((rho, z))
        return tuple(welded)

    return PlaneSection(
        phi, weld(branches[1]), weld(branches[-1]),
        spec.R / scaling_factor(phi, spec), spec.R / scaling_factor(phi + math.pi, spec), spec.R,
    )


# Multiples of pi/m for m up to 36 hit the polygon corners, the sector
# midlines and the azimuth-grid lines of every mesh ``closed_meshes`` builds,
# so vertices lie on the plane.
azimuths = st.one_of(
    st.floats(-10.0, 10.0),
    st.builds(lambda k, m: k * math.pi / m, st.integers(-72, 72), st.integers(3, 36)),
)


class TestMeshPlaneSectionReference:
    @settings(deadline=None)
    @given(closed_meshes, azimuths, st.floats(0.01, 100.0))
    def test_matches_the_loop(self, mesh, azimuth, R):
        spec = SolidSpec(4, R)  # sets the tolerance and the semi-axes only
        assert mesh_plane_section(mesh, azimuth, spec) == reference_mesh_plane_section(mesh, azimuth, spec)

    def test_soup_with_in_plane_edges(self):
        # The plane y = 0 holds the edges 0-1 and 4-5 (the latter as corners 0
        # and 2 of its positive-side triangle) and the corner 7 of a crossing triangle.
        vertices = np.array([
            [1.0, 0.0, 0.5], [0.2, 0.0, 1.0], [0.5, 0.7, 0.5], [0.5, -0.7, 0.5],
            [-1.0, 0.0, 0.3], [-0.4, 0.0, 0.9], [-0.5, 0.6, 0.2],
            [2.0, 0.0, 0.4], [2.5, 1.0, 0.6], [2.5, -1.0, 0.8],
            [3.0, 0.5, 0.0], [3.0, -0.5, 0.0], [3.5, 0.5, 0.0],
            [1.5, 0.5, 0.3], [1.5, -0.5, 0.7], [1.7, -0.2, 0.9],
        ])
        triangles = np.array([
            [0, 1, 2], [1, 0, 3],  # in-plane edge, positive and negative side
            [4, 6, 5],  # in-plane edge on the negative branch, zero corners 0 and 2
            [7, 8, 9],  # one corner on the plane
            [10, 11, 12],  # crosses the plane inside the base plane z = 0
            [13, 14, 15],  # one corner alone on the positive side
        ])
        mesh = TriangleMesh(vertices, triangles)
        section = mesh_plane_section(mesh, 0.0, SQUARE)
        assert section == reference_mesh_plane_section(mesh, 0.0, SQUARE)
        assert section.branch_pos[:2] == ((2.0, 0.4), (1.0, 0.5))
        assert section.branch_neg == ((1.0, 0.3), (0.4, 0.9))
        assert len(section.branch_pos) == 6
