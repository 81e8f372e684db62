"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single ``criterion N (<label>): PASS/FAIL`` line; run
``pytest tests/test_acceptance.py -s`` to see them live.
"""

import io
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from io_utils import corners_signed_volume, read_obj, read_stl
from polydome.analysis import (
    ellipse_residual,
    mesh_plane_section,
    mesh_volume,
    monte_carlo_volume,
    plane_section,
    solid_volume,
)
from polydome.meshing import MeshResolution, TriangleMesh, tessellate, write_obj, write_stl
from polydome.slabs import build_slab_stack, convergence_profile, slab_stack_mesh, slice_volume
from polydome.surface import SolidSpec

SQUARE = SolidSpec(4, 1.0)


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_seconds else "FAIL"
    print(f"criterion {number} ({label}): {status} [{elapsed:.2f}s / {budget_seconds:.0f}s budget]")
    assert elapsed < budget_seconds, f"runtime {elapsed:.2f}s exceeded the {budget_seconds:.0f}s budget"


def random_azimuths_by_polygon(count: int = 100) -> list[tuple[int, float]]:
    rng = np.random.default_rng(42)
    return [((3, 4, 6)[k % 3], float(rng.uniform(0.0, 2.0 * math.pi))) for k in range(count)]


def test_criterion_1_square_base_volume():
    with criterion(1, "square-base volume", 10.0):
        assert solid_volume(SQUARE) == 8.0 / 3.0
        mesh_estimate = mesh_volume(tessellate(SQUARE, MeshResolution(64, 64)))
        assert abs(mesh_estimate - 8.0 / 3.0) / (8.0 / 3.0) < 0.005
        estimate, std_error = monte_carlo_volume(SQUARE, 10**6, seed=42)
        assert abs(estimate - 8.0 / 3.0) < 3.0 * std_error


def test_criterion_2_general_volume_formula():
    with criterion(2, "general volume formula", 60.0):
        for n in (3, 5, 6, 7, 12):
            for R in (0.5, 1.0, 2.5):
                spec = SolidSpec(n, R)
                reference = (2.0 / 3.0) * n * R**3 * math.tan(math.pi / n)
                assert solid_volume(spec) == pytest.approx(reference, rel=1e-15)
                mesh_estimate = mesh_volume(tessellate(spec, MeshResolution(64, 64)))
                assert abs(mesh_estimate - reference) / reference < 0.005
                estimate, std_error = monte_carlo_volume(spec, 10**6, seed=42)
                assert abs(estimate - reference) < 3.0 * std_error


def test_criterion_3_elliptic_sections():
    with criterion(3, "elliptic vertical sections", 1.0):
        for n, azimuth in random_azimuths_by_polygon():
            section = plane_section(azimuth, SolidSpec(n, 1.0), 33)
            assert ellipse_residual(section) < 1e-12
        diagonal = plane_section(math.pi / 4, SQUARE, 33)
        assert abs(diagonal.semi_axis_pos - math.sqrt(2.0) * SQUARE.R) < 1e-12


def test_criterion_4_mesh_level_ellipse_check():
    with criterion(4, "mesh-level ellipse check", 10.0):
        meshes = {n: tessellate(SolidSpec(n, 1.0), MeshResolution(64, 64)) for n in (3, 4, 6)}
        for n, azimuth in random_azimuths_by_polygon():
            section = mesh_plane_section(meshes[n], azimuth, SolidSpec(n, 1.0))
            assert ellipse_residual(section) < 1e-3


def test_criterion_5_slab_construction():
    def squared_gaps(m):
        profile = convergence_profile(build_slab_stack(m, SQUARE), SQUARE)
        return profile.smooth_apothem**2 - profile.slab_apothem**2

    with criterion(5, "slab construction", 5.0):
        analytic = solid_volume(SQUARE)
        for m in (1, 2, 7, 32, 128):
            total = sum(slice_volume(i, m, SQUARE) for i in range(1, m + 1))
            assert abs(total - analytic) / analytic < 1e-12
            h = SQUARE.R / m
            assert (abs(squared_gaps(m) - h * h / 12.0) < 1e-12).all()
        # the squared-apothem gap is (R/m)^2/12 for every slab, so its max
        # drops by a factor of four per doubling of m
        gaps = {m: abs(squared_gaps(m)).max() for m in (8, 16, 32, 64, 128)}
        for m in (8, 16, 32, 64):
            assert 3.0 <= gaps[m] / gaps[2 * m] <= 5.0


def test_criterion_6_hemisphere_limit():
    with criterion(6, "hemisphere limit", 1.0):
        hemisphere = 2.0 * math.pi / 3.0
        errors = [abs(solid_volume(SolidSpec(n, 1.0)) - hemisphere) for n in (16, 32, 64, 128, 256, 512, 1024)]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 1e-4


def test_criterion_7_mesh_integrity():
    with criterion(7, "mesh integrity", 30.0):
        meshes = [tessellate(SolidSpec(5, 1.0), MeshResolution(k, k)) for k in (8, 16, 32, 64)]
        meshes += [slab_stack_mesh(build_slab_stack(m, SQUARE), SQUARE) for m in (1, 2, 7, 32, 128)]
        for mesh in meshes:
            assert mesh.is_watertight()
            assert mesh.euler_characteristic() == 2
            assert mesh.signed_volume() > 0.0


def test_criterion_8_format_fidelity():
    with criterion(8, "format fidelity", 5.0):
        for mesh in (
            tessellate(SolidSpec(3, 1.0), MeshResolution(1, 1)),
            tessellate(SolidSpec(5, 2.0), MeshResolution(8, 8)),
            TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int)),
        ):
            sink = io.BytesIO()
            written = write_stl(mesh, sink)
            assert written == 84 + 50 * mesh.triangle_count
            assert len(sink.getvalue()) == written

        mesh = tessellate(SolidSpec(5, 1.0), MeshResolution(16, 16))
        reference = mesh.signed_volume()

        stl_sink = io.BytesIO()
        write_stl(mesh, stl_sink)
        _, _, corners = read_stl(stl_sink.getvalue())
        assert abs(corners_signed_volume(corners) - reference) / reference < 1e-5

        obj_sink = io.StringIO()
        write_obj(mesh, obj_sink)
        vertices, faces = read_obj(obj_sink.getvalue())
        rebuilt = TriangleMesh(vertices, faces)
        assert abs(rebuilt.signed_volume() - reference) / reference < 1e-9
