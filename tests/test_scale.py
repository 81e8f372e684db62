"""Scale equivariance with no tolerance: multiplying R by 2**k is exact in
floating point, so every length output must be 2**k times the R = 1 output
and every volume 8**k times, bit for bit, over the whole valid range of R."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from polydome.analysis import mesh_plane_section, monte_carlo_volume, plane_section, solid_volume
from polydome.meshing import MeshResolution, tessellate
from polydome.slabs import build_slab_stack
from polydome.surface import SolidSpec, inside_mask


def scaled(value, k):
    """``value`` times 2**k, as raw float64 bytes."""
    return np.ldexp(np.asarray(value, dtype=float), k).tobytes()


def raw(value):
    return np.asarray(value, dtype=float).tobytes()


@settings(deadline=None, max_examples=200)
@given(
    n=st.integers(3, 16),
    k=st.integers(-99, 99),
    segments=st.integers(1, 6),
    rings=st.integers(1, 6),
    azimuth=st.floats(-7.0, 7.0),
    m=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_power_of_two_scaling_is_exact(n, k, segments, rings, azimuth, m, seed):
    unit, big = SolidSpec(n, 1.0), SolidSpec(n, math.ldexp(1.0, k))

    mesh, big_mesh = (tessellate(spec, MeshResolution(segments, rings)) for spec in (unit, big))
    assert raw(big_mesh.vertices) == scaled(mesh.vertices, k)
    assert big_mesh.dropped_triangles == mesh.dropped_triangles
    assert np.array_equal(big_mesh.triangles, mesh.triangles)
    assert raw(big_mesh.signed_volume()) == scaled(mesh.signed_volume(), 3 * k)
    assert raw(solid_volume(big)) == scaled(solid_volume(unit), 3 * k)

    assert raw(build_slab_stack(m, big).apothems) == scaled(build_slab_stack(m, unit).apothems, k)

    for section, big_section in (
        (plane_section(azimuth, unit, 9), plane_section(azimuth, big, 9)),
        (mesh_plane_section(mesh, azimuth, unit), mesh_plane_section(big_mesh, azimuth, big)),
    ):
        for branch in ("branch_pos", "branch_neg"):
            assert raw(getattr(big_section, branch)) == scaled(getattr(section, branch), k)
        assert raw(big_section.semi_axis_pos) == scaled(section.semi_axis_pos, k)

    points = np.random.default_rng(seed).uniform(-1.5, 1.5, (500, 3))
    assert np.array_equal(inside_mask(np.ldexp(points, k), big), inside_mask(points, unit))

    estimate, big_estimate = (monte_carlo_volume(spec, 2000, seed) for spec in (unit, big))
    assert raw(big_estimate) == scaled(estimate, 3 * k)


@settings(deadline=None, max_examples=100)
@given(n=st.integers(3, 199), log_R=st.floats(-30.0, 30.0), seed=st.integers(0, 2**32 - 1))
def test_mask_matches_the_half_space_oracle(n, log_R, seed):
    # The base polygon is convex, so the solid is {0 <= z <= R} intersected
    # with x cos(theta_k) + y sin(theta_k) <= sqrt(R**2 - z**2) for every side k.
    # This uses no arctan2 and no sector lookup; points within 1e-9 R of the
    # boundary are skipped, as the two routes may round them differently.
    spec = SolidSpec(n, 10.0**log_R)
    R, c = spec.R, spec.circumradius
    points = np.random.default_rng(seed).uniform([-c, -c, -0.1 * R], [c, c, 1.1 * R], (2000, 3))
    x, y, z = points.T
    theta = 2.0 * math.pi * np.arange(n) / n
    u = np.max(np.outer(x, np.cos(theta)) + np.outer(y, np.sin(theta)), axis=1)
    reach = np.sqrt(np.maximum(R * R - z * z, 0.0)) - u
    margin = np.minimum(np.minimum(z, R - z), reach)
    clear = np.abs(margin) > 1e-9 * R
    assert np.array_equal(inside_mask(points, spec)[clear], (margin > 0)[clear])
