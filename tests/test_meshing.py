import io
import math
import re
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from io_utils import corners_signed_volume, read_obj, read_stl
from polydome.meshing import (
    _MAX_TRIANGLES,
    _OBJ_CHUNK,
    MeshResolution,
    NonWatertightError,
    TriangleMesh,
    _drop_degenerate,
    tessellate,
    write_obj,
    write_stl,
)
from polydome.slabs import build_slab_stack, slab_stack_mesh
from polydome.surface import SolidSpec, scaling_factor, surface_point

SQUARE = SolidSpec(4, 1.0)


def unit_cube_mesh():
    vertices = np.array(
        [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        ],
        dtype=float,
    )
    triangles = np.array(
        [
            [0, 2, 1], [0, 3, 2],  # bottom (-z)
            [4, 5, 6], [4, 6, 7],  # top (+z)
            [0, 1, 5], [0, 5, 4],  # front (-y)
            [1, 2, 6], [1, 6, 5],  # right (+x)
            [2, 3, 7], [2, 7, 6],  # back (+y)
            [3, 0, 4], [3, 4, 7],  # left (-x)
        ]
    )
    return TriangleMesh(vertices, triangles)


class TestMeshResolution:
    def test_defaults(self):
        res = MeshResolution()
        assert res.segments_per_sector == 32 and res.rings == 32

    @pytest.mark.parametrize("segments,rings", [(0, 4), (4, 0), (-1, 1)])
    def test_rejects_non_positive(self, segments, rings):
        with pytest.raises(ValueError):
            MeshResolution(segments, rings)

    @pytest.mark.parametrize("segments,rings,field", [
        (2.5, 3, "segments_per_sector"), ("a", 3, "segments_per_sector"), (True, 3, "segments_per_sector"),
        (3, math.nan, "rings"), (3, math.inf, "rings"), (3, None, "rings"),
    ])
    def test_rejects_non_integers(self, segments, rings, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            MeshResolution(segments, rings)

    def test_accepts_integral_numbers(self):
        res = MeshResolution(np.int64(3), 4.0)
        assert (res.segments_per_sector, res.rings) == (3, 4)
        assert type(res.segments_per_sector) is int and type(res.rings) is int


class TestMeshSizeBound:
    """Meshes above the triangle bound are refused before anything is allocated."""

    @pytest.mark.parametrize("n,segments,rings", [(3, 1, 1), (4, 2, 3), (7, 5, 4)])
    def test_bounded_counts_are_the_built_counts(self, n, segments, rings):
        dome = tessellate(SolidSpec(n, 1.0), MeshResolution(segments, rings))
        assert dome.triangle_count + dome.dropped_triangles == 2 * n * segments * rings
        stairs = slab_stack_mesh(build_slab_stack(rings, SolidSpec(n, 1.0)), SolidSpec(n, 1.0))
        assert stairs.triangle_count == 4 * n * rings - 4

    def test_dome_above_the_bound(self):
        rings = _MAX_TRIANGLES // (2 * 11 * 23) + 1
        bound = f"triangle count 2*n*segments*rings must be at most {_MAX_TRIANGLES}, got {2 * 11 * 23 * rings}"
        with pytest.raises(ValueError, match=re.escape(bound)):
            tessellate(SolidSpec(11, 1.0), MeshResolution(23, rings))

    def test_staircase_above_the_bound(self):
        spec = SolidSpec((_MAX_TRIANGLES + 4) // 8 + 1, 1.0)
        bound = f"triangle count 4*n*m - 4 must be at most {_MAX_TRIANGLES}, got {8 * spec.n - 4}"
        with pytest.raises(ValueError, match=re.escape(bound)):
            slab_stack_mesh(build_slab_stack(2, spec), spec)


class TestTriangleMesh:
    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError):
            TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 3]]))

    def test_arrays_are_read_only(self):
        mesh = unit_cube_mesh()
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 5.0

    def test_cube_volume_and_topology(self):
        mesh = unit_cube_mesh()
        assert mesh.signed_volume() == pytest.approx(1.0)
        assert mesh.euler_characteristic() == 2
        assert mesh.is_watertight()

    def test_missing_triangle_reports_its_edges(self):
        cube = unit_cube_mesh()
        holed = TriangleMesh(cube.vertices, cube.triangles[:-1])
        assert not holed.is_watertight()
        with pytest.raises(NonWatertightError) as info:
            holed.require_watertight()
        # the hole is bounded by the removed triangle's three edges
        assert sorted(info.value.edges) == sorted(
            tuple(sorted(edge)) for edge in [(3, 4), (4, 7), (7, 3)]
        )

    def test_same_direction_edge_reuse_is_defective(self):
        # two triangles sharing edge (0,1) in the same direction
        vertices = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        mesh = TriangleMesh(vertices, np.array([[0, 1, 2], [0, 1, 3]]))
        assert (0, 1) in mesh.defective_edges()


def reference_topology(mesh):
    """(defective edges, edge count, Euler characteristic) from a Counter of triangle sides."""
    directed = Counter()
    for a, b, c in mesh.triangles.tolist():
        directed.update([(a, b), (b, c), (c, a)])
    undirected = Counter()
    for (a, b), uses in directed.items():
        undirected[min(a, b), max(a, b)] += uses
    bad = {edge for edge, uses in undirected.items() if uses != 2}
    bad |= {(min(a, b), max(a, b)) for (a, b), uses in directed.items() if uses > 1}
    edges = len(undirected)
    return sorted(bad), edges, mesh.vertex_count - edges + mesh.triangle_count


def assert_topology_matches_reference(mesh):
    bad, edges, chi = reference_topology(mesh)
    assert mesh.defective_edges() == bad
    assert mesh.edge_count() == edges
    assert mesh.euler_characteristic() == chi


closed_meshes = st.one_of(
    st.builds(
        lambda n, R, segments, rings: tessellate(SolidSpec(n, R), MeshResolution(segments, rings)),
        st.integers(3, 9), st.floats(0.01, 100.0), st.integers(1, 4), st.integers(1, 4),
    ),
    st.builds(
        lambda n, R, m: slab_stack_mesh(build_slab_stack(m, SolidSpec(n, R)), SolidSpec(n, R)),
        st.integers(3, 9), st.floats(0.01, 100.0), st.integers(1, 12),
    ),
)


@st.composite
def triangle_soups(draw):
    vertex_count = draw(st.integers(1, 8))
    corner = st.integers(0, vertex_count - 1)
    triangles = draw(st.lists(st.tuples(corner, corner, corner), max_size=12))
    return TriangleMesh(np.zeros((vertex_count, 3)), np.array(triangles, dtype=np.int64).reshape(-1, 3))


class TestTopologyProperties:
    @settings(deadline=None)
    @given(closed_meshes)
    def test_closed_meshes_are_watertight_spheres(self, mesh):
        assert_topology_matches_reference(mesh)
        assert mesh.defective_edges() == []
        assert mesh.euler_characteristic() == 2

    @settings(deadline=None)
    @given(closed_meshes, st.integers(min_value=0), st.sampled_from(["drop", "duplicate", "flip"]))
    def test_one_face_defect_is_reported(self, mesh, pick, defect):
        index = pick % mesh.triangle_count
        face = mesh.triangles[index]
        if defect == "drop":
            triangles = np.delete(mesh.triangles, index, axis=0)
        elif defect == "duplicate":
            triangles = np.insert(mesh.triangles, index, face, axis=0)
        else:
            triangles = mesh.triangles.copy()
            triangles[index] = face[::-1]
        broken = TriangleMesh(mesh.vertices, triangles)
        assert_topology_matches_reference(broken)
        a, b, c = face.tolist()
        sides = {(min(p, q), max(p, q)) for p, q in [(a, b), (b, c), (c, a)]}
        assert sides <= set(broken.defective_edges())

    @settings(deadline=None)
    @given(triangle_soups())
    def test_triangle_soups_match_reference(self, mesh):
        assert_topology_matches_reference(mesh)


class TestTessellate:
    def test_minimal_square_mesh_counts(self):
        mesh = tessellate(SQUARE, MeshResolution(1, 1))
        assert mesh.triangle_count == 8  # 4 dome + 4 base
        assert mesh.vertex_count == 6  # 4 corners + apex + base center
        assert mesh.euler_characteristic() == 2
        assert mesh.is_watertight()
        assert mesh.dropped_triangles == 0

    def test_apex_vertex(self):
        mesh = tessellate(SolidSpec(7, 3.0), MeshResolution(2, 2))
        apex = mesh.vertices[7 * 2 * 2]
        assert tuple(apex) == (0.0, 0.0, 3.0)

    def test_vertices_match_surface_point(self):
        spec = SolidSpec(5, 2.0)
        res = MeshResolution(3, 4)
        mesh = tessellate(spec, res)
        cols = spec.n * res.segments_per_sector
        for j in range(res.rings):
            t = (math.pi / 2.0) * j / res.rings
            for k in range(cols):
                theta = -math.pi / spec.n + k * (2.0 * math.pi / cols)
                expected = np.array(surface_point(theta, t, spec))
                actual = mesh.vertices[j * cols + k]
                assert np.max(np.abs(actual - expected)) < 1e-12 * spec.R

    @pytest.mark.parametrize("n,R,segments,rings", [(3, 1.0, 1, 1), (4, 1.0, 2, 3), (6, 0.5, 5, 4), (5, 2.5, 8, 8)])
    def test_watertight_and_oriented(self, n, R, segments, rings):
        mesh = tessellate(SolidSpec(n, R), MeshResolution(segments, rings))
        assert mesh.is_watertight()
        assert mesh.euler_characteristic() == 2
        assert mesh.signed_volume() > 0.0

    def test_base_triangles_face_down(self):
        mesh = tessellate(SolidSpec(6, 1.0), MeshResolution(4, 4))
        corners = mesh.vertices[mesh.triangles]
        flat = np.all(np.abs(corners[:, :, 2]) < 1e-12, axis=1)
        assert flat.any()
        assert (mesh.face_normals()[flat][:, 2] < 0.0).all()

    def test_dome_vertices_satisfy_elliptic_identity(self):
        spec = SolidSpec(5, 1.5)
        res = MeshResolution(4, 6)
        mesh = tessellate(spec, res)
        cols = spec.n * res.segments_per_sector
        for index in range(res.rings * cols):
            x, y, z = mesh.vertices[index]
            axis = spec.R / scaling_factor(math.atan2(y, x), spec)
            value = (math.hypot(x, y) / axis) ** 2 + (z / spec.R) ** 2
            assert abs(value - 1.0) < 1e-12

    def test_volume_convergence_is_second_order(self):
        errors = []
        for k in (8, 16, 32, 64):
            volume = tessellate(SQUARE, MeshResolution(k, k)).signed_volume()
            errors.append(abs(volume - 8.0 / 3.0))
        assert errors == sorted(errors, reverse=True)
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.0 < coarse / fine < 5.0
        assert errors[-1] / (8.0 / 3.0) < 0.005

    @pytest.mark.parametrize("n,res", [(3, 1), (4, 2), (4, 32), (9, 64), (3, 96), (16, 96)])
    def test_triangle_order_matches_per_ring_loop(self, n, res):
        cols, rings = n * res, res
        k = np.arange(cols)
        k1 = (k + 1) % cols
        bands = []
        for j in range(rings - 1):
            a, b, c, d = j * cols + k, j * cols + k1, (j + 1) * cols + k1, (j + 1) * cols + k
            bands += [np.column_stack([a, b, c]), np.column_stack([a, c, d])]
        top = (rings - 1) * cols
        bands.append(np.column_stack([top + k, top + k1, np.full(cols, rings * cols)]))
        bands.append(np.column_stack([np.full(cols, rings * cols + 1), k1, k]))
        mesh = tessellate(SolidSpec(n, 1.0), MeshResolution(res, res))
        assert mesh.dropped_triangles == 0
        assert mesh.triangles.tolist() == np.concatenate(bands).tolist()

    def test_drop_degenerate_counts(self):
        vertices = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]], dtype=float)
        triangles = np.array([[0, 1, 2], [0, 1, 3]])  # second is collinear
        kept, dropped = _drop_degenerate(vertices, triangles, area_floor=1e-14)
        assert dropped == 1
        assert kept.tolist() == [[0, 1, 2]]


# Coordinates where evaluation order shows: non-finite values, signed zeros,
# subnormals and magnitudes whose products overflow or underflow.
EDGE_COORDINATES = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e-310, 1e-300, 1e300, -1e300])


def edge_soup(seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.choice([-80, -70, -40, 0, 40, 70, 76])  # some squares underflow or overflow
    vertices = rng.normal(size=(24, 3)) * 10.0 ** rng.integers(-8, 8, size=(24, 3)) * scale
    special = rng.random((24, 3)) < 0.1
    vertices[special] = rng.choice(EDGE_COORDINATES, size=int(special.sum()))
    return vertices, rng.integers(0, 24, size=(64, 3))


def reference_cross(vertices, triangles):
    corners = vertices[triangles]
    return np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])


class TestCrossProductColumns:
    @pytest.mark.parametrize("seed", range(20))
    def test_face_normals_match_np_cross_bitwise(self, seed):
        vertices, triangles = edge_soup(seed)
        with np.errstate(all="ignore"):
            normals = reference_cross(vertices, triangles)
            lengths = np.linalg.norm(normals, axis=1)
            expected = normals / np.where(lengths > 0.0, lengths, 1.0)[:, None]
            actual = TriangleMesh(vertices, triangles).face_normals()
        assert actual.shape == expected.shape
        assert actual.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    @pytest.mark.parametrize("seed", range(20))
    def test_drop_degenerate_matches_np_linalg_norm(self, seed):
        vertices, triangles = edge_soup(seed)
        with np.errstate(all="ignore"):
            doubled_areas = np.linalg.norm(reference_cross(vertices, triangles), axis=1)
            # Each finite area as the threshold, so a one-ulp difference flips a row.
            for area in [0.0, *doubled_areas[np.isfinite(doubled_areas)]]:
                keep = doubled_areas > 2.0 * (area / 2.0)
                kept, dropped = _drop_degenerate(vertices, triangles, area_floor=area / 2.0)
                assert dropped == int((~keep).sum())
                assert kept.tolist() == triangles[keep].tolist()


class TestWriteStl:
    def test_byte_size_arithmetic(self):
        mesh = tessellate(SQUARE, MeshResolution(1, 1))  # 8 triangles
        sink = io.BytesIO()
        assert write_stl(mesh, sink) == 84 + 8 * 50 == 484
        assert len(sink.getvalue()) == 484

    def test_empty_mesh(self):
        mesh = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        sink = io.BytesIO()
        assert write_stl(mesh, sink) == 84
        assert struct.unpack("<I", sink.getvalue()[80:84])[0] == 0

    def test_header_is_zero_padded_ascii(self):
        sink = io.BytesIO()
        write_stl(tessellate(SQUARE, MeshResolution(1, 1)), sink)
        header = sink.getvalue()[:80]
        assert len(header) == 80
        tag = header.rstrip(b"\x00")
        assert tag.decode("ascii")
        assert header == tag.ljust(80, b"\x00")

    def test_round_trip_volume(self):
        mesh = tessellate(SolidSpec(5, 1.0), MeshResolution(8, 8))
        sink = io.BytesIO()
        write_stl(mesh, sink)
        _, count, corners = read_stl(sink.getvalue())
        assert count == mesh.triangle_count
        parsed = corners_signed_volume(corners)
        assert abs(parsed - mesh.signed_volume()) / mesh.signed_volume() < 1e-5

    def test_normals_match_winding(self):
        mesh = unit_cube_mesh()
        sink = io.BytesIO()
        write_stl(mesh, sink)
        records = np.frombuffer(sink.getvalue()[84:], dtype=np.dtype(
            [("normal", "<f4", (3,)), ("vertices", "<f4", (3, 3)), ("attr", "<u2")]
        ))
        assert np.allclose(records["normal"], mesh.face_normals(), atol=1e-6)
        assert (records["attr"] == 0).all()

    def test_writes_to_path(self, tmp_path):
        target = tmp_path / "dome.stl"
        mesh = tessellate(SQUARE, MeshResolution(1, 1))
        write_stl(mesh, target)
        assert target.stat().st_size == 484


def reference_obj(mesh):
    """The per-line formatter the chunked writer must match byte for byte."""
    lines = [f"v {x:.9g} {y:.9g} {z:.9g}" for x, y, z in mesh.vertices]
    lines += [f"f {i + 1} {j + 1} {k + 1}" for i, j, k in mesh.triangles]
    return "\n".join(lines) + "\n" if lines else ""


OBJ_EDGE_VALUES = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310, -2.5e-320, 1e300, -1e300]


class TestWriteObj:
    @pytest.mark.parametrize("vertex_count,triangle_count", [
        (0, 0), (1, 0), (1, 1), (3, _OBJ_CHUNK - 1), (_OBJ_CHUNK - 1, _OBJ_CHUNK + 1),
        (_OBJ_CHUNK, _OBJ_CHUNK), (_OBJ_CHUNK + 1, _OBJ_CHUNK - 1), (_OBJ_CHUNK + 1, 1),
    ])
    def test_matches_per_line_reference(self, vertex_count, triangle_count):
        rng = np.random.default_rng(vertex_count + triangle_count)
        values = rng.choice(OBJ_EDGE_VALUES, size=3 * vertex_count)
        values[::2] = rng.normal(scale=10.0 ** rng.integers(-300, 300, size=values[::2].size))
        values[: len(OBJ_EDGE_VALUES)] = OBJ_EDGE_VALUES[: values.size]
        triangles = rng.integers(0, max(vertex_count, 1), size=(triangle_count, 3))
        mesh = TriangleMesh(values.reshape(-1, 3), triangles)
        sink = io.StringIO()
        assert write_obj(mesh, sink) == vertex_count + triangle_count
        assert sink.getvalue() == reference_obj(mesh)

    def test_line_count(self):
        mesh = tessellate(SQUARE, MeshResolution(1, 1))  # 6 vertices, 8 triangles
        sink = io.StringIO()
        assert write_obj(mesh, sink) == 14
        lines = sink.getvalue().splitlines()
        assert len(lines) == 14

    def test_indices_are_one_based_and_in_range(self):
        mesh = tessellate(SolidSpec(3, 1.0), MeshResolution(2, 2))
        sink = io.StringIO()
        write_obj(mesh, sink)
        for line in sink.getvalue().splitlines():
            if line.startswith("f "):
                indices = [int(v) for v in line.split()[1:]]
                assert all(1 <= v <= mesh.vertex_count for v in indices)

    def test_round_trip(self):
        mesh = tessellate(SolidSpec(5, 1.0), MeshResolution(8, 8))
        sink = io.StringIO()
        write_obj(mesh, sink)
        vertices, faces = read_obj(sink.getvalue())
        assert len(vertices) == mesh.vertex_count
        assert (faces == np.asarray(mesh.triangles)).all()
        # printed with 9 significant digits: half an ulp of the 9th digit
        scale = np.maximum(np.abs(mesh.vertices), 1e-30)
        assert np.max(np.abs(vertices - mesh.vertices) / scale) < 1e-8
        rebuilt = TriangleMesh(vertices, faces)
        assert abs(rebuilt.signed_volume() - mesh.signed_volume()) / mesh.signed_volume() < 1e-9

    def test_lf_line_endings_on_disk(self, tmp_path):
        target = tmp_path / "dome.obj"
        write_obj(tessellate(SQUARE, MeshResolution(1, 1)), target)
        assert b"\r" not in target.read_bytes()
