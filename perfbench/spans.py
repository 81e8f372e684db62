"""In-memory span recorder that wraps polydome's public layer functions.

Tracing works from outside the program: ``Tracer.install`` rebinds each
traced name in every polydome module that imported it (``cli``,
``analysis`` and ``meshing``) and replaces two ``TriangleMesh`` methods;
``Tracer.uninstall`` restores the originals.  Nothing under ``src/`` is
edited.  Spans are kept in memory and written out once, when the run ends.

A span is ``(name, start, end, parent, op, sizes)``.  Names are
``<module>.<function>``, the same names the per-layer metrics use.  Sizes
(triangles, bytes, points, ...) are read after the span has closed, so the
counting itself is not charged to the layer.
"""

import functools
import json
import os
import time
from pathlib import Path

import polydome.analysis
import polydome.cli
import polydome.meshing
import polydome.slabs
import polydome.surface
from polydome.meshing import TriangleMesh

REBOUND_MODULES = (polydome.cli, polydome.analysis, polydome.meshing)


def _file_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[-1])}


def _mesh_sizes(args, mesh) -> dict:
    return {"triangles": mesh.triangle_count, "dropped": mesh.dropped_triangles}


def _edges_checked(args, result) -> dict:
    return {"edges": 3 * args[0].triangle_count}


def _mask_sizes(args, mask) -> dict:
    return {"points": len(mask), "hits": int(mask.sum())}


def _mc_sizes(args, result) -> dict:
    return {"samples": int(args[1]), "estimate": result.estimate, "std_error": result.std_error}


def _section_sizes(args, section) -> dict:
    return {
        "triangles": args[0].triangle_count,
        "points": len(section.branch_pos) + len(section.branch_neg),
    }


def _slab_mesh_sizes(args, mesh) -> dict:
    return {"triangles": mesh.triangle_count}


# (defining module, function name, span name, sizes(args, result) or None)
FUNCTIONS = (
    (polydome.meshing, "tessellate", "meshing.tessellate", _mesh_sizes),
    (polydome.meshing, "write_stl", "meshing.write_stl", _file_bytes),
    (polydome.meshing, "write_obj", "meshing.write_obj", _file_bytes),
    (polydome.surface, "scaling_factor_array", "surface.scaling_factor_array", None),
    (polydome.surface, "inside_mask", "surface.inside_mask", _mask_sizes),
    (polydome.analysis, "monte_carlo_volume", "analysis.monte_carlo_volume", _mc_sizes),
    (polydome.analysis, "mesh_volume", "analysis.mesh_volume", None),
    (polydome.analysis, "mesh_plane_section", "analysis.mesh_plane_section", _section_sizes),
    (polydome.analysis, "ellipse_residual", "analysis.ellipse_residual", None),
    (polydome.analysis, "write_section_csv", "analysis.write_section_csv", _file_bytes),
    (polydome.slabs, "build_slab_stack", "slabs.build_slab_stack", None),
    (polydome.slabs, "slab_stack_mesh", "slabs.slab_stack_mesh", _slab_mesh_sizes),
    (polydome.slabs, "convergence_profile", "slabs.convergence_profile", None),
    (polydome.slabs, "write_slab_csv", "slabs.write_slab_csv", _file_bytes),
)

METHODS = (
    ("defective_edges", "meshing.defective_edges", _edges_checked),
    ("signed_volume", "meshing.signed_volume", None),
)

ROOT = "cli.main"


class Tracer:
    """Collects spans for one run; one op at a time, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, sizes):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if sizes is not None:
                self.spans[index][5] = sizes(args, result)
            return result

        return traced

    def call_op(self, op_id: int, main, argv):
        """Run ``main(argv)`` under a ``cli.main`` root span tagged ``op_id``."""
        self._op = op_id
        index = self._open(ROOT)
        try:
            return main(argv)
        finally:
            self._close(index)

    def install(self) -> None:
        for home, attr, name, sizes in FUNCTIONS:
            original = getattr(home, attr)
            wrapped = self._wrap(original, name, sizes)
            for module in REBOUND_MODULES:
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapped)
        for attr, name, sizes in METHODS:
            original = TriangleMesh.__dict__[attr]
            self._saved.append((TriangleMesh, attr, original))
            setattr(TriangleMesh, attr, self._wrap(original, name, sizes))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, sizes in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "sizes": sizes,
                }) + "\n")
