"""Dome surfaces over regular polygon bases.

A library and CLI for the solid whose horizontal cross-section at height z
is the regular n-gon with apothem sqrt(R**2 - z**2): exact parametrization
and point membership, watertight tessellation with STL/OBJ export,
equal-volume slab stacking, vertical cross-sections with elliptic-arc
verification, and three mutually checking volume estimators.

Public names are loaded from their home modules on first access (PEP 562),
so ``import polydome`` does not import numpy until an array layer is used.
"""

import importlib

__version__ = "0.1.0"

# Every public name and the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "analysis": """MonteCarloResult PlaneSection VolumeReport ellipse_residual
            mesh_plane_section mesh_volume monte_carlo_volume plane_section polygon_area
            prism_volume solid_volume volume_report write_section_csv""",
        "meshing": "MeshResolution NonWatertightError TriangleMesh tessellate write_obj write_stl",
        "slabs": """SlabComparison SlabStack build_slab_stack convergence_profile slab_apothem
            slab_stack_mesh slice_volume write_slab_csv""",
        "surface": "SolidSpec inside_mask inside_solid scaling_factor scaling_factor_array surface_point",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
