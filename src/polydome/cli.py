"""Command-line interface: mesh export, volume cross-checks, slab stacks,
cross-sections, and the sector parameter table.

Angles are degrees on the command line and converted once at this boundary;
the library itself works in radians.  The only environment override is
``POLYDOME_OUT_DIR``, which prefixes relative output paths.

``params`` needs only ``math``; the numpy-backed layers are bound into this
module's globals the first time another command runs (or one of their names
is read from this module), and the commands look them up there at call time.
"""

import argparse
import functools
import importlib
import json
import math
import os
import sys
from pathlib import Path

from ._io import write_text
from .surface import SolidSpec, _integer, scaling_factor

OUTPUT_DIR_ENV = "POLYDOME_OUT_DIR"

# Names the commands use from the numpy-backed layers, by defining module.
_ARRAY_LAYERS = {
    "analysis": (
        "ellipse_residual", "mesh_plane_section", "mesh_volume", "plane_section",
        "volume_report", "write_section_csv",
    ),
    "meshing": ("MeshResolution", "tessellate", "write_obj", "write_stl"),
    "slabs": ("build_slab_stack", "convergence_profile", "slab_stack_mesh", "write_slab_csv"),
}


@functools.cache
def _load_array_layers() -> None:
    """Import the array layers and bind their names here, once per process.

    Binding once matters: a name rebound on this module later (say, by a
    tracing wrapper) stays rebound for every following command.
    """
    namespace = globals()
    for module, names in _ARRAY_LAYERS.items():
        home = importlib.import_module(f".{module}", __package__)
        namespace.update((name, getattr(home, name)) for name in names)


def __getattr__(name):
    if any(name in names for names in _ARRAY_LAYERS.values()):
        _load_array_layers()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _resolve_output(path) -> Path | None:
    if path is None:
        return None
    path = Path(path)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _write_mesh(mesh, path: Path, fmt: str) -> None:
    (write_obj if fmt == "obj" else write_stl)(mesh, path)


def cmd_mesh(args) -> int:
    spec = SolidSpec(args.n, args.R)
    mesh = tessellate(spec, MeshResolution(args.segments, args.rings))
    volume = mesh_volume(mesh)  # also enforces watertightness
    out = _resolve_output(args.output)
    _write_mesh(mesh, out, args.format)
    print(
        f"mesh: n={spec.n} R={spec.R:g} vertices={mesh.vertex_count} "
        f"triangles={mesh.triangle_count} dropped={mesh.dropped_triangles} "
        f"signed_volume={volume!r} -> {out}"
    )
    return 0


def cmd_volume(args) -> int:
    spec = SolidSpec(args.n, args.R)
    report = volume_report(
        spec, mesh_resolution=args.mesh_res, mc_samples=args.mc_samples, seed=args.seed
    )
    line = report.to_json()
    out = _resolve_output(args.output)
    if out is not None:
        write_text(out, line + "\n")
    print(line)
    return 0


def cmd_slabs(args) -> int:
    spec = SolidSpec(args.n, args.R)
    stack = build_slab_stack(args.m, spec)
    mesh = slab_stack_mesh(stack, spec) if args.mesh_out else None  # size-checked before any write
    out = _resolve_output(args.output or f"slabs_n{spec.n}_m{stack.m}.csv")
    write_slab_csv(stack, spec, out)
    profile = convergence_profile(stack.m, spec)
    max_gap = max(row.error for row in profile)
    max_sq_gap = max(abs(row.slab_apothem**2 - row.smooth_apothem**2) for row in profile)
    mesh_note = ""
    if mesh is not None:
        mesh_path = _resolve_output(args.mesh_out)
        mesh.require_watertight()
        _write_mesh(mesh, mesh_path, "obj" if mesh_path.suffix.lower() == ".obj" else "stl")
        mesh_note = f" mesh -> {mesh_path}"
    print(
        f"slabs: n={spec.n} R={spec.R:g} m={stack.m} max_apothem_gap={max_gap!r} "
        f"max_sq_apothem_gap={max_sq_gap!r} -> {out}{mesh_note}"
    )
    return 0


def cmd_xsec(args) -> int:
    spec = SolidSpec(args.n, args.R)
    azimuth = math.radians(args.azimuth_deg)
    if args.mesh_res is not None:
        mesh = tessellate(spec, MeshResolution(args.mesh_res, args.mesh_res))
        section = mesh_plane_section(mesh, azimuth, spec)
    else:
        section = plane_section(azimuth, spec, args.points)
    document = section.to_dict()
    document["residual"] = ellipse_residual(section)
    line = json.dumps(document)
    out = _resolve_output(args.output)
    if args.format == "csv" and out is None:
        out = _resolve_output(f"xsec_n{spec.n}_az{args.azimuth_deg:g}.csv")
    if out is not None:
        if args.format == "csv":
            write_section_csv(section, out)
        else:
            write_text(out, line + "\n")
    print(line)
    return 0


def cmd_params(args) -> int:
    spec = SolidSpec(args.n, args.R)
    samples = _integer(args.a_samples, "a-samples", 0)
    half, width = math.pi / spec.n, spec.sector_width
    a_min = math.cos(half)
    # Sector i is [lo, lo + width) with lo = -half + (i-1)*width; the domain is [-half, 2*pi - half).
    print(f"{'sector':>6} {'lo_deg':>10} {'hi_deg':>10} {'mid_deg':>10} {'a_min':>12}")
    for i in range(1, spec.n + 1):
        lo = -half + (i - 1) * width
        print(
            f"{i:>6} {math.degrees(lo):>10.4f} {math.degrees(lo + width):>10.4f} "
            f"{math.degrees((i - 1) * width):>10.4f} {a_min:>12.8f}"
        )
    print(f"{'r_deg':>10} {'a':>12}")
    span = (2.0 * math.pi - half) - (-half)
    for j in range(samples):
        r = -half + (j + 0.5) * span / samples
        print(f"{math.degrees(r):>10.4f} {scaling_factor(r, spec):>12.8f}")
    print(
        f"params: n={spec.n} sector_width_deg={math.degrees(width):g} "
        f"a_range=[{a_min:.8f}, 1.0]"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polydome",
        description="Dome over a regular polygon base: meshes, volumes, slab stacks, cross-sections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_base(p, default_R=None):
        p.add_argument("--n", type=int, required=True, help="number of base polygon sides (>= 3)")
        if default_R is None:
            p.add_argument("--R", type=float, required=True, help="base apothem (in-circle radius)")
        else:
            p.add_argument("--R", type=float, default=default_R, help="base apothem (in-circle radius)")

    p = sub.add_parser("mesh", help="tessellate the dome and write STL/OBJ")
    add_base(p)
    p.add_argument("--segments", type=int, default=32, help="azimuthal subdivisions per sector")
    p.add_argument("--rings", type=int, default=32, help="profile subdivisions")
    p.add_argument("--format", choices=("stl", "obj"), default="stl")
    p.add_argument("-o", "--output", required=True, help="output file path")
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("volume", help="emit a JSON volume report")
    add_base(p)
    p.add_argument(
        "--mesh-res", type=int, nargs="?", const=32, default=None,
        help="add a mesh estimate at this per-sector resolution (default 32)",
    )
    p.add_argument(
        "--mc-samples", type=int, nargs="?", const=100_000, default=None,
        help="add a Monte Carlo estimate with this many samples (default 100000)",
    )
    p.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    p.add_argument("-o", "--output", help="also write the JSON report here")
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("slabs", help="build the slab stack and write its CSV")
    add_base(p)
    p.add_argument("--m", type=int, required=True, help="number of slabs (>= 1)")
    p.add_argument("-o", "--output", help="CSV path (default slabs_n<n>_m<m>.csv)")
    p.add_argument("--mesh-out", help="also write the staircase mesh (format from suffix)")
    p.set_defaults(func=cmd_slabs)

    p = sub.add_parser("xsec", help="cut the surface with a vertical plane through the axis")
    add_base(p)
    p.add_argument("--azimuth-deg", type=float, required=True, help="plane azimuth in degrees")
    p.add_argument("--points", type=int, default=33, help="analytic samples per branch")
    p.add_argument(
        "--mesh-res", type=int, nargs="?", const=32, default=None,
        help="slice a tessellated mesh at this resolution instead of the analytic surface",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("-o", "--output", help="output file path")
    p.set_defaults(func=cmd_xsec)

    p = sub.add_parser("params", help="print the sector table and scaling-factor samples")
    add_base(p, default_R=1.0)
    p.add_argument("--a-samples", type=int, default=12, help="scaling-factor sample count")
    p.set_defaults(func=cmd_params)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building costs ten times parsing."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.func is not cmd_params:
        _load_array_layers()
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
