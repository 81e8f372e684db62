"""Output oracle: every op's stdout and files checked against closed forms
and invariants, never against a stored digest.

``check`` returns a list of problems (empty when the op is correct).  It
runs outside the timed region.
"""

import json
import math
import re
import struct
from pathlib import Path

from workloads import Op

MC_SIGMAS = 5.0  # over hundreds of ops per run, a 3-sigma bound fails by chance
SECTION_RESIDUAL_AT_64 = 1e-3  # acceptance criterion 4: mesh-sliced residual at 64 x 64

_MESH_LINE = re.compile(
    r"mesh: n=(\d+) R=\S+ vertices=(\d+) triangles=(\d+) dropped=(\d+) signed_volume=(\S+) -> "
)


def solid_volume(n: int, R: float) -> float:
    """(2/3) n R^3 tan(pi/n): the prism of height R minus the inscribed pyramid."""
    return 2.0 / 3.0 * n * R**3 * math.tan(math.pi / n)


def _relative(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _mesh_file(path: Path, fmt: str, vertices: int, triangles: int) -> list[str]:
    data = path.read_bytes()
    if fmt == "stl":
        if len(data) != 84 + 50 * triangles:
            return [f"{path.name}: {len(data)} bytes, expected 84 + 50*{triangles}"]
        (count,) = struct.unpack_from("<I", data, 80)
        if count != triangles:
            return [f"{path.name}: header counts {count} triangles, expected {triangles}"]
        return []
    lines = data.count(b"\n")
    faces = data.count(b"\nf ")
    if lines != vertices + triangles or faces != triangles or not data.startswith(b"v "):
        return [f"{path.name}: {lines} lines with {faces} faces, expected {vertices} v + {triangles} f"]
    return []


def _check_mesh(op: Op, stdout: str, out_dir: Path) -> list[str]:
    p = op.params
    found = _MESH_LINE.match(stdout)
    if not found:
        return [f"unexpected summary {stdout[:80]!r}"]
    vertices, triangles, dropped = (int(found.group(k)) for k in (2, 3, 4))
    volume = float(found.group(5))
    cells = p["n"] * p["segments"] * p["rings"]
    problems = []
    if vertices != cells + 2 or triangles + dropped != 2 * cells:
        problems.append(f"{vertices} vertices / {triangles}+{dropped} triangles for a {cells}-cell grid")
    # An inscribed mesh of the convex solid loses volume to chord sag, which
    # shrinks with the square of the angular steps in both grid directions.
    exact = solid_volume(p["n"], p["R"])
    sag = (math.pi / 2 / p["rings"]) ** 2 + (math.pi / (p["n"] * p["segments"])) ** 2
    if not 0.0 < volume <= exact * (1 + 1e-12) or _relative(volume, exact) > sag:
        problems.append(f"signed volume {volume!r} outside (0, {exact!r}] or off by more than {sag:.3g}")
    return problems + _mesh_file(out_dir / op.outputs[0], p["format"], vertices, triangles)


def _check_volume(op: Op, stdout: str, out_dir: Path) -> list[str]:
    p = op.params
    report = json.loads(stdout)
    exact = solid_volume(p["n"], p["R"])
    problems = []
    if _relative(report["analytic"], exact) > 1e-15:
        problems.append(f"analytic {report['analytic']!r} != {exact!r}")
    if report["mesh_estimate"] is not None:
        problems.append("mesh estimate present without --mesh-res")
    if (report["sample_count"], report["seed"]) != (p["samples"], p["seed"]):
        problems.append(f"report echoes samples/seed {report['sample_count']}/{report['seed']}")
    problems += mc_problems(report["mc_estimate"], report["mc_std_error"], exact)
    return problems


def mc_problems(estimate: float, std_error: float, exact: float) -> list[str]:
    if not std_error > 0.0:
        return [f"Monte Carlo std error {std_error!r} is not positive"]
    if abs(estimate - exact) > MC_SIGMAS * std_error:
        return [f"Monte Carlo {estimate!r} is {abs(estimate - exact) / std_error:.1f} sigma from {exact!r}"]
    return []


def _check_slabs(op: Op, stdout: str, out_dir: Path) -> list[str]:
    p = op.params
    n, m = p["n"], p["m"]
    if not stdout.startswith(f"slabs: n={n} "):
        return [f"unexpected summary {stdout[:80]!r}"]
    rows = (out_dir / op.outputs[0]).read_text().splitlines()
    problems = []
    if len(rows) != m + 1 or rows[0] != "index,z_lo,z_hi,apothem,volume":
        problems.append(f"slab CSV has {len(rows)} rows, expected header + {m}")
    total = math.fsum(float(row.rsplit(",", 1)[1]) for row in rows[1:])
    exact = solid_volume(n, p["R"])
    if _relative(total, exact) > 1e-12:
        problems.append(f"slab volumes sum to {total!r}, expected {exact!r}")
    # Staircase of m prism slabs: 2m rings of n corners; 2(n-2) cap, 2nm wall
    # and 2n(m-1) step triangles.
    return problems + _mesh_file(out_dir / op.outputs[1], p["format"], 2 * m * n, 4 * n * m - 4)


def _check_xsec(op: Op, stdout: str, out_dir: Path) -> list[str]:
    p = op.params
    section = json.loads(stdout)
    bound = SECTION_RESIDUAL_AT_64 * (64 / p["res"]) ** 2  # chord sag ~ 1/res^2
    problems = []
    if not 0.0 <= section["residual"] < bound:
        problems.append(f"residual {section['residual']!r} not below {bound:.3g}")
    if not section["branch_pos"] or not section["branch_neg"]:
        problems.append("empty section branch")
    if op.outputs:
        rows = (out_dir / op.outputs[0]).read_text().splitlines()
        expected = 1 + len(section["branch_pos"]) + len(section["branch_neg"])
        if len(rows) != expected or rows[0] != "branch,rho,z":
            problems.append(f"section CSV has {len(rows)} rows, expected {expected}")
    return problems


_CHECKS = {"mesh": _check_mesh, "volume": _check_volume, "slabs": _check_slabs, "xsec": _check_xsec}


def check(op: Op, exit_code, stdout: str, out_dir: Path) -> list[str]:
    """Problems with one op's result; ``exit_code`` is None if ``main`` raised."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return _CHECKS[op.command](op, stdout, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
