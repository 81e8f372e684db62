"""Golden outputs: every CLI case's stdout, stderr, exit code and files, by sha256.

``golden.json`` maps each argv (joined by spaces) to the digests of what
``polydome.cli.main`` produced for it, with the output directory replaced by
a fixed token.  A change that moves any byte fails here and names the case.

Regenerate after an intended output change, then review the diff:

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from polydome.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
OUT_TOKEN = "<OUT>"

README = [
    "mesh --n 5 --R 1 --segments 32 --rings 32 --format stl -o dome5.stl",
    "volume --n 4 --R 1",
    "volume --n 4 --R 1 --mesh-res 64 --mc-samples 1000000 --seed 42",
    "slabs --n 4 --R 1 --m 16 -o slabs.csv --mesh-out stairs.stl",
    "xsec --n 4 --R 1 --azimuth-deg 45",
    "xsec --n 4 --R 1 --azimuth-deg 45 --mesh-res 64",
    "xsec --n 4 --R 1 --azimuth-deg 45 --format csv -o section.csv",
    "params --n 5",
]

SCALES = [
    command.format(n=n, R=R)
    for n in (3, 16)
    for R in ("1e-30", "1", "1e30")
    for command in (
        "mesh --n {n} --R {R} --segments 3 --rings 4 --format obj -o m.obj",
        "volume --n {n} --R {R} --mesh-res 4 --mc-samples 20000 --seed 9",
        "xsec --n {n} --R {R} --azimuth-deg 10 --mesh-res 4",
    )
]

SHAPES = [
    "mesh --n 16 --R 1 --segments 32 --rings 33 --format obj -o big.obj",  # past one OBJ chunk
    "mesh --n 7 --R 2.5 --segments 5 --rings 3 -o seven.stl",
    "slabs --n 4 --R 1 --m 2000 --mesh-out stairs.stl",
    "slabs --n 6 --R 0.5 --m 7 -o six.csv --mesh-out six.obj",
    "xsec --n 5 --R 2 --azimuth-deg 30 --points 9 -o section.json",
    "xsec --n 5 --R 2 --azimuth-deg 30 --mesh-res 8 -o mesh_section.json",
    "xsec --n 5 --R 2 --azimuth-deg 30 --points 9 --format csv",
    "xsec --n 5 --R 2 --azimuth-deg 30 --mesh-res 8 --format csv",
    "params --n 3",
    "params --n 16 --R 2",
    "params --n 7 --a-samples 0",
    "params --n 7 --a-samples 1",
    "params --n 7 --a-samples 37",
]

REJECTED = [
    "mesh --n 2 --R 1 -o x.stl",
    "volume --n 4 --R 0",
    "volume --n 4 --R 1e31",
    "mesh --n 4 --R 1 --segments 0 -o x.stl",
    "volume --n 4 --R 1 --mesh-res 0",
    "volume --n 4 --R 1 --mc-samples 0",
    "volume --n 4 --R 1 --mc-samples -1",
    "volume --n 4 --R 1 --mc-samples 10 --seed -1",
    "xsec --n 4 --R 1 --azimuth-deg 0 --points 1",
    "xsec --n 4 --R 1 --azimuth-deg 0 --mesh-res 0",
    "slabs --n 4 --R 1 --m 0",
    "slabs --n 4 --R 1 --m -3",
    "params --n 4 --a-samples -1",
    # meshes above the triangle bound
    "mesh --n 1000000 --R 1 -o x.stl",
    "mesh --n 11 --R 1 --segments 23 --rings 6917 -o x.stl",
    "volume --n 11 --R 1 --mesh-res 400",
    "xsec --n 11 --R 1 --azimuth-deg 0 --mesh-res 400",
    "slabs --n 437501 --R 1 --m 2 --mesh-out stairs.stl",
    # counts one above their bounds
    "slabs --n 4 --R 1 --m 2000001",
    "volume --n 4 --R 1 --mc-samples 100000001",
    "xsec --n 4 --R 1 --azimuth-deg 0 --points 100001",
    "params --n 4 --a-samples 100001",
]

CASES = README + SCALES + SHAPES + REJECTED


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def environment() -> dict:
    return {"numpy": np.__version__, "platform": f"{sys.platform}-{platform.machine()}"}


def run_case(case: str) -> tuple[dict, str]:
    """Digests of one CLI run in a fresh output directory, and its stdout and stderr."""
    with tempfile.TemporaryDirectory() as directory:
        out_dir = Path(directory)
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, {"POLYDOME_OUT_DIR": str(out_dir)}), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(case.split())

        out, err = (stream.getvalue().replace(str(out_dir), OUT_TOKEN) for stream in (stdout, stderr))
        files = {
            path.relative_to(out_dir).as_posix(): _sha(path.read_bytes())
            for path in sorted(out_dir.rglob("*"))
            if path.is_file()
        }
        return {"exit": code, "stdout": _sha(out.encode()), "stderr": _sha(err.encode()), "files": files}, out + err


def regenerate() -> None:
    """Rewrite golden.json and print each case whose digests changed, were added or were removed."""
    old = json.loads(GOLDEN.read_text())["cases"] if GOLDEN.exists() else {}
    cases = {case: run_case(case)[0] for case in CASES}
    GOLDEN.write_text(json.dumps({"environment": environment(), "cases": cases}, indent=1, sort_keys=True) + "\n")
    for case in sorted(old.keys() | cases.keys()):
        if case not in cases:
            print(f"removed: {case}")
        elif case not in old:
            print(f"added: {case}")
        elif old[case] != cases[case]:
            print(f"changed: {case}")


def test_outputs_match_the_golden_digests():
    document = json.loads(GOLDEN.read_text())
    recorded = document["cases"]
    assert sorted(recorded) == sorted(CASES), "golden.json and CASES list different cases; regenerate"
    differing = {}
    for case in CASES:
        actual, output = run_case(case)
        if actual != recorded[case]:
            differing[case] = {
                field: {"golden": recorded[case][field], "now": actual[field]}
                for field in actual
                if actual[field] != recorded[case][field]
            }
            differing[case]["output now"] = output[-300:]
    assert not differing, (
        f"golden recorded on {document['environment']}, running on {environment()}; "
        f"{len(differing)} case(s) differ:\n{json.dumps(differing, indent=1)}"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    regenerate()
