"""Seeded generators of the benchmark's CLI op lists.

Each workload is a fixed list of ``polydome`` argv lists made from the seed
alone.  What sets an op's cost is not drawn at random: each workload has a
fixed ladder of sizes (the midpoints of equal strata of its cost range, with
n, the grid split and the output format set along the ladder), so every seed
gets the same cost profile.  n is not left to the seed: the Python loops
in ``slabs`` and ``mesh_plane_section`` scale with m and the mesh resolution
rather than the triangle count, so a seeded n would move a run's cost by
10-20%.  The seed chooses R, the azimuths, the Monte Carlo seeds and
the op order.  Run-to-run differences then come from the program and the
machine, not from a seed that drew large or small inputs.

Inputs vary as the program's behaviour depends on them: n in 3..16, R
log-uniform over 0.01..100, and meshes from about 1.7k to 117k triangles, so
the topology arrays cross the 2 MiB per-core L2.
"""

import math
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Op:
    """One CLI command: its argv, the inputs the oracle needs, its output files."""

    command: str
    argv: tuple[str, ...]
    params: dict = field(hash=False)
    outputs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Sizes:
    n: tuple[int, int] = (3, 16)
    R: tuple[float, float] = (0.01, 100.0)
    grid: tuple[int, int] = (16, 64)  # mesh --segments and --rings
    mc_samples: tuple[int, int] = (250_000, 1_000_000)
    slabs: tuple[int, int] = (100, 2000)  # slabs --m
    xsec_res: tuple[int, int] = (32, 96)  # xsec --mesh-res


FULL = Sizes()
SMOKE = Sizes(n=(3, 6), grid=(2, 4), mc_samples=(1000, 4000), slabs=(2, 6), xsec_res=(2, 4))


def _ladder(count: int, lo: float, hi: float) -> list[float]:
    """``count`` cost targets log-spaced over [lo, hi]: midpoints of equal strata."""
    return [_log_between(lo, hi, (k + 0.5) / count) for k in range(count)]


def _spread(k: int, choices: list):
    """The ``k``-th pick of a fixed low-discrepancy walk over ``choices``."""
    return choices[int((k * 0.6180339887498949) % 1.0 * len(choices))]


def _log_between(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _radii(rng: random.Random, count: int, sizes: Sizes) -> list[str]:
    # Printed with 6 significant digits; the oracle uses the printed value.
    return [f"{_log_between(*sizes.R, rng.random()):.6g}" for _ in range(count)]


def _pick_n(k: int, target: float, cost, lo: int, hi: int, sizes: Sizes) -> int:
    """An n for which some size in [lo, hi] brings ``cost(n, size)``, the op's
    cost driver, to ``target``; successive ``k`` walk over those n."""
    n_lo, n_hi = sizes.n
    feasible = [n for n in range(n_lo, n_hi + 1) if cost(n, lo) <= target <= cost(n, hi)]
    return _spread(k, feasible or [n_lo if target < cost(n_lo, lo) else n_hi])


def _dome_triangles(n: int, res: int) -> int:
    return 2 * n * res * res  # tessellate at res x res per sector


def _stair_triangles(n: int, m: int) -> int:
    return 4 * n * m  # slab staircase: 4nm - 4


def _clamp(value: float, lo: int, hi: int) -> int:
    return min(hi, max(lo, round(value)))


def _formats_by_size(count: int, pattern: tuple[str, ...]) -> list[str]:
    """Formats for a ladder sorted by cost: ``pattern`` cycled down from the
    top, so every size range gets the same mix, the largest op the last format."""
    return [pattern[-1 - (count - 1 - k) % len(pattern)] for k in range(count)]


def mesh_export(seed: int, sizes: Sizes = FULL) -> list[Op]:
    """``mesh`` commands: 2/3 STL and 1/3 OBJ, about 1.7k..117k triangles."""
    rng = random.Random(f"mesh-export/{seed}")
    count = 24
    lo, hi = sizes.grid
    n_lo, n_hi = sizes.n
    targets = _ladder(count, _dome_triangles(n_lo, lo), _dome_triangles(n_hi, hi))
    formats = _formats_by_size(count, ("stl", "stl", "obj"))
    ladder = []
    for k, (target, fmt) in enumerate(zip(targets, formats)):
        n = _pick_n(k, target, _dome_triangles, lo, hi, sizes)
        cells = target / (2 * n)  # segments * rings
        aspect = 2.0 ** ((k * 0.3819660112501051) % 1.0 - 0.5)  # segments / rings in [0.71, 1.41]
        segments = _clamp(math.sqrt(cells * aspect), lo, hi)
        ladder.append((n, segments, _clamp(cells / segments, lo, hi), fmt))
    rng.shuffle(ladder)
    ops = []
    for i, ((n, segments, rings, fmt), R) in enumerate(zip(ladder, _radii(rng, count, sizes))):
        out = f"mesh{i}.{fmt}"
        argv = ("mesh", "--n", str(n), "--R", R, "--segments", str(segments),
                "--rings", str(rings), "--format", fmt, "-o", out)
        params = {"n": n, "R": float(R), "segments": segments, "rings": rings, "format": fmt}
        ops.append(Op("mesh", argv, params, (out,)))
    return ops


def volume_mc(seed: int, sizes: Sizes = FULL) -> list[Op]:
    """``volume --mc-samples`` with random MC seeds; every n equally often."""
    rng = random.Random(f"volume-mc/{seed}")
    count = 42  # every n in 3..16 three times
    n_lo, n_hi = sizes.n
    s_lo, s_hi = sizes.mc_samples
    # Sample counts rise along the ladder; a stride coprime to the number of
    # n values gives every n a low, a middle and a high count.
    ladder = [(n_lo + 5 * k % (n_hi - n_lo + 1), round(s_lo + (s_hi - s_lo) * (k + 0.5) / count))
              for k in range(count)]
    rng.shuffle(ladder)
    ops = []
    for (n, k), R in zip(ladder, _radii(rng, count, sizes)):
        mc_seed = rng.randrange(2**31)
        argv = ("volume", "--n", str(n), "--R", R, "--mc-samples", str(k), "--seed", str(mc_seed))
        ops.append(Op("volume", argv, {"n": n, "R": float(R), "samples": k, "seed": mc_seed}))
    return ops


def slabs_xsec(seed: int, sizes: Sizes = FULL) -> list[Op]:
    """Alternating ``slabs --mesh-out`` and ``xsec --mesh-res`` commands."""
    rng = random.Random(f"slabs-xsec/{seed}")
    half = 16
    n_lo, n_hi = sizes.n

    m_lo, m_hi = sizes.slabs
    slab_targets = _ladder(half, _stair_triangles(n_lo, m_lo), _stair_triangles(n_hi, m_hi))
    slab_ladder = []
    for k, (target, fmt) in enumerate(zip(slab_targets, _formats_by_size(half, ("stl", "stl", "obj")))):
        n = _pick_n(k, target, _stair_triangles, m_lo, m_hi, sizes)
        slab_ladder.append((n, _clamp(target / (4 * n), m_lo, m_hi), fmt))
    rng.shuffle(slab_ladder)
    slabs = []
    for i, ((n, m, fmt), R) in enumerate(zip(slab_ladder, _radii(rng, half, sizes))):
        csv, mesh = f"slabs{i}.csv", f"stairs{i}.{fmt}"
        argv = ("slabs", "--n", str(n), "--R", R, "--m", str(m), "-o", csv, "--mesh-out", mesh)
        slabs.append(Op("slabs", argv, {"n": n, "R": float(R), "m": m, "format": fmt}, (csv, mesh)))

    r_lo, r_hi = sizes.xsec_res
    xsec_targets = _ladder(half, _dome_triangles(n_lo, r_lo), _dome_triangles(n_hi, r_hi))
    xsec_ladder = []
    for k, (target, fmt) in enumerate(zip(xsec_targets, _formats_by_size(half, ("json", "csv")))):
        n = _pick_n(k, target, _dome_triangles, r_lo, r_hi, sizes)
        xsec_ladder.append((n, _clamp(math.sqrt(target / (2 * n)), r_lo, r_hi), fmt))
    rng.shuffle(xsec_ladder)
    xsecs = []
    for i, ((n, res, fmt), R) in enumerate(zip(xsec_ladder, _radii(rng, half, sizes))):
        azimuth = f"{rng.uniform(0.0, 360.0):.4f}"
        argv = ["xsec", "--n", str(n), "--R", R, "--azimuth-deg", azimuth, "--mesh-res", str(res), "--format", fmt]
        outputs = ()
        if fmt == "csv":
            outputs = (f"xsec{i}.csv",)
            argv += ["-o", outputs[0]]
        xsecs.append(Op("xsec", tuple(argv), {"n": n, "R": float(R), "res": res, "format": fmt}, outputs))

    return [op for pair in zip(slabs, xsecs) for op in pair]


# name -> (generator, tail percentile).  The tail is a percentile of the
# commands' best times, fixed per workload so that at least ten runs lie
# beyond it.  It is not recomputed from each run's sample count: a faster
# program completes more runs, and a percentile that rose with the count
# would read a speed-up as a worse tail.
WORKLOADS = {
    "mesh-export": (mesh_export, 85),
    "volume-mc": (volume_mc, 90),
    "slabs-xsec": (slabs_xsec, 90),
}


def generate(name: str, seed: int, smoke: bool = False) -> list[Op]:
    generator = WORKLOADS[name][0]
    return generator(seed, sizes=SMOKE if smoke else FULL)
