"""polydome benchmark: seeded CLI workloads driven in-process through
``polydome.cli.main(argv)``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mesh-export --seed 1 --seconds 34 --trace 0

One client in one process sends the next command only when the previous
one returned (a closed loop, no threads).  The workload's op list is made
from ``--seed`` and cycled until ``--seconds`` of op wall time have been
measured, and at least once.  Outputs go to a temporary directory under
``.perfbench/`` through ``POLYDOME_OUT_DIR`` and are checked by the oracle
outside the timed region.

Times are given at reference speed.  On a shared machine the speed of a
core drifts by up to a factor of two within seconds to minutes, and a wall
time carries that drift.  So a fixed unit of reference work (see
``Reference``), which uses no polydome code, runs before the first command
and after every command, and each command's wall time is scaled by
``REFERENCE_S`` over the mean of the two reference times around it.  A
reference-speed second is the time in which this machine does the reference
work ``1 / REFERENCE_S`` times; the scale cancels most of the drift, while a
change to the program moves the scaled time as it moves the wall time.
Set-up time is scaled the same way by a bare interpreter start
(``python -c pass``, ``BARE_START_S`` at reference speed) run just before
each set-up, as starting processes drifts apart from in-process work.  The
record line keeps the unscaled figures beside the scaled ones.

Each command's time is its median over the run's passes.
``latency_p50_ms`` and ``latency_tail_ms`` are percentiles of those
per-command times, and the record counts the runs beyond the tail.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every op
twice, untraced and traced, in alternating order, and reports per-layer
metrics from the spans (see ``spans.py``), which it also writes to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.  ``--smoke`` shrinks every
size so the benchmark's own tests run in seconds.

Lines before the last are a human-readable table and a JSON run record;
the last line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import oracle
import workloads

CHECKOUT = Path(__file__).resolve().parent.parent
SOURCE = CHECKOUT / "src"
SCRATCH = CHECKOUT / ".perfbench"
SETUP_ARGV = ("-m", "polydome.cli", "params", "--n", "5")
SETUP_REPEATS = 11
REFERENCE_S = 0.01  # seconds the reference work takes at reference speed
BARE_START_S = 0.05  # seconds ``python -c pass`` takes at reference speed
MC = "analysis.monte_carlo_volume"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _layer(span: str, *quantities: tuple[str, str]) -> tuple[tuple[str, str], ...]:
    return ((f"{span}.self_s", "s/op"),) + tuple((f"{span}.{q}", unit) for q, unit in quantities)


PER_LAYER = (
    _layer("meshing.defective_edges", ("calls", "calls/op"), ("edges", "edges/op"))
    + _layer("meshing.write_obj", ("bytes", "B/op"), ("mb_per_s", "MB/s"))
    + _layer("meshing.write_stl", ("bytes", "B/op"), ("mb_per_s", "MB/s"))
    + _layer("meshing.tessellate", ("triangles", "triangles/op"), ("dropped", "triangles/op"))
    + _layer("meshing.signed_volume")
    + _layer("surface.scaling_factor_array")
    + _layer("surface.inside_mask", ("points", "points/op"), ("ns_per_point", "ns/point"))
    + _layer(
        "analysis.monte_carlo_volume", ("samples", "samples/op"), ("chunks", "chunks/op"),
        ("hit_fraction", "ratio"), ("s_to_rse_1e-3", "s"),
    )
    + _layer("analysis.mesh_volume")
    + _layer("analysis.mesh_plane_section", ("triangles", "triangles/op"), ("points", "points/op"))
    + _layer("analysis.ellipse_residual")
    + _layer("analysis.write_section_csv", ("bytes", "B/op"))
    + _layer("slabs.build_slab_stack")
    + _layer("slabs.slab_stack_mesh", ("triangles", "triangles/op"))
    + _layer("slabs.convergence_profile")
    + _layer("slabs.write_slab_csv", ("bytes", "B/op"))
    + _layer("cli.main")
    + (("trace.overhead", "ratio"), ("trace.self_sum_over_wall", "ratio"))
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def import_program():
    """Import polydome from this checkout's ``src/``, never from elsewhere."""
    if not (SOURCE / "polydome" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no polydome sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import polydome

    if Path(polydome.__file__).resolve().parent != SOURCE / "polydome":
        raise SystemExit(f"perfbench: polydome imported from {polydome.__file__}, not {SOURCE}")


class Reference:
    """A fixed unit of work that uses no polydome code, timed between
    commands to follow the machine's speed.  It mixes the kinds of work the
    program does: a numpy row sort and unique count, float formatting and a
    pure-Python loop."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = rng.integers(0, 20_000, size=(12_000, 2))
        self.floats = rng.random(1200).tolist()
        self.times: list[float] = []

    def run(self) -> float:
        start = time.perf_counter()
        np.unique(np.sort(self.rows, axis=1), axis=0, return_counts=True)
        "\n".join(f"{x:.9g}" for x in self.floats)
        total = 0
        for i in range(15_000):
            total += i * i
        self.times.append(time.perf_counter() - start)
        return self.times[-1]

    def scale(self, wall: float, before: float, after: float) -> float:
        """``wall`` at reference speed, given the reference times around it."""
        return wall * REFERENCE_S / (0.5 * (before + after))


def measure_setup(repeats: int) -> tuple[float, float, list[str]]:
    """Median time, at reference speed and unscaled, of a fresh interpreter
    running ``polydome params``."""
    env = dict(os.environ, PYTHONPATH=str(SOURCE))

    def launch(*args):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *args], cwd=CHECKOUT, env=env, capture_output=True, text=True, timeout=60,
        )
        return time.perf_counter() - start, done

    times, walls, problems = [], [], []
    for _ in range(repeats):
        bare, _ = launch("-c", "pass")
        wall, done = launch(*SETUP_ARGV)
        walls.append(wall)
        times.append(wall * BARE_START_S / bare)
        if done.returncode != 0 or not done.stdout.rstrip().rpartition("\n")[2].startswith("params: n=5 "):
            problems.append(f"setup command failed: exit {done.returncode}, {done.stderr[-200:]!r}")
    return statistics.median(times), statistics.median(walls), problems


def nearest_rank(sorted_values, percentile: float):
    """Value with ``percentile`` percent of the samples at or below it."""
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class Runner:
    """Executes ops, times them, checks them and digests their outputs."""

    def __init__(self, ops, out_dir: Path, tracer=None):
        from polydome.cli import main

        self.main = main
        self.ops, self.out_dir, self.tracer = ops, out_dir, tracer
        self.attempted = 0
        self.problems: list[str] = []
        self.digests: list[str | None] = [None] * len(ops)
        self.reports: dict[int, dict] = {}
        self.traced_executions: dict[int, int] = {}  # execution id -> op index
        self._executions = 0

    def execute(self, index: int, traced: bool = False) -> float:
        op = self.ops[index]
        argv = list(op.argv)
        stdout, stderr = io.StringIO(), io.StringIO()
        self._executions += 1
        if traced:
            self.tracer.install()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if traced:
                    self.traced_executions[self._executions] = index
                    code = self.tracer.call_op(self._executions, self.main, argv)
                else:
                    code = self.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        except Exception:  # the benchmark keeps running and counts the op as failed
            code = None
            stderr.write(traceback.format_exc())
        wall = time.perf_counter() - start
        if traced:
            self.tracer.uninstall()
        self._check(index, code, stdout.getvalue(), stderr.getvalue())
        return wall

    def _check(self, index: int, code, stdout: str, stderr: str) -> None:
        op = self.ops[index]
        self.attempted += 1
        problems = oracle.check(op, code, stdout, self.out_dir)
        digest = hashlib.sha256(stdout.replace(str(self.out_dir), "$POLYDOME_OUT_DIR").encode())
        for name in op.outputs:
            path = self.out_dir / name
            digest.update(name.encode() + b"\0")
            digest.update(path.read_bytes() if path.exists() else b"<missing>")
        digest = digest.hexdigest()
        if self.digests[index] is None:
            self.digests[index] = digest
        elif self.digests[index] != digest:
            problems.append("outputs differ from an earlier run of the same command")
        if op.command == "volume" and not problems and index not in self.reports:
            self.reports[index] = json.loads(stdout)
        if problems:
            self.problems.append(f"{' '.join(op.argv)}: {'; '.join(problems)} {stderr[-300:]}".strip())

    def output_digest(self) -> str:
        return hashlib.sha256("\n".join(self.digests).encode()).hexdigest()


def run_loop(runner: Runner, seconds: float, traced: bool, reference: Reference | None = None):
    """Cycle the op list until ``seconds`` of op wall time, and at least once.

    Returns per-op untraced times (at reference speed when a ``reference``
    is given, else equal to the walls), per-op untraced walls and, when
    ``traced``, per-op traced walls; the two runs of an op alternate which
    goes first.
    """
    count = len(runner.ops)
    plain = [[] for _ in range(count)]
    walls = [[] for _ in range(count)]
    with_trace = [[] for _ in range(count)]
    measured, step = 0.0, 0
    before = reference.run() if reference else None
    while measured < seconds or step < count:
        index = step % count
        if traced and step % 2:
            with_trace[index].append(runner.execute(index, traced=True))
        wall = runner.execute(index)
        walls[index].append(wall)
        if reference:
            after = reference.run()
            plain[index].append(reference.scale(wall, before, after))
            before = after
        else:
            plain[index].append(wall)
        if traced and not step % 2:
            with_trace[index].append(runner.execute(index, traced=True))
        measured += wall + (with_trace[index][-1] if traced else 0.0)
        step += 1
    return plain, walls, with_trace


def per_op_rate(times) -> float:
    """Commands per second over the op list, each command at its median time."""
    return len(times) / math.fsum(statistics.median(t) for t in times)


def end_to_end(runner: Runner, times, walls, tail_percentile: float, setup) -> tuple[dict, dict]:
    """``times`` at reference speed and unscaled ``walls``, per op; ``setup``
    is the pair of set-up times, scaled and unscaled."""
    typical = sorted(statistics.median(t) for t in times)
    tail = nearest_rank(typical, tail_percentile)
    metrics = {
        "setup_s": setup[0],
        "ops_per_s": per_op_rate(times),
        "latency_p50_ms": 1e3 * statistics.median(typical),
        "latency_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "latency_tail": {
            "percentile": tail_percentile, "commands": len(typical),
            "runs": sum(len(t) for t in times),
            "runs_beyond": sum(t > tail for op in times for t in op),
        },
        "unscaled": {
            "setup_s": setup[1],
            "ops_per_s": per_op_rate(walls),
            "latency_p50_ms": 1e3 * statistics.median(statistics.median(w) for w in walls),
        },
        "error_rate": len(runner.problems) / runner.attempted,
        "mc_s_to_rse_1e-3": None,
    }
    if runner.reports:
        # Time one command would need for 0.1% relative standard error: the
        # error falls as 1/sqrt(samples) and the time grows with samples.
        extra["mc_s_to_rse_1e-3"] = statistics.median(
            statistics.median(times[i]) * (r["mc_std_error"] / r["analytic"] / 1e-3) ** 2
            for i, r in runner.reports.items()
        )
    return metrics, extra


# Per-layer quantities reported as averages per traced op; the rest are ratios.
PER_OP = {"self_s", "calls", "edges", "bytes", "triangles", "dropped", "points", "samples", "chunks"}


def per_layer(runner: Runner, plain, with_trace) -> dict:
    """Per-op averages of self time and sizes per span name, plus ratios."""
    tracer = runner.tracer
    runs = sum(len(w) for w in with_trace)
    totals: dict[str, Counter] = defaultdict(Counter)
    self_sums: dict[int, float] = defaultdict(float)
    precision_times = []
    for span, self_time in zip(tracer.spans, tracer.self_times()):
        name, start, end, parent, execution, sizes = span
        totals[name].update(sizes, self=self_time, calls=1)
        self_sums[execution] += self_time
        if parent >= 0 and name == "surface.inside_mask" and tracer.spans[parent][0] == MC:
            totals[MC]["chunks"] += 1
        if name == MC:
            # seconds this call would need for 0.1% relative standard error
            precision_times.append((end - start) * (sizes["std_error"] / sizes["estimate"] / 1e-3) ** 2)

    metrics = {}
    for metric, _ in PER_LAYER:
        span, _, quantity = metric.rpartition(".")
        if quantity in PER_OP:
            metrics[metric] = totals[span]["self" if quantity == "self_s" else quantity] / runs
    for writer in ("meshing.write_obj", "meshing.write_stl"):
        metrics[f"{writer}.mb_per_s"] = _ratio(totals[writer]["bytes"] / 1e6, totals[writer]["self"])
    mask = totals["surface.inside_mask"]
    metrics["surface.inside_mask.ns_per_point"] = _ratio(1e9 * mask["self"], mask["points"])
    metrics[f"{MC}.hit_fraction"] = _ratio(mask["hits"], mask["points"])
    metrics[f"{MC}.s_to_rse_1e-3"] = statistics.median(precision_times) if precision_times else 0.0
    metrics["trace.overhead"] = per_op_rate(with_trace) / per_op_rate(plain)
    # Summed self time of the traced runs of an op against its untraced runs, best against best.
    by_op: dict[int, list[float]] = defaultdict(list)
    for execution, index in runner.traced_executions.items():
        by_op[index].append(self_sums[execution])
    metrics["trace.self_sum_over_wall"] = statistics.median(
        min(sums) / min(plain[index]) for index, sums in by_op.items()
    )
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    tail_percentile = workloads.WORKLOADS[args.workload][1]
    ops = workloads.generate(args.workload, args.seed, smoke=args.smoke)

    SCRATCH.mkdir(exist_ok=True)
    out_dir = SCRATCH / f"out-{os.getpid()}"
    out_dir.mkdir()
    os.environ["POLYDOME_OUT_DIR"] = str(out_dir)
    try:
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        runner = Runner(ops, out_dir, tracer)
        setup, setup_problems, setup_runs = None, [], 2 if args.smoke else SETUP_REPEATS
        reference = None
        if not args.trace:
            *setup, setup_problems = measure_setup(setup_runs)
            reference = Reference()
            for _ in range(3):  # warm-up
                reference.run()
        plain, walls, with_trace = run_loop(runner, args.seconds, bool(args.trace), reference)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    problems = setup_problems + runner.problems
    attempted = runner.attempted + (0 if args.trace else setup_runs)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "ops_in_list": len(ops),
        "attempted": attempted, "failed": len(problems),
        "output_digest": runner.output_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas": _blas_info(),
        "problems": problems[:10],
    }
    if args.trace:
        metrics = per_layer(runner, plain, with_trace)
        spans_path = SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        record["spans"] = str(spans_path.relative_to(CHECKOUT))
        units = dict(PER_LAYER)
    else:
        metrics, extra = end_to_end(runner, plain, walls, tail_percentile, setup)
        record.update(extra)
        record["reference_s"] = {"at_speed": REFERENCE_S, "median": statistics.median(reference.times),
                                 "min": min(reference.times), "max": max(reference.times)}
        units = dict(END_TO_END)
    for name, unit in units.items():
        print(f"{name:<44} {metrics[name]:>16.6g} {unit}")
    if not args.trace:
        tail = record["latency_tail"]
        print("  (tail: p%g of the median times of %d commands; %d runs, %d of them beyond)" % tuple(tail.values()))
        print(f"{'error_rate':<44} {record['error_rate']:>16.6g} ratio")
        mc = record["mc_s_to_rse_1e-3"]
        print(f"{'mc_s_to_rse_1e-3':<44} {'n/a' if mc is None else format(mc, '.6g'):>16} s")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def _blas_info() -> dict:
    """numpy's BLAS and its thread settings as found, never changed."""
    info = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    return info


if __name__ == "__main__":
    sys.exit(main())
