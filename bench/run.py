"""Benchmark of the polyevp command line on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload solve_dense --seed 1 --seconds 35 --trace 0

Each operation is one in-process call of ``polyevp.cli.main(argv)`` with
stdout captured, in a closed loop with one client: the next operation
starts when the previous one has returned.  Inputs come from the seed
(see ``instances.py``); every problem is fresh, so the solver's
process-wide dominance cache never answers a timed operation from an
earlier one.  Every output is checked; see README.md for the workloads,
the metrics and the baseline.

``--trace 0`` times the workload and reports the end-to-end metrics.
The run lasts ``--seconds`` of wall time (and at least the workload's
minimum operation count); each operation is timed, then checked and its
certificate verified, untimed, before the next one starts.  Peak memory,
which grows with the operation count, is read after exactly the minimum
count, so it stays comparable between commits and machines.

``--trace 1`` runs a fixed number of operations with spans recorded
around polyevp's public functions (``tracer.py``), then as many untraced
ones, and reports the per-layer metrics.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  Only
the exact LP backend is measured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable, Iterator, Optional

import instances
from tracer import SPAN_NAMES, Tracer, bindings, same_bindings

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
DEFAULT_SEED = 0
SETUP_PROBES = 9


class BenchError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    index: int
    kind: str
    argv: tuple[str, ...]
    doc: str


@dataclass(frozen=True)
class Workload:
    # (value rng, shape rng, op index, work dir) -> operation
    make_op: Callable[[random.Random, random.Random, int, Path], Op]
    min_ops: int  # operations a timed run makes at least; peak RSS is read here
    warmup: tuple[tuple[str, ...], ...]  # argv templates over the warm-up files
    traced_ops: int  # operations per pass with --trace 1


def _write(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(doc))
    return str(path)


def _solve_op(n_points: int, max_images: int, n: int, max_gens: int, max_verts: int):
    def make(rng: random.Random, shapes: random.Random, i: int, workdir: Path) -> Op:
        # every third problem in scaled mode, as in the acceptance batch
        shape = instances.problem_shape(
            shapes, n_points, max_images, max_gens, max_verts, scaled=i % 3 == 2
        )
        while (doc := instances.rand_problem(rng, shape, n)) is None:
            pass
        path = _write(workdir, f"op{i}.json", doc)
        return Op(i, "solve", ("solve", path, "--json"), path)

    return make


def _geometry_op(rng: random.Random, shapes: random.Random, i: int, workdir: Path) -> Op:
    doc, point = instances.rand_geometry(rng, instances.geometry_shape(shapes))
    path = _write(workdir, f"op{i}.json", doc)
    if i % 2 == 0:
        # "--point=<coords>": argparse reads "--point -3,1" as a missing value
        coords = ",".join(str(c) for c in point)
        return Op(i, "scalarize", ("scalarize", path, f"--point={coords}", "--json"), path)
    return Op(i, "diagnose", ("diagnose", path, "--json"), path)


WORKLOADS = {
    "solve_dense": Workload(
        _solve_op(n_points=16, max_images=6, n=3, max_gens=4, max_verts=3),
        min_ops=100,
        warmup=(("solve", "{chain}", "--json"),),
        traced_ops=60,
    ),
    "solve_wide": Workload(
        _solve_op(n_points=32, max_images=2, n=2, max_gens=3, max_verts=2),
        min_ops=100,
        warmup=(("solve", "{chain}", "--json"),),
        traced_ops=60,
    ),
    "geometry": Workload(
        _geometry_op,
        min_ops=1000,
        warmup=(("scalarize", "{cross}", "--point=1,1", "--json"), ("diagnose", "{cross}", "--json")),
        traced_ops=400,
    ),
}

# tiny fixed documents for the warm-up operations of set-up
WARMUP_DOCS = {
    "chain": {
        "dimension": 2,
        "cone": {"generators": [[1, 0], [0, 1]]},
        "H": {"vertices": [[1, 1]]},
        "space": {"labels": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
        "map": {"a": [[4, 4]], "b": [[2, 2]], "c": [[0, 0]]},
        "x0": "a",
        "epsilon": 5,
        "mode": "plain",
    },
    "cross": {
        "dimension": 2,
        "cone": {"generators": [[1, 0], [0, 1]]},
        "H": {"vertices": [[1, 1], [2, 1]]},
        "ranges": {"pieces": [
            {"vertices": [[0, 0]], "rays": [[1, 0]]},
            {"vertices": [[0, 0]], "rays": [[0, -1]]},
        ]},
    },
}


def op_stream(name: str, seed: int, workdir: Path) -> Iterator[Op]:
    """Operations 0, 1, 2, ... of a workload.

    The sizes of operation i (point and image counts, generators,
    vertices, mode, dimension) follow a schedule fixed per workload; the
    seed draws the values.  Runs on different seeds then differ in their
    problems but not in their size mix, which keeps their timings
    comparable.
    """
    rng = random.Random(seed)
    shapes = random.Random(f"shapes:{name}")
    i = 0
    while True:
        yield WORKLOADS[name].make_op(rng, shapes, i, workdir)
        i += 1


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def import_cli():
    """Import polyevp.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "polyevp" / "cli.py").is_file():
        raise BenchError(f"no polyevp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from polyevp import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"polyevp imported from {cli.__file__}, not from {SRC}")
    return cli


def warmup_argvs(workload: Workload, workdir: Path) -> list[list[str]]:
    paths = {k: _write(workdir, f"warmup-{k}.json", d) for k, d in WARMUP_DOCS.items()}
    return [[a.format(**paths) for a in argv] for argv in workload.warmup]


# Set-up as a fresh process sees it: start the interpreter, import the
# CLI, run the warm-up operations, report ready.
_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from polyevp import cli
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            sys.exit(1)
print("ready", flush=True)
"""


def setup_probe(argvs: list[list[str]]) -> float:
    """Start-to-ready time of one fresh process, in s."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _PROBE, str(SRC), json.dumps(argvs)],
        stdout=subprocess.PIPE, text=True,
    ) as child:
        line = child.stdout.readline()
        t1 = perf_counter()
        child.stdout.read()
    if line.strip() != "ready" or child.returncode != 0:
        raise BenchError("set-up probe did not become ready")
    return t1 - t0


# ---------------------------------------------------------------------------
# running and checking operations
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    op: Op
    wall: float
    cpu: float
    failure: Optional[str]  # None when every check passed
    answer: Optional[dict]  # the unique exact answer, for the stored check
    certificate: Optional[str] = None


def call_cli(cli, argv) -> tuple[Optional[int], str, float, float]:
    """(exit code, stdout, wall s, CPU s) of one in-process CLI call.

    An exception that escapes ``main`` is a failed operation, not a dead
    run: the code is None and the output is the traceback.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        c0 = process_time()
        t0 = perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:
            code = None
            print(traceback.format_exc())
        t1 = perf_counter()
        c1 = process_time()
    return code, buf.getvalue(), t1 - t0, c1 - c0


def _payload(code: Optional[int], out: str) -> dict:
    if code != 0:
        raise ValueError(f"exit code {code}: {out.strip()[-300:]}")
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        raise ValueError(f"output is not JSON: {out[:200]!r}") from None


LADDER = ("k_lower", "quasi_k_lower", "kstar_h_lower", "h_lower", "ladder_consistent")


def check_output(op: Op, code: Optional[int], out: str) -> tuple[Optional[str], Optional[dict], Optional[str]]:
    """(failure, answer, certificate path) for one operation's output."""
    try:
        payload = _payload(code, out)
        if op.kind == "solve":
            if not all(payload["checks"].values()):
                raise ValueError(f"failed checks {payload['checks']}")
            answer = {k: payload[k] for k in ("xbar", "chain", "xi_trace")}
            return None, answer, payload["certificate_path"]
        if op.kind == "scalarize":
            if payload["agreement"] is not True:
                raise ValueError("exact and bisection routes disagree")
            if payload["phi"] != "+inf" and payload["attained"] is not True:
                raise ValueError("phi not attained")
            return None, {"phi": payload["phi"]}, None
        if payload["ladder_consistent"] is not True:
            raise ValueError("ladder inconsistent")
        return None, {k: payload[k] for k in LADDER}, None
    except ValueError as e:
        return str(e), None, None
    except (KeyError, TypeError, AttributeError) as e:
        return f"malformed output ({e!r}): {out[:200]!r}", None, None


def run_op(cli, op: Op) -> OpResult:
    """Time one operation, then check its output."""
    code, out, wall, cpu = call_cli(cli, op.argv)
    failure, answer, cert = check_output(op, code, out)
    return OpResult(op, wall, cpu, failure, answer, cert)


def verify_certificate(cli, r: OpResult) -> None:
    """Re-check a solve certificate with the CLI's verify command."""
    if r.failure is None and r.op.kind == "solve":
        code, out, _, _ = call_cli(cli, ("verify", r.op.doc, r.certificate, "--json"))
        try:
            if _payload(code, out).get("passed") is not True:
                raise ValueError(f"verify did not pass: {out[:300]}")
        except (ValueError, AttributeError) as e:
            r.failure = f"verify: {e}"


def load_expected(workload: str, seed: int) -> list:
    if seed != DEFAULT_SEED or not EXPECTED.is_file():
        return []
    return json.loads(EXPECTED.read_text()).get(workload, [])


def compare_expected(results: list[OpResult], expected: list) -> None:
    for r in results:
        i = r.op.index
        if r.failure is None and i < len(expected) and r.answer != expected[i]:
            r.failure = f"answer {r.answer} differs from stored {expected[i]}"


def write_expected(workload: str, results: list[OpResult]) -> None:
    if any(r.failure for r in results):
        raise BenchError("refusing to store answers from a run with failures")
    stored = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    stored[workload] = [r.answer for r in sorted(results, key=lambda r: r.op.index)]
    lines = []
    for name in sorted(stored):
        rows = ",\n".join("    " + json.dumps(a, sort_keys=True) for a in stored[name])
        lines.append(f'  "{name}": [\n{rows}\n  ]')
    EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(results: list[OpResult], setup_s: float, peak_rss_mb: float) -> dict:
    walls = [r.wall for r in results]
    return {
        "op_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(walls, n=10)[8] * 1e3, "ms"),
        # busy time only: input generation, checks and verify are untimed
        "ops_per_s": (len(results) / sum(walls), "1/s"),
        "cpu_ms_per_op": (sum(r.cpu for r in results) / len(results) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, traced: list[OpResult], untraced: list[OpResult]) -> dict:
    n = len(traced)
    metrics: dict = {}
    for name in SPAN_NAMES:
        calls, total, self_time, _ = tracer.totals[name]
        metrics[f"{name}.calls_per_op"] = (calls / n, "count")
        metrics[f"{name}.total_ms_per_op"] = (total / n * 1e3, "ms")
        metrics[f"{name}.self_ms_per_op"] = (self_time / n * 1e3, "ms")
    lp = tracer.totals["lp_core.solve"]
    dom = tracer.totals["evp.dominates"]
    metrics["lp_core.solve.infeasible_share"] = (_share(lp[3], lp[0]), "ratio")
    metrics["evp.dominates.lp_per_call"] = (_share(tracer.lp_in_dominates, dom[0]), "count")
    metrics["evp.dominates.true_share"] = (_share(dom[3], dom[0]), "ratio")
    traced_cpu = sum(r.cpu for r in traced) / n
    untraced_cpu = sum(r.cpu for r in untraced) / len(untraced)
    metrics["trace.overhead_share"] = (traced_cpu / untraced_cpu - 1, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_untraced(cli, name: str, seed: int, seconds: float, workdir: Path, argvs):
    """Operations for ``seconds`` of wall time, and at least ``min_ops``.

    Generating, checking and verifying an operation are inside the wall
    time but outside its timing, so the run's length does not depend on
    how the operation count and the untimed work add up.  The set-up
    probes are spread evenly over the run, so that their median sees the
    same machine as the operations do.
    """
    min_ops = WORKLOADS[name].min_ops
    stream = op_stream(name, seed, workdir)
    results: list[OpResult] = []
    setups: list[float] = []
    rss = 0.0
    start = perf_counter()
    deadline = start + seconds
    while len(results) < min_ops or perf_counter() < deadline:
        probe_due = start + len(setups) * seconds / SETUP_PROBES
        if len(setups) < SETUP_PROBES and perf_counter() >= probe_due:
            setups.append(setup_probe(argvs))
        r = run_op(cli, next(stream))
        verify_certificate(cli, r)
        results.append(r)
        if len(results) == min_ops:
            rss = peak_rss_mb()
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(argvs))
    return results, end_to_end(results, statistics.median(setups), rss), []


def run_traced(cli, name: str, seed: int, workdir: Path):
    """Traced pass, then an untraced pass of as many fresh operations.

    A single counter on the exact LP entry point (one binding, inside
    lp_core) checks the tracer's LP span count op by op.
    """
    from polyevp import lp_core

    errors: list[str] = []
    stream = op_stream(name, seed, workdir)
    before = bindings()
    solve_exact = lp_core._solve_exact
    direct = 0  # exact LP solves since the last operation ended

    def counted(lp):
        nonlocal direct
        direct += 1
        return solve_exact(lp)

    tracer = Tracer()

    def after_op():
        nonlocal direct
        lp_spans = tracer.fold().get("lp_core.solve", 0)
        if lp_spans != direct:
            errors.append(f"trace counted {lp_spans} LP solves, direct count {direct}")
        direct = 0

    lp_core._solve_exact = counted
    tracer.install()
    try:
        traced = []
        for op in islice(stream, WORKLOADS[name].traced_ops):
            traced.append(run_op(cli, op))
            after_op()
    finally:
        tracer.restore()
        lp_core._solve_exact = solve_exact
    if not same_bindings(before, bindings()):
        errors.append("tracer left a patched binding behind")
    untraced = [run_op(cli, op) for op in islice(stream, WORKLOADS[name].traced_ops)]
    results = traced + untraced
    for r in results:
        verify_certificate(cli, r)
    return results, per_layer(tracer, traced, untraced), errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-expected", type=int, metavar="N", default=None,
        help=f"run the first N operations of seed {DEFAULT_SEED} untimed and "
        "store their answers in expected.json",
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        cli = import_cli()
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        argvs = warmup_argvs(workload, workdir)
        if args.write_expected is not None:
            if args.seed != DEFAULT_SEED:
                raise BenchError(f"answers are stored for seed {DEFAULT_SEED} only")
            stream = op_stream(args.workload, args.seed, workdir)
            results = [run_op(cli, op) for op in islice(stream, args.write_expected)]
            for r in results:
                verify_certificate(cli, r)
            write_expected(args.workload, results)
            print(f"stored {len(results)} answers for {args.workload}")
            return 0
        for a in argvs:
            code, out, _, _ = call_cli(cli, a)
            if code != 0:
                raise BenchError(f"warm-up {a} failed: {out}")
        if args.trace:
            results, metrics, errors = run_traced(cli, args.workload, args.seed, workdir)
        else:
            results, metrics, errors = run_untraced(
                cli, args.workload, args.seed, args.seconds, workdir, argvs
            )
        compare_expected(results, load_expected(args.workload, args.seed))
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    failed = [r for r in results if r.failure is not None]
    for r in failed[:5]:
        print(f"FAILED op {r.op.index} ({' '.join(r.op.argv)}): {r.failure}", file=sys.stderr)
    for e in errors[:5]:
        print(f"SELF-TEST FAILED: {e}", file=sys.stderr)
    if len(errors) > 5:
        print(f"... and {len(errors) - 5} more self-test failures", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {len(results)} ops")
    print(f"fail_share = {len(failed) / len(results):.4f} ratio ({len(failed)}/{len(results)})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed and not errors,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
