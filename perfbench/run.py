"""seqpol benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up builds the workload's inputs from the seed, once before and again
after the operations. A child process, started before set-up so that
``peak_rss_mb`` is its own, repeats the workload's operation through
``seqpol.cli.main`` for about S seconds and checks every repetition's
outputs; this process then computes the oracle metrics from the first
repetition's outputs. ``op_s`` and ``setup_s`` are the mean CPU time of an
operation and of a set-up, scaled to the reference speed of the probe in
``speed.py`` that runs before each of them (see NOTES.md). With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones.
The last line of standard output is the JSON result. Spans, digests and
per-operation times go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# One BLAS thread, set before numpy loads and inherited by the measuring
# process: on a 2-core machine a second BLAS thread mostly spins, which made
# operation times slower and far noisier. SEQPOL_THREADS is left as found.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

RUN_LIMIT_S = 170.0  # the whole run, set-up included, must end before this
SETUP_REPS = 3  # once before the operations, the rest after them
MIN_OPS = 3  # the warm-up and two timed
MIN_TRACE_OPS = 5  # the warm-up, two untraced and two traced

END_TO_END = {
    "op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "auroc_gap_bayes": "auroc",
    "prob_mae_oracle": "prob",
}

# Span name -> per-layer metric of its self time, seconds per operation.
SPAN_METRICS = {
    "bench.op": "cli.self_s",
    "runner.run": "runner.self_s",
    "runner.select": "runner.select_s",
    "runner.render": "runner.render_s",
    "svg.chart": "svg.chart_s",
    "dataset.load": "dataset.load_s",
    "dataset.preprocess": "dataset.preprocess_s",
    "dataset.split": "dataset.split_s",
    "staterep.assemble": "staterep.assemble_s",
    "models.fit.logreg": "models.fit_s.logreg",
    "models.fit.tree": "models.fit_s.tree",
    "models.fit.riskscore": "models.fit_s.riskscore",
    "models.fit.mlp": "models.fit_s.mlp",
    "models.predict": "models.predict_s",
    "models.load": "models.load_s",
    "metrics.bootstrap": "metrics.bootstrap_s",
    "ope.products": "ope.products_s",
    "ope.curve": "ope.curve_s",
    "strata.sweep": "strata.sweep_s",
    "strata.severity": "strata.severity_s",
    "strata.switch": "strata.switch_s",
}
# Counters, per operation.
COUNT_METRICS = (
    "dataset.rows",
    "staterep.assemble_calls",
    "staterep.rows",
    "models.fits",
    "models.predict_rows",
    "models.riskscore.intercept_solves",
    "metrics.bootstrap_replicates",
    "metrics.auroc_calls",
    "ope.floored_events",
)
PER_LAYER = {
    **{m: "s" for m in SPAN_METRICS.values()},
    **{m: "count" for m in COUNT_METRICS},
    "metrics.bootstrap_defined_frac": "ratio",
    "models.fit_fail_frac": "ratio",
    "synthgen.generate_s": "s",
    "op.wall_s": "s",
    "op.cpu_s": "s",
    "speed.probe_s": "s",
    "trace.op_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program(root: Path):
    """Import seqpol from the checkout's own source tree, never elsewhere."""
    src = root / "src"
    if not (src / "seqpol" / "__init__.py").is_file():
        fail(f"no seqpol source tree under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import seqpol

    if Path(seqpol.__file__).resolve().parent != (src / "seqpol").resolve():
        fail(f"imported seqpol from {seqpol.__file__}, not from {src}")
    return seqpol


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": blas_name,
        **{k: os.environ.get(k) for k in BLAS_THREADS},
        "SEQPOL_THREADS": os.environ.get("SEQPOL_THREADS"),
    }


def input_digests(workload, rep_dir: Path) -> dict[str, str]:
    """Relative path -> sha256 of every input file the program receives."""
    from checks import file_digest

    paths = []
    for name in workload.input_files:
        path = rep_dir / name
        paths.extend(sorted(path.rglob("*")) if path.is_dir() else [path])
    return {p.relative_to(rep_dir).as_posix(): file_digest(p) for p in paths}


# ---------------------------------------------------------------------------
# Child: repeated operations, checks, oracle metrics
# ---------------------------------------------------------------------------

def run_operation(workload, out: str, rec) -> tuple[float, float]:
    """Run the workload's CLI calls once; returns (wall, CPU) seconds."""
    from workloads import run_cli

    t0, c0 = time.perf_counter(), time.process_time()
    with rec.span("bench.op") if rec else contextlib.nullcontext():
        for argv in workload.commands(out):
            run_cli(argv)
    return time.perf_counter() - t0, time.process_time() - c0


def measure(plan: dict) -> dict:
    import tracing
    from speed import Prober
    from checks import CheckFailed, combined_digest, compare_fingerprints
    from workloads import WORKLOADS, working_dir

    import_program(Path(plan["root"]))
    workload = WORKLOADS[plan["workload"]]
    trace = plan["trace"]
    rec = tracing.Recorder()
    times = {"warmup": [], "untraced": [], "traced": [], "untraced_cpu": [], "traced_cpu": [],
             "probe": []}
    attempted = failed = 0
    reference = reference_out = None
    problems = []
    min_ops = MIN_TRACE_OPS if trace else MIN_OPS
    last_cpu = 0.0
    cycles = []
    with working_dir(Path(plan["inputs"])), Prober() as probe:
        start = time.perf_counter()
        while True:
            traced = trace and attempted % 2 == 1
            out = f"out/op{attempted}"
            attempted += 1
            cycle_start = time.perf_counter()
            probe_s = probe.sample(last_cpu)
            try:
                if traced:
                    with tracing.instrumented(rec):
                        took, cpu = run_operation(workload, out, rec)
                else:
                    took, cpu = run_operation(workload, out, None)
                fingerprint = workload.fingerprint(Path(out))
                if reference is None:
                    reference, reference_out = fingerprint, out
                else:
                    compare_fingerprints(reference, fingerprint)
                    shutil.rmtree(out)
                if attempted == 1:  # warm-up: imports, caches, the reference outputs
                    times["warmup"].append(took)
                else:
                    kind = "traced" if traced else "untraced"
                    times[kind].append(took)
                    times[f"{kind}_cpu"].append(cpu)
                    times["probe"].extend(probe_s)
                last_cpu = cpu
            except Exception as exc:  # any failure of the program counts, and the run goes on
                failed += 1
                problems.append(f"op{attempted - 1}: {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
                if not isinstance(exc, CheckFailed) and attempted >= 2 and failed == attempted:
                    break
            cycles.append(time.perf_counter() - cycle_start)
            elapsed = time.perf_counter() - start
            typical = statistics.median(cycles[1:] or cycles)  # probes and operation
            # Stop when less than half the next operation fits, so that runs
            # last S seconds on average whatever the operation's length.
            if attempted >= min_ops and elapsed + typical / 2 > plan["seconds"]:
                break
            if elapsed > plan["seconds"] + 60:  # operations far longer than planned
                break
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "times": times,
        "reference_out": reference_out,
        "digest": combined_digest(reference["files"]) if reference else None,
        "files": reference["files"] if reference else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        result["trace"] = rec.to_dict()
    return result


# ---------------------------------------------------------------------------
# Parent: set-up, child process, result line
# ---------------------------------------------------------------------------

def layer_metrics(trace: dict, times: dict, generate_s: float, quality: dict) -> dict:
    from tracing import Span, self_time_by_name

    spans = [Span(**s) for s in trace["spans"]]
    n_ops = sum(1 for s in spans if s.name == "bench.op")
    unknown = {s.name for s in spans} - SPAN_METRICS.keys()
    if unknown:
        raise RuntimeError(f"spans without a per-layer metric: {sorted(unknown)}")
    by_name = self_time_by_name(spans)
    values = {SPAN_METRICS[n]: by_name.get(n, 0.0) / n_ops for n in SPAN_METRICS}
    counts = trace["counts"]
    values.update({m: counts.get(m, 0) / n_ops for m in COUNT_METRICS})
    replicates = counts.get("metrics.bootstrap_replicates", 0)
    values["metrics.bootstrap_defined_frac"] = (
        counts.get("metrics.bootstrap_defined", 0) / replicates if replicates else 0.0
    )
    values["models.fit_fail_frac"] = quality["models.fit_fail_frac"]
    values["synthgen.generate_s"] = generate_s
    values["op.wall_s"] = statistics.median(times["untraced"])
    values["op.cpu_s"] = statistics.fmean(times["untraced_cpu"])
    values["speed.probe_s"] = statistics.fmean(times["probe"])
    op_total = sum(s.end - s.start for s in spans if s.name == "bench.op")
    values["trace.op_s"] = op_total / n_ops
    values["trace.coverage"] = 1.0 - by_name["bench.op"] / op_total
    values["trace.overhead_frac"] = (statistics.fmean(times["traced_cpu"])
                                    / statistics.fmean(times["untraced_cpu"]) - 1.0)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_THREADS)
    # Turn SIGTERM into SystemExit so that the measuring process is killed and
    # reaped and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.measure:
        plan_path = sys.stdin.readline().strip()
        if not plan_path:  # the parent gave up before set-up finished
            return 0
        plan = json.loads(Path(plan_path).read_text())
        result = measure(plan)
        Path(plan["result"]).write_text(json.dumps(result))
        return 0

    if args.seconds is None:
        args.seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    # Start the measuring process now, while this one has imported nothing
    # heavy: on Linux a process's maxrss starts at the high-water mark of the
    # memory it was exec'd from, so a process started after set-up would
    # carry set-up's peak into peak_rss_mb. It waits on stdin for the plan.
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--measure"],
        stdin=subprocess.PIPE,
        stdout=sys.stderr,
        text=True,
    )
    try:
        return benchmark(args, child)
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()


def benchmark(args: argparse.Namespace, child: subprocess.Popen) -> int:
    """Set up, hand the plan to the measuring process, print the result."""
    from speed import Prober, scaled
    from workloads import WORKLOADS, working_dir

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    t_begin = time.perf_counter()
    root = Path.cwd()
    import_program(root)
    workload = WORKLOADS[args.workload]
    base = root / ".perfbench"
    work = base / "work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    setup_cpu_s, setup_probe_s, setup_wall_s, generate_s, digests = [], [], [], [], []

    def set_up(rep: int) -> None:
        rep_dir = work / f"setup{rep}"
        rep_dir.mkdir()
        setup_probe_s.append(probe())
        with working_dir(rep_dir):
            t0, c0 = time.perf_counter(), time.process_time()
            parts = workload.setup(args.seed)
            setup_cpu_s.append(time.process_time() - c0)
            setup_wall_s.append(time.perf_counter() - t0)
        generate_s.append(parts["synthgen.generate_s"])
        digests.append(input_digests(workload, rep_dir))
        if rep:
            shutil.rmtree(rep_dir)

    with Prober() as probe:
        try:
            work.mkdir(parents=True)
            set_up(0)
            plan = {
                "root": str(root),
                "workload": workload.name,
                "inputs": str(work / "setup0"),
                "seconds": args.seconds,
                "trace": args.trace,
                "result": str(work / "result.json"),
            }
            plan_path = work / "plan.json"
            plan_path.write_text(json.dumps(plan))
            # Leave room for the set-up repetitions that follow the operations.
            later_setup = 2 * setup_wall_s[0] * (SETUP_REPS - 1)
            remaining = RUN_LIMIT_S - (time.perf_counter() - t_begin) - later_setup
            try:
                child.communicate(f"{plan_path}\n", timeout=remaining)
            except subprocess.TimeoutExpired:
                fail(f"operations did not finish within {RUN_LIMIT_S:.0f} s")
            if child.returncode != 0:
                fail(f"measuring process exited with {child.returncode}")
            result = json.loads(Path(plan["result"]).read_text())
            if result["reference_out"] is None:
                fail("no operation succeeded: " + "; ".join(result["problems"]))
            # Oracle metrics and the first operation's extra checks run here, so
            # that their memory stays out of the measuring process's peak RSS.
            with working_dir(Path(plan["inputs"])):
                quality, ref_problems = workload.reference(Path(result["reference_out"]))
            if ref_problems:
                result["failed"] += 1
                result["problems"] += [f"{result['reference_out']}: {p}" for p in ref_problems]
            # The other set-up repetitions run after the operations, so that the
            # repetitions fall in more than one period of the machine's speed.
            for rep in range(1, SETUP_REPS):
                set_up(rep)
            setup_repeatable = all(d == digests[0] for d in digests)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    untraced = result["times"]["untraced"]
    if not untraced:
        fail("no untraced operation succeeded: " + "; ".join(result["problems"]))
    if args.trace:
        if not result["times"]["traced"]:
            fail("no traced operation succeeded")
        values = layer_metrics(result["trace"], result["times"],
                               statistics.median(generate_s), quality)
        units = PER_LAYER
    else:
        values = {
            "op_s": scaled(result["times"]["untraced_cpu"], result["times"]["probe"]),
            "setup_s": scaled(setup_cpu_s, setup_probe_s),
            "peak_rss_mb": result["peak_rss_mb"],
            "auroc_gap_bayes": quality["auroc_gap_bayes"],
            "prob_mae_oracle": quality["prob_mae_oracle"],
        }
        units = END_TO_END

    results_dir = base / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "setup_cpu_s": setup_cpu_s,
        "setup_probe_s": setup_probe_s,
        "setup_wall_s": setup_wall_s,
        "setup_repeatable": setup_repeatable,
        "input_files": digests[0],
        **result,
        "quality": quality,
        "values": values,
    }
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1)
    )
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if not setup_repeatable:
        print("check failed: set-up repetitions produced different inputs", file=sys.stderr)
    n_ok = len(untraced) + len(result["times"]["traced"]) + len(result["times"]["warmup"])
    print(f"{workload.name} seed={args.seed}: {n_ok} operations "
          f"({len(untraced)} untraced), output digest {result['digest']}")
    print(json.dumps({
        "correct": result["failed"] == 0 and setup_repeatable,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
