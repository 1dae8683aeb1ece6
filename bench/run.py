"""fsipp benchmark: one workload, one process, a closed loop.

    python3 bench/run.py --workload routes|deep|pareto --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; ``fsipp`` is imported from its ``src/``.
The loop runs one problem at a time, the next only after the previous
returns, in passes over the workload's problems (see ``workloads.py``).
A run makes as many passes as fill ``--seconds`` at the workload's
nominal pass time, however fast it goes, so that two commits are timed
on the same number of samples.  Every output is checked against the
reference table in ``reference.py``.

With ``--trace 0`` the last line reports the end-to-end metrics:

* ``pass_s``         median wall seconds of one full pass
* ``problem_p50_s``  median seconds of one problem (a CLI command, or a
                     walk plus its audit)
* ``problem_tail_s`` the highest percentile with at least ten samples
                     beyond it (percentile and sample count printed)
* ``setup_s``        median seconds, over fresh interpreters, to import
                     fsipp and its dependencies and write the problem files
* ``peak_rss_mb``    ``ru_maxrss`` of this process

``failed_frac`` (failed problems over problems attempted) is printed with
them; the result line carries it as ``failed`` and ``attempted``.  With
``--trace 1`` half the time runs untraced and half under the span
recorder of ``spans.py``; the last line reports the per-layer metrics,
and the lines before it the tracing overhead and whether the traced
outputs are bit-identical to the untraced ones.  Spans are written to
``.bench_out/spans-<workload>-seed<N>.json``.
"""

import os

# One BLAS thread, set before numpy loads here and inherited by the set-up
# children: with OpenBLAS's default two threads on a 2-CPU x86-64 VM, a
# quarter-circle order-4 solve took about 2.4x longer in wall time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# seconds per pass, single BLAS thread, 2-CPU x86-64 (Python 3.11,
# numpy 2.4, OpenBLAS 0.3.31) at the commit that added this benchmark;
# deep's is rounded up so that 30 s make 5 passes, whose 10 samples
# leave its tail at the maximum rather than at a low percentile
NOMINAL_PASS_S = {"routes": 1.5, "deep": 6.0, "pareto": 4.2}

WORKLOADS = ("routes", "deep", "pareto")


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them under
    ``section`` (``end_to_end`` or ``per_layer``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def with_units(metrics: dict[str, float], section: str) -> dict[str, dict]:
    """The result's metrics block; the computed metric names must be
    exactly the ones ``BENCHMARK.json`` declares under ``section``."""
    units = declared_units(section)
    if set(metrics) != set(units):
        raise SystemExit(f"bench: {section} metrics differ from "
                         f"BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


# --------------------------------------------------------------------------
# one problem, one pass
# --------------------------------------------------------------------------


def run_problem(problem):
    """(seconds, kind, output); a raised exception becomes kind "raised"."""
    start = time.perf_counter()
    try:
        output, kind = problem.run(), problem.kind
    except Exception as exc:  # noqa: BLE001 - a failed problem is still timed
        output, kind = f"{type(exc).__name__}: {exc}", "raised"
    return time.perf_counter() - start, kind, output


def measure(problems, n_passes, tracer=None):
    """``n_passes`` passes over ``problems``.  Each pass is (wall seconds,
    [(name, seconds, kind, output)], span ids)."""
    passes = []
    for _ in range(n_passes):
        first_span = len(tracer.spans) if tracer else 0
        start = time.perf_counter()
        samples = []
        for p in problems:
            if tracer:
                tracer.problem = p.name
            dt, kind, output = run_problem(p)
            samples.append((p.name, dt, kind, output))
        wall = time.perf_counter() - start
        ids = range(first_span, len(tracer.spans)) if tracer else range(0)
        passes.append((wall, samples, ids))
    return passes


def pass_count(workload: str, seconds: float) -> int:
    """Passes that fill ``seconds`` at the workload's nominal pass time.

    The count depends on ``--seconds`` only, not on how fast this run
    goes, so two commits are timed on the same number of samples and
    the tail metric sits at the same percentile.
    """
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


# --------------------------------------------------------------------------
# correctness gate over all passes
# --------------------------------------------------------------------------


def judge(problems, passes):
    """(attempted, failed, correct, failures by name).

    A problem fails if it raised, exited non-zero or missed its
    reference.  ``correct`` is false unless every failure is one that
    ``reference.excused`` names as the known interior-point defect.
    """
    by_name = {p.name: p for p in problems}
    attempted = failed = 0
    failures: dict[str, dict] = {}
    for _, samples, _ in passes:
        for name, _, kind, output in samples:
            attempted += 1
            if kind == "raised":
                why = [output]
            else:
                why = reference.misses(kind, by_name[name].reference, output)
            if why:
                failed += 1
                entry = failures.setdefault(name, {
                    "times": 0, "why": why, "known_defect": True})
                entry["times"] += 1
                entry["known_defect"] &= reference.excused(name, kind, output)
    correct = all(f["known_defect"] for f in failures.values())
    return attempted, failed, correct, failures


def identical_outputs(passes) -> bool:
    """Does every problem give the same output, bit for bit, in every pass?"""
    import workloads

    seen: dict[str, str] = {}
    for _, samples, _ in passes:
        for name, _, kind, output in samples:
            fp = workloads.fingerprint(kind, output)
            if seen.setdefault(name, fp) != fp:
                return False
    return True


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def tail(times):
    """(value, percentile, samples beyond it): the highest percentile with
    at least TAIL_BEYOND samples beyond it, or the maximum if there are
    too few samples for that."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, \
        TAIL_BEYOND


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, setup_times) -> tuple[dict, dict]:
    times = [dt for _, samples, _ in passes for _, dt, _, _ in samples]
    value, pct, beyond = tail(times)
    metrics = {
        "pass_s": statistics.median(w for w, _, _ in passes),
        "problem_p50_s": statistics.median(times),
        "problem_tail_s": value,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {"problem_tail_s": f"p{pct:.1f}, {beyond} of {len(times)} "
                               "samples beyond",
             "setup_s": f"median of {len(setup_times)} fresh interpreters"}
    return metrics, notes


# --------------------------------------------------------------------------
# set-up and provenance
# --------------------------------------------------------------------------


def measure_setup(args, workdir: Path) -> list[float]:
    """Wall seconds of fresh interpreters that import fsipp and write the
    workload's problem files."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-into", str(workdir)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                       timeout=120)
        times.append(time.perf_counter() - start)
    return times


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_head() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_head(),
        "src_sha256": _src_sha256(),
        "seed": seed,
    }


# --------------------------------------------------------------------------
# the two kinds of run
# --------------------------------------------------------------------------


def _print_failures(failures):
    for name, f in sorted(failures.items()):
        tag = "known defect" if f["known_defect"] else "UNEXPECTED"
        print(f"  FAILED {name} x{f['times']} ({tag}): {'; '.join(f['why'])}")


def run_end_to_end(args, problems, setup_times):
    passes = measure(problems, pass_count(args.workload, args.seconds))
    attempted, failed, correct, failures = judge(problems, passes)
    metrics, notes = end_to_end(passes, setup_times)
    result = with_units(metrics, "end_to_end")
    print(f"passes {len(passes)}, {len(problems)} problems per pass")
    for name, m in result.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<15} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':<15} {failed / attempted:.6g}  "
          f"({failed} of {attempted} problems)")
    per_problem: dict[str, list[float]] = {}
    for _, samples, _ in passes:
        for name, dt, _, _ in samples:
            per_problem.setdefault(name, []).append(dt)
    print("median seconds per problem: " + ", ".join(
        f"{name} {statistics.median(ts):.4g}"
        for name, ts in per_problem.items()))
    print(f"correctness gate: {'pass' if correct else 'FAIL'}")
    _print_failures(failures)
    return correct, attempted, failed, result


def run_traced(args, problems):
    import spans

    n_passes = pass_count(args.workload, args.seconds / 2.0)
    plain = measure(problems, n_passes)
    with spans.Tracer() as tracer:
        traced = measure(problems, n_passes, tracer)
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(spans_file)

    per_pass = [spans.layer_metrics(tracer.spans, list(ids))
                for _, _, ids in traced]
    units = declared_units("per_layer")
    result = with_units(spans.median_metrics(per_pass, units), "per_layer")
    attempted, failed, correct, failures = judge(problems, plain + traced)
    identical = identical_outputs(plain + traced)
    overhead = (statistics.median(w for w, _, _ in traced)
                - statistics.median(w for w, _, _ in plain))
    print(f"passes {len(plain)} untraced, {len(traced)} traced; "
          f"{len(tracer.spans)} spans written to {spans_file.name}")
    print(f"tracing overhead: {overhead:.6g} s per pass "
          "(traced pass_s minus untraced pass_s)")
    print(f"traced outputs bit-identical to untraced: {identical}")
    print(f"per-layer counts repeat in every pass: "
          f"{spans.counts_repeat(per_pass, units)}")
    for name, m in result.items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    print(f"correctness gate: {'pass' if correct else 'FAIL'}")
    _print_failures(failures)
    return correct and identical, attempted, failed, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "fsipp" / "__init__.py").is_file():
        print(f"bench: no fsipp sources in {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_into is not None:
        import workloads
        workloads.build(args.workload, args.seed, Path(args.setup_into))
        return 0

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_times = [] if args.trace else measure_setup(args, workdir)
        import workloads
        problems = workloads.build(args.workload, args.seed, workdir)
        for p in workloads.warmup(args.workload, problems, workdir):
            run_problem(p)
        print(f"fsipp benchmark: workload {args.workload}, seed {args.seed}, "
              f"{args.seconds:g} s, trace {args.trace}")
        print("provenance: " + json.dumps(provenance(args.seed),
                                          sort_keys=True))
        if args.trace:
            result = run_traced(args, problems)
        else:
            result = run_end_to_end(args, problems, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failed, metrics = result
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
