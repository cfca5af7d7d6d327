"""torseform benchmark: seeded batches of ``torseform check`` calls, issued
back to back by one client in one process and one thread (a closed loop).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

``--trace 0`` cycles through the workload's batch until S seconds have
passed and reports the end-to-end metrics.  ``--trace 1`` runs every call
untraced and traced, back to back, in passes over the batch for S seconds
and reports per-layer metrics per pass, so its counts repeat exactly for a
seed.  Every call's JSON report is checked against the documented outcome
of its scene and against the report of the same call made earlier in the
run, byte for byte.

Times in the result are rescaled by the run's median time of a fixed speed
kernel (speed.py), because a shared machine drifts in speed by tens of
percent over minutes; the '# measured' line gives them as measured.

Lines of standard output before the last start with '#'.  The last line is
the JSON result: {"correct", "attempted", "failed", "metrics"}.  Generated
scenes, per-call times and spans go to .bench_work/<workload>-s<seed>/.
``--workload all`` runs every workload in a fresh process and prints a table.
"""

import os

# One thread: set before numpy is imported, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gzip
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 60
# targets whose calls per requested point are reported as ratios
PER_POINT = ("jets.eval_jet_env", "metric.MetricField.at", "immersion.frames",
             "classify.fit_torse_forming")
# calls one clifford-torus check at N = 200 made before any optimisation
CLIFFORD_BASELINE = {"immersion.frames": 400, "classify.fit_torse_forming": 400,
                     "metric.MetricField.at": 1200, "metric.VectorField.at": 800}


def load_program():
    """Import torseform from this checkout's src/, never from elsewhere."""
    if not (SRC / "torseform" / "__init__.py").is_file():
        sys.exit(f"error: no torseform package under {SRC}")
    sys.path.insert(0, str(SRC))
    import torseform
    from torseform import cli
    if SRC.resolve() not in Path(torseform.__file__).resolve().parents:
        sys.exit(f"error: torseform was imported from {torseform.__file__}")
    return cli


def environment() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


class Session:
    """Issues a batch's calls and checks every report."""

    def __init__(self, cli, calls, workdir: Path):
        self.cli = cli
        self.calls = calls
        self.workdir = workdir
        self.attempted = 0
        self.failures = []        # (label, seed, problems)
        self._reference = {}      # call index -> report bytes of its first run

    def invoke(self, index: int) -> float:
        """Run one call; returns its wall time in seconds."""
        call = self.calls[index]
        out = self.workdir / f"report-{index}.json"
        out.unlink(missing_ok=True)
        argv = call.argv(out)
        sink = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except Exception as exc:  # an escaping traceback fails the call, not the run
            code = f"uncaught {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        raw = out.read_bytes() if out.exists() else None
        problems = workloads.check_report(call, code, raw)
        if self._reference.setdefault(index, raw) != raw:
            problems.append("report differs from an earlier run of the same "
                            "scene and seed")
        self.attempted += 1
        if problems:
            self.failures.append((call.label, call.seed, problems))
        return elapsed


def measure_setup(calls) -> float:
    """Median over fresh processes of import plus loading every scene."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC),
           *workloads.scene_specs(calls)]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def timing_run(session: Session, seconds: float, workdir: Path, env: dict) -> dict:
    calls = session.calls
    setup_s = measure_setup(calls)
    # warm-up: first-use costs inside numpy and the program are not per-call
    # costs; its report is also the byte-identity reference for call 0
    session.invoke(0)
    # Cycle through the batch until the time is up and every call has run at
    # least once, timing the speed kernel before each call.  Each call of the
    # batch is summarised by its median over the cycles, throughput by the
    # sum of those medians, and every time is rescaled by the run's median
    # kernel time (see speed.py).
    n = len(calls)
    per_call = [[] for _ in range(n)]
    kernel_s = []
    timed = 0
    start = perf_counter()
    while timed < n or perf_counter() - start < seconds:
        kernel_s.append(speed.time_kernel())
        per_call[timed % n].append(session.invoke(timed % n))
        timed += 1
    scale = speed.time_scale(kernel_s)
    measured = {
        "points_per_s": sum(c.points for c in calls)
                        / sum(statistics.median(ts) for ts in per_call),
        "call_ms_p50": statistics.median(t for ts in per_call for t in ts) * 1e3,
        "setup_s": setup_s,
    }
    (workdir / "calls.json").write_text(json.dumps({
        "env": env, "count": timed, "kernel_ms": [k * 1e3 for k in kernel_s],
        "calls": [{"label": c.label, "seed": c.seed, "points": c.points,
                   "ms": [t * 1e3 for t in ts]}
                  for c, ts in zip(calls, per_call)],
    }, indent=1) + "\n", encoding="utf-8")
    print(f"# timed calls {timed} over {timed / n:.1f} passes")
    for c, ts in zip(calls, per_call):
        print(f"# call_ms {c.label} seed={c.seed} N={c.points}: "
              + " ".join(f"{t * 1e3:.1f}" for t in ts))
    print(f"# speed kernel median {statistics.median(kernel_s) * 1e3:.2f} ms, "
          f"reference {speed.REFERENCE_S * 1e3:.2f} ms, time scale {scale:.4f}")
    print("# measured " + json.dumps(measured))
    ok = session.attempted - len(session.failures)
    return {
        "points_per_s": metric(measured["points_per_s"] / scale, "points/s"),
        "call_ms_p50": metric(measured["call_ms_p50"] * scale, "ms"),
        "setup_s": metric(setup_s * scale, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "correct_frac": metric(ok / session.attempted, "ratio"),
    }


def trace_run(session: Session, seconds: float, workdir: Path, env: dict) -> dict:
    """Pass over the batch until the time is up, at least once, running every
    call untraced and then traced, back to back, so that both see the same
    machine speed.  Every pass does the same work, so layer figures are
    reported per pass and counts repeat exactly for a seed.  Spans and the
    per-call breakdown are written from the first pass."""
    calls = session.calls
    session.invoke(0)            # warm-up, as in the timing run
    tracer = Tracer(keep_results=("warped.trace_integral_curve",))
    untraced = [[] for _ in calls]
    traced = [[] for _ in calls]
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        for i in range(len(calls)):
            untraced[i].append(session.invoke(i))
            tracer.install()
            try:
                traced[i].append(session.invoke(i))
            finally:
                tracer.uninstall()
        if passes == 0:
            write_trace(tracer, calls, [ts[0] for ts in traced], workdir, env)
        tracer.spans.clear()
        passes += 1

    points = sum(c.points for c in calls)
    out = {}
    for i, name in enumerate(tracer.names):
        out[f"{name}.calls"] = metric(tracer.calls[i] / passes, "count")
        out[f"{name}.self_ms"] = metric(tracer.self_s[i] * 1e3 / passes, "ms")
        out[f"{name}.errors"] = metric(tracer.errors[i] / passes, "count")
    for name in PER_POINT:
        out[f"{name}.per_point"] = metric(
            tracer.calls[tracer.names.index(name)] / passes / points, "calls/point")
    curves = tracer.results["warped.trace_integral_curve"]
    steps = sum(len(c.samples) - 1 for c in curves)
    rhs = sum(c.rhs_evaluations for c in curves)
    out["warped.trace_integral_curve.rhs_per_step"] = metric(
        rhs / steps if steps else 0.0, "rhs/step")
    untraced_pps = points / sum(statistics.median(ts) for ts in untraced)
    traced_pps = points / sum(statistics.median(ts) for ts in traced)
    out["trace.untraced_points_per_s"] = metric(untraced_pps, "points/s")
    out["trace.traced_points_per_s"] = metric(traced_pps, "points/s")
    out["trace.overhead_points_per_s"] = metric(traced_pps - untraced_pps,
                                                "points/s")
    print(f"# {passes} passes of untraced/traced call pairs; tracing overhead: "
          f"traced - untraced points_per_s = {traced_pps - untraced_pps:.2f} "
          f"({traced_pps:.2f} vs {untraced_pps:.2f})")
    return out


def write_trace(tracer: Tracer, calls, times, workdir: Path, env: dict) -> None:
    """Per-call counts and the spans of one traced pass."""
    per_call = []
    for call, counts, t in zip(calls, tracer.counts_by_root().values(), times):
        per_call.append({"label": call.label, "seed": call.seed,
                         "points": call.points, "ms": t * 1e3,
                         "counts": counts})
        if call.label == "clifford-torus" and call.points == 200:
            seen = {k: counts.get(k, 0) for k in CLIFFORD_BASELINE}
            verdict = "match" if seen == CLIFFORD_BASELINE else "DIFFER"
            print(f"# clifford-torus N=200 seed={call.seed} counts {seen}; "
                  f"baseline {CLIFFORD_BASELINE}: {verdict}")
    (workdir / "trace.json").write_text(json.dumps(
        {"env": env, "calls": per_call}, indent=1) + "\n", encoding="utf-8")
    origin = min((span[4] for span in tracer.spans), default=0.0)
    with gzip.open(workdir / "spans.csv.gz", "wt", encoding="utf-8") as fh:
        fh.write("span,parent,root,name,start_us,end_us\n")
        for sid, parent, root, index, t0, t1 in sorted(tracer.spans):
            fh.write(f"{sid},{parent},{root},{tracer.names[index]},"
                     f"{(t0 - origin) * 1e6:.1f},{(t1 - origin) * 1e6:.1f}\n")


def run_one(args) -> int:
    cli = load_program()
    env = environment()
    print("# env " + json.dumps(env))
    workdir = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    calls = workloads.build(args.workload, args.seed, workdir)
    session = Session(cli, calls, workdir)
    if args.trace:
        metrics = trace_run(session, args.seconds, workdir, env)
    else:
        metrics = timing_run(session, args.seconds, workdir, env)
    for label, seed, problems in session.failures:
        print(f"# FAILED {label} seed={seed}: {'; '.join(problems)}")
    print(json.dumps({"correct": not session.failures,
                      "attempted": session.attempted,
                      "failed": len(session.failures),
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, then one table."""
    results = {}
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"# [{name}] {line.lstrip('# ')}")
        if proc.returncode != 0 or not lines:
            print(f"# [{name}] exited {proc.returncode}: {proc.stderr.strip()}")
            results[name] = None
            continue
        results[name] = json.loads(lines[-1])

    print(f"# {'workload':<20}{'metric':<48}{'value':>14}  unit")
    for name, res in results.items():
        if res is None:
            continue
        rows = {k: (v["value"], v["unit"]) for k, v in res["metrics"].items()}
        rows["failed_frac"] = (res["failed"] / res["attempted"], "ratio")
        for key, (value, unit) in rows.items():
            print(f"# {name:<20}{key:<48}{value:>14.4f}  {unit}")
    print(json.dumps(results))
    ok = all(r is not None and r["correct"] for r in results.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
