"""embedchan benchmark: one closed-loop workload per run, checked against oracles.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --write-config      # regenerate BENCHMARK.json

One client runs jobs back to back until the jobs' own wall time reaches
--seconds, then finishes the current cycle of the job mix.  With --trace 0
the end-to-end metrics are printed; with --trace 1 whole cycles alternate
between traced and untraced, and the per-layer metrics come from the traced
cycles (the untraced ones give the tracing overhead).  Human-readable lines
go first; the last line of standard output is the JSON result.  The full
result, and the spans of a traced run, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

RUN_SECONDS = 30
SETUP_REPEATS = 3  # fresh interpreters per run for setup_s

# One line each; the direction-2 items of ROADMAP.md that each workload absorbs.
WORKLOADS = {
    "cli-small": "run_cli sweeps plus fit-edge, validate, bloch, scatter on n<=2 leads: "
                 "Python-bound points, CLI I/O, bloch; absorbs chain, ladder, 32-k strip sum, "
                 "fit-edge, CLI",
    "wide-strip": "sweep() of 4 energies on a width-64 strip, 256-site disordered device: "
                  "LAPACK-bound surface Green, device solve, eigh; absorbs strip w=64",
    "gap-peaks": "detect_peaks() on weak-end dimer chains, 201-point grid, 2 etas: ~755 serial "
                 "lead evaluations near a pole, no batching; absorbs peaks",
}
# Bounds: on a 2-vCPU VM whose CPU speed swings by up to 1.65x within a
# minute, the spread of the timings over ten seeds reached 25 % of the median,
# so they sit at the 0.25 cap.
END_TO_END = [
    {"name": "job_s_p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "job_s_tail", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "points_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]


def per_layer_spec() -> list[dict]:
    from tracing import SPAN_NAMES

    out = []
    for name in SPAN_NAMES:
        out += [{"name": f"{name}.calls", "unit": "count", "better": "lower"},
                {"name": f"{name}.self_ms", "unit": "ms", "better": "lower"},
                {"name": f"{name}.share", "unit": "ratio", "better": "lower"}]
    out += [
        {"name": "embed.mode_matching.calls", "unit": "count", "better": "lower"},
        {"name": "embed.fallback_frac", "unit": "ratio", "better": "lower"},
        {"name": "cli.output_bytes", "unit": "B", "better": "lower"},
        {"name": "model.parse_model.setup_ms", "unit": "ms", "better": "lower"},
        {"name": "trace.job_s_p50", "unit": "s", "better": "lower"},
        {"name": "trace.overhead_frac", "unit": "ratio", "better": "lower"},
        {"name": "trace.unattributed_frac", "unit": "ratio", "better": "lower"},
    ]
    return out


def write_config() -> None:
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": per_layer_spec(),
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# environment


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded."""
    import ctypes

    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = fn()
                break
    return out


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unavailable (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return f"unresolved {ref[5:]}"


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "embedchan")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# set-up time


def probe_setup(args) -> None:
    """Child side of setup_s: import, parse the workload's models, one warm-up point."""
    import embedchan as ec
    from workloads import WORKLOADS as W

    W[args.workload](args.seed, OUT).setup(ec)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def measure_setup(args) -> list[float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(t1 - t0)
    return times


# ---------------------------------------------------------------------------
# the timed loop


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 jobs beyond it: (value, percentile, beyond).

    With 10 jobs or fewer no percentile qualifies; the slowest job stands in.
    """
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def rerun_mismatches(wl, digests: dict, n: int) -> int:
    """Re-run the first n jobs untimed; count outputs whose digest changed."""
    import checks as oracle

    bad = 0
    for j in range(min(n, len(digests))):
        job = wl.job(j)
        go = wl.prepare(job)
        try:
            ret, err = go(), None
        except Exception as exc:  # same boundary as the timed loop
            ret, err = None, exc
        bad += wl.finish(job, ret, err, oracle.Checks()).digest != digests[j]
    return bad


def run(args) -> dict:
    import embedchan as ec
    import checks as oracle
    from tracing import Tracer
    from workloads import WORKLOADS as W

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.relpath(os.path.join(OUT, f"work-{args.workload}-{os.getpid()}"), ROOT)
    os.makedirs(workdir)
    try:
        wl = W[args.workload](args.seed, workdir)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        wl.setup(ec)
        if tracer:
            tracer.uninstall()
        checks = oracle.Checks()
        jobs, digests, notes = [], {}, []
        busy, i = 0.0, 0
        gc.collect()
        while True:
            cyc = i // wl.cycle
            if i % wl.cycle == 0 and busy >= args.seconds and (not tracer or cyc >= 2):
                break
            traced = bool(tracer) and cyc % 2 == 1
            job = wl.job(i)
            go = wl.prepare(job)
            if traced:
                tracer.install()
                go = (lambda g=go, j=i: tracer.root(j)(g))
            ret = err = None
            t0 = time.perf_counter()
            try:
                ret = go()
            except Exception as exc:  # a job that raises is a failed job, not a crash
                err = exc
            dt = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            out = wl.finish(job, ret, err, checks)
            notes += out.notes
            digests[i] = out.digest
            jobs.append({"i": i, "s": dt, "traced": traced, "points": out.points,
                         "failed": out.failed, "bytes": out.output_bytes,
                         "command": job.command})
            busy += dt
            i += 1
        checks.count("digest_mismatch", rerun_mismatches(wl, digests, 2))
        first_cycle = "".join(digests[j] for j in range(min(wl.cycle, len(jobs))))
        return {
            "jobs": jobs, "busy_s": busy, "checks": checks, "notes": notes,
            "digest": hashlib.sha256(first_cycle.encode()).hexdigest(),
            "digest_jobs": min(wl.cycle, len(jobs)),
            "tracer": tracer, "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    finally:
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)


def end_to_end(res: dict, setup: list[float]) -> tuple[dict, list[str]]:
    jobs = res["jobs"]
    times = [j["s"] for j in jobs]
    value, pct, beyond = tail(times)
    n = len(times)
    points = sum(j["points"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    m = {
        "job_s_p50": statistics.median(times),
        "job_s_tail": value,
        "points_per_s": (points - failed) / res["busy_s"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["rss_mb"],
    }
    lines = [
        f"job_s_p50     {m['job_s_p50']:.6f} s    (median of {n} jobs)",
        f"job_s_tail    {value:.6f} s    (p{pct:.1f} of {n} jobs, {beyond} jobs beyond it)",
        f"points_per_s  {m['points_per_s']:.3f} 1/s  ({points - failed} points in "
        f"{res['busy_s']:.3f} s of jobs)",
        f"fail_frac     {failed / points:.6g} ratio ({failed} of {points} points failed)",
        f"setup_s       {m['setup_s']:.6f} s    (median of {len(setup)} fresh interpreters: "
        + ", ".join(f"{t:.3f}" for t in setup) + ")",
        f"peak_rss_mb   {m['peak_rss_mb']:.3f} MB   (ru_maxrss of the benchmark process)",
    ]
    return m, lines


def per_layer(res: dict) -> tuple[dict, list[str]]:
    from tracing import ROOT as ROOT_SPAN
    from tracing import SPAN_NAMES

    jobs = res["jobs"]
    traced = [j for j in jobs if j["traced"]]
    plain = [j["s"] for j in jobs if not j["traced"]]
    table = res["tracer"].table()
    n = len(traced)
    job_ms = 1e3 * sum(j["s"] for j in traced)
    tot = {}
    for j in traced:
        for name, (calls, self_s) in table[j["i"]].items():
            c = tot.setdefault(name, [0, 0.0])
            c[0] += calls
            c[1] += 1e3 * self_s
    m = {}
    lines = [f"per-layer, per job over {n} traced jobs ({job_ms / n:.3f} ms/job traced):",
             f"  {'span':32s} {'calls':>10s} {'self_ms':>12s} {'share':>8s}"]
    for name in SPAN_NAMES:
        calls, self_ms = tot.get(name, [0, 0.0])
        m[f"{name}.calls"] = calls / n
        m[f"{name}.self_ms"] = self_ms / n
        m[f"{name}.share"] = self_ms / job_ms
        lines.append(f"  {name:32s} {calls / n:10.2f} {self_ms / n:12.4f} {self_ms / job_ms:8.4f}")
    mm = tot.get("embed.mode_matching", [0, 0.0])[0]
    sg = tot.get("embed.surface_green", [0, 0.0])[0]
    unattributed = tot.get(ROOT_SPAN, [0, 0.0])[1]
    setup_parse = table.get(-1, {}).get("model.parse_model", [0, 0.0])[1] * 1e3
    traced_p50 = statistics.median(j["s"] for j in traced)
    m.update({
        "embed.mode_matching.calls": mm / n,
        "embed.fallback_frac": mm / sg if sg else 0.0,
        "cli.output_bytes": sum(j["bytes"] for j in jobs) / len(jobs),
        "model.parse_model.setup_ms": setup_parse,
        "trace.job_s_p50": traced_p50,
        "trace.overhead_frac": traced_p50 / statistics.median(plain) - 1.0,
        "trace.unattributed_frac": unattributed / job_ms,
    })
    lines += [
        f"  embed.mode_matching.calls {mm / n:.3f}/job, fallback_frac {m['embed.fallback_frac']:.5f} "
        f"({mm} of {sg} surface_green calls)",
        f"  cli.output_bytes {m['cli.output_bytes']:.1f} B/job; model.parse_model in set-up "
        f"{setup_parse:.3f} ms",
        f"  tracing overhead: traced job_s_p50 {traced_p50:.6f} s vs untraced "
        f"{statistics.median(plain):.6f} s ({len(plain)} jobs): {m['trace.overhead_frac']:+.4f}",
        f"  unattributed (job time outside every layer span): "
        f"{m['trace.unattributed_frac']:.5f} of traced job time",
    ]
    return m, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--write-config", action="store_true", help="regenerate BENCHMARK.json")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "embedchan", "__init__.py")):
        sys.stderr.write(f"error: embedchan sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    if args.write_config:
        write_config()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.probe_setup:
        probe_setup(args)
        return 0
    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            for trace in (0, 1):
                cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
                code |= subprocess.run(cmd, cwd=ROOT).returncode
        return code

    setup = measure_setup(args) if not args.trace else []
    res = run(args)
    env = environment(args)
    if args.trace:
        metrics, lines = per_layer(res)
        units = {d["name"]: d["unit"] for d in per_layer_spec()}
    else:
        metrics, lines = end_to_end(res, setup)
        units = {d["name"]: d["unit"] for d in END_TO_END}
    checks = res["checks"]
    bad = checks.failures()
    attempted = sum(j["points"] for j in res["jobs"])
    failed = sum(j["failed"] for j in res["jobs"])

    print(f"embedchan benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    for name, row in checks.report().items():
        if "count" in row:
            detail = f"count {row['count']}"
        else:
            tol = "report only" if row["tol"] is None else f"tol {row['tol']:.0e}"
            detail = f"worst {row['worst']:.3e} {tol}"
        print(f"check {name:22s} {detail:32s} {'PASS' if row['pass'] else 'FAIL'}")
    for note in res["notes"][:10]:
        print(f"note: {note}")
    print(f"digest {res['digest']} (first {res['digest_jobs']} jobs; "
          f"first 2 jobs re-run: {'identical' if not checks.counts['digest_mismatch'] else 'DIFFERENT'})")
    print(f"correct: {not bad}" + (f" (failed: {', '.join(bad)})" if bad else ""))

    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = dict(result, env=env, checks=checks.report(), digest=res["digest"],
                  jobs=res["jobs"], setup_s_samples=setup, notes=res["notes"])
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if args.trace:
        res["tracer"].write(os.path.join(OUT, f"{args.workload}-spans.csv.gz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
