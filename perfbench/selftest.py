"""Self-test of the benchmark harness at tiny size (a few seconds).

    python3 perfbench/selftest.py

Shows that each output check fires on corrupted output (a T shifted by
1e-3, a dropped point, a changed digest, a moved peak, a wrong open-channel
count), that a different seed changes the inputs but not the job count or
the job mix, and that BENCHMARK.json matches the definitions in run.py.
Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import shutil
import sys

import run  # main() below puts src/ on sys.path before anything imports embedchan

FAILURES: list[str] = []


def expect(name: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if not ok:
        FAILURES.append(name)


def rewrite_csv(text: str, edit) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    rows = edit(rows)
    out = io.StringIO()
    w = csv.DictWriter(out, fieldnames=list(csv.DictReader(io.StringIO(text)).fieldnames),
                       lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    return out.getvalue()


def cli_cases(workdir: str) -> None:
    import checks as oracle
    from workloads import CliSmall

    wl = CliSmall(7, workdir)
    job = wl.job(0)
    assert (job.command, job.family) == ("transmit", "chain")
    job = dataclasses.replace(job, args=dict(job.args, npts=9), points=9)
    go = wl.prepare(job)
    ret = go()
    clean = oracle.Checks()
    wl.finish(job, ret, None, clean)
    expect("clean chain transmit passes every check", ret == 0 and not clean.failures())
    with open(os.path.join(workdir, "out"), encoding="utf-8") as fh:
        text = fh.read()

    def shift(rows):
        # a point inside the band, where the closed form is O(1)
        r = rows[len(rows) // 2]
        r["T_trace"] = repr(float(r["T_trace"]) + 1e-3)
        return rows

    c = oracle.Checks()
    oracle.check_cli(job, rewrite_csv(text, shift), c)
    expect("T shifted by 1e-3 fires t_closed_form", "t_closed_form" in c.failures())
    expect("T shifted by 1e-3 fires discrepancy_reported", "discrepancy_reported" in c.failures())

    c = oracle.Checks()
    failed = oracle.check_cli(job, rewrite_csv(text, lambda rows: rows[:3] + rows[4:]), c)
    expect("dropped point fires dropped_points", "dropped_points" in c.failures() and failed == 1)

    def close_channel(rows):
        r = rows[len(rows) // 2]
        r["n_open_l"] = "0"
        return rows

    c = oracle.Checks()
    oracle.check_cli(job, rewrite_csv(text, close_channel), c)
    expect("wrong open count fires n_open_mismatch", "n_open_mismatch" in c.failures())

    digests = {0: wl.finish(job, ret, None, oracle.Checks()).digest}

    class Replay(CliSmall):
        def job(self, i):
            return job

    expect("unchanged digest passes", run.rerun_mismatches(Replay(7, workdir), digests, 1) == 0)
    digests[0] = digests[0][:-1] + ("0" if digests[0][-1] != "0" else "1")
    expect("changed digest fires digest_mismatch",
           run.rerun_mismatches(Replay(7, workdir), digests, 1) == 1)

    # a momentum whose repr is "-1.6e-05" must reach the CLI as a value
    strip = next(j for j in map(wl.job, range(wl.cycle)) if j.command == "channels"
                 and j.family == "strip")
    strip = dataclasses.replace(strip, args=dict(strip.args, npts=1, k=[-1.6e-05, 0.5]),
                                points=2)
    go = wl.prepare(strip)
    ret = go()
    c = oracle.Checks()
    wl.finish(strip, ret, None, c)
    expect("tiny negative k in scientific notation runs and passes",
           ret == 0 and not c.failures())


def peak_cases() -> None:
    import checks as oracle
    from workloads import GapPeaks

    wl = GapPeaks(7, "")
    job = wl.job(0)
    report = wl.prepare(job)()
    c = oracle.Checks()
    oracle.check_peaks(job, report, c)
    expect("clean gap-peaks job passes", not c.failures())
    moved = dataclasses.replace(report.peaks[0], energy=report.peaks[0].energy
                                + 2.0 * report.peaks[0].eta)
    c = oracle.Checks()
    oracle.check_peaks(job, dataclasses.replace(report, peaks=(moved,) + report.peaks[1:]), c)
    expect("peak moved by 2 eta fires peak_offset_over_eta",
           "peak_offset_over_eta" in c.failures())
    c = oracle.Checks()
    oracle.check_peaks(job, dataclasses.replace(report, peaks=report.peaks[1:]), c)
    expect("missing peak fires peak_count_wrong", "peak_count_wrong" in c.failures())


def seed_cases() -> None:
    from workloads import WORKLOADS

    def inputs(wl, n):
        out = [json.dumps([wl.job(i).doc, wl.job(i).args]) for i in range(n)]
        return out + [json.dumps(getattr(wl, "doc", None))]

    for name, cls in WORKLOADS.items():
        a, b = cls(1, ""), cls(2, "")
        n = 2 * cls.cycle
        mix_a = [(a.job(i).command, a.job(i).family, a.job(i).points) for i in range(n)]
        mix_b = [(b.job(i).command, b.job(i).family, b.job(i).points) for i in range(n)]
        expect(f"{name}: seeds 1 and 2 give the same job count and mix", mix_a == mix_b)
        expect(f"{name}: seeds 1 and 2 give different inputs for every job",
               all(x != y for x, y in zip(inputs(a, n)[:n], inputs(b, n)[:n])))
        expect(f"{name}: seed 1 twice gives identical inputs",
               inputs(a, n) == inputs(cls(1, ""), n))


def config_case() -> None:
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        committed = fh.read()
    try:
        run.write_config()
        with open(path, encoding="utf-8") as fh:
            expect("BENCHMARK.json matches run.py", fh.read() == committed)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(committed)


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "embedchan", "__init__.py")):
        sys.stderr.write(f"error: embedchan sources not found under {run.SRC}\n")
        return 2
    sys.path.insert(0, run.SRC)
    os.chdir(run.ROOT)
    workdir = os.path.relpath(os.path.join(run.OUT, f"selftest-{os.getpid()}"), run.ROOT)
    os.makedirs(workdir)
    try:
        cli_cases(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_cases()
    seed_cases()
    config_case()
    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
