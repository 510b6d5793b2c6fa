"""Per-job output digests of the benchmark workloads, for comparing commits.

Runs the first N jobs of each workload in ``perfbench/workloads.py`` (imported
read-only, untimed) and prints one sha256 per job, the same digest the
benchmark records for the job's output.  CLI jobs run inside a fixed work
directory, so paths a job echoes (``validate`` prints its model path) are the
same on every run, and two source trees that produce byte-identical outputs
print identical lines:

    python3 tools/output_digests.py --jobs 24 --seed 1 --seed 7 > new.txt
    python3 tools/output_digests.py --src /path/to/other/checkout/src \\
        --jobs 24 --seed 1 --seed 7 > old.txt
    diff old.txt new.txt

The exit code is 1 when a job raised, exited non-zero or failed an output
check, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import checks as oracle  # noqa: E402  (perfbench modules, imported read-only)
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="directory holding the embedchan package (default: this checkout)")
    p.add_argument("--seed", action="append", type=int, default=None,
                   help="workload seed, repeatable (default: 1)")
    p.add_argument("--jobs", type=int, default=24, help="jobs per workload and seed")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    import embedchan as ec

    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the relative work directory below is then the same on every run
        os.makedirs("work")
        for name in WORKLOADS:
            for seed in args.seed or [1]:
                wl = WORKLOADS[name](seed, "work")
                wl.setup(ec)
                for i in range(args.jobs):
                    job = wl.job(i)
                    go = wl.prepare(job)
                    try:
                        ret, err = go(), None
                    except Exception as exc:  # reported, like a failed benchmark job
                        ret, err = None, exc
                    checks = oracle.Checks()
                    out = wl.finish(job, ret, err, checks)
                    failed = checks.failures()
                    if out.failed:
                        failed.append(f"{out.failed} points")
                    bad += bool(failed)
                    flag = f" FAILED {', '.join(failed)}" if failed else ""
                    print(f"{name} seed={seed} job={i} {job.command} {out.digest}{flag}",
                          flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
