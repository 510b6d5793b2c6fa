"""Seeded job streams for the three workloads.

A job is one user-level call: one ``run_cli([...])``, one ``sweep(...)`` or
one ``detect_peaks(...)``.  Job ``i`` of a run draws its inputs from
``default_rng([seed, i])``, so every job gets fresh inputs (no job repeats
another's work, so no cache can help across jobs) and a seed fixes the whole
stream.  The job mix repeats with a fixed cycle: the seed moves parameters
inside fixed strata, never the command, the model family or the point count.

Every workload has the same interface:

* ``cycle``: jobs per cycle; the timed loop stops only at a cycle boundary.
* ``setup(ec)``: parse the workload's models and solve one warm-up point.
* ``job(i)``: the i-th job, a :class:`Job`.
* ``prepare(job)``: untimed input staging; returns the zero-argument call
  that is the job itself.
* ``finish(job, ret, err, checks)``: untimed; reads the outputs, runs the
  output checks and returns an :class:`Outcome`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import checks as oracle

ETA_SWEEP = 1e-6


@dataclass
class Job:
    index: int
    command: str  # CLI command, "sweep" or "detect_peaks"
    family: str  # model family
    doc: dict | None  # model document, when the job brings its own model
    args: dict  # command inputs
    points: int  # input (E, k) points


@dataclass
class Outcome:
    points: int
    failed: int
    output_bytes: int
    digest: str
    notes: list = field(default_factory=list)


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _strata(rng, lo: float, hi: float, n: int, pick) -> list[float]:
    """One seeded value inside each selected stratum of [lo, hi) cut n ways."""
    w = (hi - lo) / n
    return [lo + (j + rng.uniform()) * w for j in pick]


# ---------------------------------------------------------------------------
# model documents


def chain_doc(eps_imp: float, c: float) -> dict:
    lead = {"preset": "chain", "params": {"t": 1.0}}
    return {"lead_left": lead, "lead_right": lead,
            "device": {"h": [[eps_imp]], "coupling_left": [[c]], "coupling_right": [[c]]}}


def ladder_doc(tp: float, td: float, a: float, b: float, v: float) -> dict:
    """Two-rung device with a seeded impurity on the rung the left lead touches."""
    lead = {"preset": "ladder", "params": {"t": 1.0, "t_perp": tp, "t_diag": td}}
    h = [[a, -v, -1.0, -td],
         [-v, b, 0.0, -1.0],
         [-1.0, 0.0, 0.0, -tp],
         [-td, -1.0, -tp, 0.0]]
    return {"lead_left": lead, "lead_right": lead,
            "device": {"h": h,
                       "coupling_left": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
                       "coupling_right": [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]}}


def dimer_doc(t1: float, eps: float, d0: float, d1: float) -> dict:
    lead = {"preset": "dimer_chain", "params": {"t1": t1, "t2": 1.0, "eps": eps}}
    return {"lead_left": lead, "lead_right": lead,
            "device": {"h": [[d0, -t1], [-t1, d1]],
                       "coupling_left": [[0.0, 0.0], [1.0, 0.0]],
                       "coupling_right": [[0.0, 0.0], [0.0, 1.0]]}}


def strip_doc(e1: float, e2: float, width: int = 32) -> dict:
    """Transverse-periodic strip: one site per momentum, two-site device."""
    lead = {"preset": "square_strip", "params": {"t": 1.0, "width": width, "periodic": True}}
    return {"lead_left": lead, "lead_right": lead,
            "device": {"h": [[e1, -1.0], [-1.0, e2]],
                       "coupling_left": [[1.0, 0.0]], "coupling_right": [[0.0, 1.0]]}}


def wide_doc(seed: int, width: int, columns: int, disorder: float) -> dict:
    """Non-periodic strip; the device is `columns` strip columns with on-site disorder."""
    rng = np.random.default_rng([seed, 1 << 20])
    n = width * columns
    h = np.zeros((n, n))
    for c in range(columns):
        for i in range(width - 1):
            a = c * width + i
            h[a, a + 1] = h[a + 1, a] = -1.0
        if c + 1 < columns:
            for i in range(width):
                a, b = c * width + i, (c + 1) * width + i
                h[a, b] = h[b, a] = -1.0
    h[np.diag_indices(n)] = rng.uniform(-disorder / 2, disorder / 2, n)
    cl = np.zeros((width, n))
    cr = np.zeros((width, n))
    cl[:, :width] = np.eye(width)
    cr[:, n - width:] = np.eye(width)
    lead = {"preset": "square_strip", "params": {"t": 1.0, "width": width}}
    return {"lead_left": lead, "lead_right": lead,
            "device": {"h": h.tolist(), "coupling_left": cl.tolist(),
                       "coupling_right": cr.tolist()}}


# ---------------------------------------------------------------------------
# cli-small

# Sweep points per transmit/channels job.  Longer jobs keep the job count
# near 100 per run, so the tail (11th slowest job) stays below the few jobs a
# burst of host noise slows down.
NPTS = 128
NK = 32  # momenta of the periodic strip's k sum

# Eight sweeps and four other commands per cycle, so the median job is a sweep.
CLI_CYCLE = (
    ("transmit", "chain"), ("channels", "ladder"), ("transmit", "dimer"),
    ("channels", "strip"), ("fit-edge", "chain"), ("transmit", "ladder"),
    ("channels", "chain"), ("validate", "chain"), ("transmit", "strip"),
    ("channels", "dimer"), ("bloch", "strip"), ("scatter", "ladder"),
)


def _family_doc(family: str, rng) -> dict:
    if family == "chain":
        return chain_doc(rng.uniform(-1.0, 1.0), rng.uniform(0.7, 1.0))
    if family == "ladder":
        return ladder_doc(rng.uniform(0.3, 0.7), rng.uniform(0.05, 0.3),
                          rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(0.3, 0.7))
    if family == "dimer":
        return dimer_doc(rng.uniform(0.5, 0.9), 0.0, rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
    return strip_doc(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))


_WINDOW = {"chain": (2.2, 2.6), "ladder": (2.6, 3.0), "dimer": (1.9, 2.3)}


class CliSmall:
    name = "cli-small"
    cycle = len(CLI_CYCLE)

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def job(self, i: int) -> Job:
        command, family = CLI_CYCLE[i % self.cycle]
        rng = _rng(self.seed, i)
        doc = _family_doc(family, rng)
        args: dict = {}
        if family == "strip":
            k0 = rng.uniform(0.0, 2.0 * math.pi / NK)
            args["k"] = [math.remainder(k0 + 2.0 * math.pi * j / NK, 2.0 * math.pi)
                         for j in range(NK)]
        nk = len(args.get("k", [None]))
        if command in ("transmit", "channels"):
            if family == "strip":
                args.update(emin=rng.uniform(-3.5, -0.5), emax=rng.uniform(0.5, 3.5),
                            npts=NPTS // NK)
            else:
                lo, hi = _WINDOW[family]
                args.update(emin=-rng.uniform(lo, hi), emax=rng.uniform(lo, hi), npts=NPTS)
            if family == "strip" and command == "transmit":
                args["format"] = "json"
            points = args["npts"] * nk
        elif command == "fit-edge":
            args.update(e0=2.0, side="below", wmin=rng.uniform(1e-4, 2e-4),
                        wmax=rng.uniform(1e-2, 2e-2), npts=96)
            points = 96
        elif command == "validate":
            points = 5  # the documented invocation: default window and eta
        elif command == "bloch":
            args["e"] = rng.uniform(-3.0, 3.0)
            points = nk
        else:  # scatter
            args.update(e=rng.uniform(-1.0, 1.0), channel=0)
            points = 1
        return Job(i, command, family, doc, args, points)

    def setup(self, ec) -> None:
        models = [ec.parse_model(json.dumps(self.job(i).doc)) for i in range(self.cycle)]
        ec.solve_point(models[0], 0.1, ETA_SWEEP)

    def _paths(self):
        return os.path.join(self.workdir, "model.json"), os.path.join(self.workdir, "out")

    def prepare(self, job: Job):
        import embedchan.cli as cli

        model_path, out_path = self._paths()
        with open(model_path, "w", encoding="utf-8") as fh:
            json.dump(job.doc, fh)
        if os.path.exists(out_path):
            os.unlink(out_path)
        argv = [job.command, "--model", model_path, "--out", out_path]
        # "--key=value": argparse reads a separate "-1.6e-05" as an option, not a value
        for key, val in job.args.items():
            if key == "k":
                argv += [f"--k={k!r}" for k in val]
            else:
                argv.append(f"--{key}={val!r}" if isinstance(val, float) else f"--{key}={val}")
        self._stdout = io.StringIO()
        self._stderr = io.StringIO()

        def go():
            with contextlib.redirect_stdout(self._stdout), contextlib.redirect_stderr(self._stderr):
                return cli.run_cli(argv)

        return go

    def finish(self, job: Job, ret, err, checks: oracle.Checks) -> Outcome:
        _, out_path = self._paths()
        text = ""
        if os.path.exists(out_path):
            with open(out_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        stdout = self._stdout.getvalue()
        blob = f"{ret}\n{stdout}\n{text}".encode()
        outcome = Outcome(job.points, 0, len(text.encode()) + len(stdout.encode()),
                          hashlib.sha256(blob).hexdigest())
        if err is not None or ret != 0:
            checks.count("job_exit_nonzero", 1)
            outcome.failed = job.points
            outcome.notes.append(f"job {job.index} {job.command}: exit {ret} {err or ''} "
                                 f"{self._stderr.getvalue().strip()}")
            return outcome
        checks.count("job_exit_nonzero", 0)
        outcome.failed = oracle.check_cli(job, text, checks)
        return outcome


# ---------------------------------------------------------------------------
# wide-strip

WIDE_WIDTH = 64
WIDE_COLUMNS = 4
WIDE_DISORDER = 1.0
WIDE_ENERGIES = 4  # energies per sweep job
WIDE_CYCLE = 4
WIDE_BAND = (-3.9, 3.9)


class WideStrip:
    name = "wide-strip"
    cycle = WIDE_CYCLE

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.doc = wide_doc(seed, WIDE_WIDTH, WIDE_COLUMNS, WIDE_DISORDER)
        self.model = None

    def job(self, i: int) -> Job:
        # job j of a cycle takes strata j, j + cycle, j + 2 cycle of the band,
        # so every job mixes low, middle and high energies
        j = i % self.cycle
        pick = [j + m * self.cycle for m in range(WIDE_ENERGIES)]
        energies = _strata(_rng(self.seed, i), *WIDE_BAND, WIDE_ENERGIES * self.cycle, pick)
        return Job(i, "sweep", "wide_strip", None, {"energies": energies}, WIDE_ENERGIES)

    def setup(self, ec) -> None:
        self.model = ec.parse_model(json.dumps(self.doc))
        ec.solve_point(self.model, 0.1, ETA_SWEEP)

    def prepare(self, job: Job):
        import embedchan as ec

        model, energies = self.model, job.args["energies"]
        return lambda: ec.sweep(model, energies, eta=ETA_SWEEP)

    def finish(self, job: Job, ret, err, checks: oracle.Checks) -> Outcome:
        if err is not None:
            return Outcome(job.points, job.points, 0, "", [f"job {job.index}: {err!r}"])
        failed = oracle.check_wide(job, ret, checks)
        return Outcome(job.points, failed, 0, hashlib.sha256(repr(ret).encode()).hexdigest())


# ---------------------------------------------------------------------------
# gap-peaks

GAP_GRID = 201
GAP_HALF = 0.5
GAP_ETAS = (1e-7, 1e-6)
GAP_CYCLE = 4
GAP_T1 = (0.3, 0.7)


class GapPeaks:
    name = "gap-peaks"
    cycle = GAP_CYCLE

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self._models: dict = {}

    def job(self, i: int) -> Job:
        rng = _rng(self.seed, i)
        (t1,) = _strata(rng, *GAP_T1, self.cycle, [i % self.cycle])
        eps = rng.uniform(-0.05, 0.05)
        # the grid is offset so the gap centre never sits exactly on a grid point
        offset = rng.uniform(-0.5, 0.5) * (2 * GAP_HALF / (GAP_GRID - 1))
        grid = list(eps + offset + np.linspace(-GAP_HALF, GAP_HALF, GAP_GRID))
        doc = dimer_doc(t1, eps, eps, eps)
        return Job(i, "detect_peaks", "dimer_weak", doc,
                   {"grid": grid, "etas": list(GAP_ETAS), "t1": t1, "eps": eps}, GAP_GRID)

    def setup(self, ec) -> None:
        models = [ec.parse_model(json.dumps(self.job(i).doc)) for i in range(self.cycle)]
        ec.solve_point(models[0], 0.1, ETA_SWEEP)

    def prepare(self, job: Job):
        import embedchan as ec

        model = ec.parse_model(json.dumps(job.doc))
        grid, etas = job.args["grid"], job.args["etas"]
        return lambda: ec.detect_peaks(model, grid, etas)

    def finish(self, job: Job, ret, err, checks: oracle.Checks) -> Outcome:
        if err is not None:
            return Outcome(job.points, job.points, 0, "", [f"job {job.index}: {err!r}"])
        oracle.check_peaks(job, ret, checks)
        return Outcome(job.points, 0, 0, hashlib.sha256(repr(ret).encode()).hexdigest())


WORKLOADS = {w.name: w for w in (CliSmall, WideStrip, GapPeaks)}
