"""In-memory span tracer that wraps embedchan's public functions from outside.

Each wrapped call records one span (job id, span id, parent id, name, start,
end).  Wrappers replace the function at every name a caller looks it up
under: the package attribute, the defining module and every module that did
``from .x import f``.  Nothing inside ``src/`` is edited; ``uninstall``
restores the originals.  The one private hook is a call counter on
``embed._mode_matching``, the surface Green function's fallback route.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from collections import defaultdict
from time import perf_counter

# (module, function) pairs; the span name is "<module>.<function>".
SPANNED = (
    ("cli", "run_cli"),
    ("model", "parse_model"),
    ("model", "build_lead_blocks"),
    ("model", "model_hash"),
    ("embed", "surface_green"),
    ("embed", "embedding_potential"),
    ("embed", "anti_hermitian_part"),
    ("channels", "channel_decomposition"),
    ("bloch", "bloch_states"),
    ("transport", "device_green"),
    ("transport", "transmission"),
    ("transport", "scattered_wave"),
    ("spectra", "sweep"),
    ("spectra", "solve_point"),
    ("spectra", "detect_peaks"),
    ("spectra", "fit_band_edge"),
)
COUNTED = (("embed", "_mode_matching", "embed.mode_matching"),)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in SPANNED)
ROOT = "bench.job"
_MODULES = ("cli", "model", "embed", "channels", "bloch", "transport", "spectra")


class Tracer:
    """Collects spans and counts while installed; one instance per run.

    Spans live in flat arrays (span id = index), which the garbage collector
    never has to traverse, so a long run does not slow down as they pile up.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.job, self.parent, self.name = array("l"), array("l"), array("l")
        self.t0, self.t1 = array("d"), array("d")
        self.counts: dict = defaultdict(lambda: defaultdict(int))  # job -> name -> n
        self.current = -1  # job id spans record; -1 marks set-up outside any job
        self._stack: list[int] = []
        self._patches: list = []

    def _span(self, name: str, fn):
        self.names.append(name)
        idx = len(self.names) - 1
        job, parent, names, t0, t1, stack = (
            self.job, self.parent, self.name, self.t0, self.t1, self._stack)

        def wrapper(*args, **kwargs):
            sid = len(t0)
            job.append(self.current)
            parent.append(stack[-1] if stack else -1)
            names.append(idx)
            t1.append(0.0)
            stack.append(sid)
            t0.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                t1[sid] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[self.current][name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        by_name = {m: importlib.import_module(f"embedchan.{m}") for m in _MODULES}
        mods = [importlib.import_module("embedchan"), *by_name.values()]
        plan = [self._span(f"{m}.{f}", getattr(by_name[m], f)) for m, f in SPANNED]
        plan += [self._counter(n, getattr(by_name[m], f)) for m, f, n in COUNTED]
        for wrapper in plan:
            orig = wrapper.__wrapped__
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def root(self, job: int):
        """Span wrapper for one whole job; sets the job id its children record."""

        def run(fn):
            self.current = job
            try:
                return self._span(ROOT, fn)()
            finally:
                self.current = -1

        return run

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's."""
        dur = [b - a for a, b in zip(self.t0, self.t1)]
        child = [0.0] * len(dur)
        for p, d in zip(self.parent, dur):
            if p >= 0:
                child[p] += d
        return [d - c for d, c in zip(dur, child)]

    def table(self) -> dict:
        """{job: {name: [calls, self_s]}} over all recorded spans and counters."""
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for job, idx, st in zip(self.job, self.name, self.self_times()):
            cell = out[job][self.names[idx]]
            cell[0] += 1
            cell[1] += st
        for job, names in self.counts.items():
            for name, n in names.items():
                out[job][name][0] += n
        return out

    def write(self, path: str) -> None:
        """Spans as gzip CSV: span,job,parent,name,start_s,end_s,self_s."""
        rows = zip(self.job, self.parent, self.name, self.t0, self.t1, self.self_times())
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("span,job,parent,name,start_s,end_s,self_s\n")
            for sid, (job, parent, idx, t0, t1, st) in enumerate(rows):
                fh.write(f"{sid},{job},{parent},{self.names[idx]},{t0:.9f},{t1:.9f},{st:.9f}\n")
