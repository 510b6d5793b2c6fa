"""Energy/momentum sweeps, band-edge exponent fits, and peak detection."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import __version__
from .channels import ChannelBasis, _basis, _is_open, _tau_open, fix_phase
from .embed import (
    _NSD_GUARD,
    DEFAULT_ETA_SWEEP,
    TAU_PSD,
    EmbeddingPotential,
    ImSigma,
    _check_eta,
    _lead_stack,
    _transverse_modes,
)
from .bloch import TAU_PROP
from .errors import EmbedchanError, ModelValidationError
from .model import (
    Array,
    HamiltonianBlocks,
    Model,
    _readonly,
    lead_blocks,
    model_hash,
)
from .transport import (
    DeviceGreenFunction,
    TransmissionResult,
    _Transmission,
    _device_stack,
    _green_function,
    _result,
    _transmission_stack,
)

# Sweeps push their points through every layer in stacks of at most this many
# complex entries per stacked array: n^2 per point for a lead of surface
# dimension n, N^2 for a device of N sites.  A 256-site device is then solved
# one point at a time, and memory stays bounded for any grid.
_STACK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class PointRecord:
    """One (energy, momentum) sweep point."""

    e: float
    k: float | None
    status: str
    lambdas_l: tuple[float, ...] = ()
    lambdas_r: tuple[float, ...] = ()
    n_open_l: int = 0
    n_open_r: int = 0
    t_trace: float = math.nan
    t_channel_sum: float = math.nan
    discrepancy: float = math.nan

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class SweepResult:
    grid: tuple[float, ...]
    k_list: tuple[float | None, ...]
    records: tuple[PointRecord, ...]
    metadata: dict
    k_summed_trace: tuple[float, ...] | None = None
    k_summed_channel: tuple[float, ...] | None = None


@dataclass(frozen=True)
class EdgeFit:
    """Power-law fit of the leading channel eigenvalue near a band edge."""

    e0: float
    window: tuple[float, float]
    side: str
    exponent: float
    stderr: float
    n_points: int


@dataclass(frozen=True)
class Peak:
    energy: float
    height: float
    width: float
    eta: float
    transmission: float


@dataclass(frozen=True)
class PeakReport:
    peaks: tuple[Peak, ...]
    scaling_check: tuple[dict, ...]
    etas: tuple[float, ...]


@dataclass(frozen=True)
class PointSolution:
    """Full per-point objects, for callers that need more than the record."""

    sig_l: EmbeddingPotential
    sig_r: EmbeddingPotential
    im_l: ImSigma
    im_r: ImSigma
    channels_l: ChannelBasis
    channels_r: ChannelBasis
    result: TransmissionResult
    gdev: DeviceGreenFunction  # the device solve behind ``result``


def _same_blocks(a: HamiltonianBlocks, b: HamiltonianBlocks) -> bool:
    """Same lead blocks at the same momentum (a periodic and a non-periodic
    lead with equal arrays still differ in k)."""
    return a.k == b.k and np.array_equal(a.h00, b.h00) and np.array_equal(a.h01, b.h01)


def _check_finite(values, what: str) -> None:
    """Energies and momenta must be finite: NaN slips through order tests."""
    bad = [x for x in values if not math.isfinite(x)]
    if bad:
        raise ModelValidationError(f"{what} must be finite, got {bad[0]!r}")


def solve_point(
    model: Model,
    e: float,
    eta: float,
    k: float | None = None,
    tau_open: float | None = None,
) -> PointSolution:
    """Embedding potentials, channels, and transmission at one (E, k) point.

    The device resolvent uses eta = 0 while both leads are open (the lead
    self-energies already provide the imaginary part) and falls back to the
    supplied eta inside gaps.  Sigma and its channels belong to the lead
    alone, so when both leads have the same blocks at the same k they are
    computed once and the right side reuses them.

    This is the sweep pipeline (see :func:`_solve_stack`) on a stack of one
    point: one ``eigh`` per distinct lead is both the NSD guard and the
    channel basis.
    """
    _check_eta(eta)
    _check_finite((e,), "energy")
    e, eta, k = float(e), float(eta), _one_k(model, k)
    leads = _leads(model, (k,))
    s = _solve_stack(model, np.array([e]), [0], leads, eta, tau_open)
    if s.errors[0] is not None:
        raise s.errors[0]
    (*_, (k_l,)), (*_, (k_r,)) = leads[0], leads[-1]  # the k each lead's blocks take
    both = [(s.sides[0], s.channels[0], k_l, "left"), (s.sides[-1], s.channels[-1], k_r, "right")]
    sig = [EmbeddingPotential(_readonly(lead.sigma[0]), e, eta, side, lead_k, _readonly(lead.g[0]))
           for lead, _, lead_k, side in both]
    im = [ImSigma(_readonly(lead.im[0]), e, eta, side, lead_k) for lead, _, lead_k, side in both]
    ch = [_basis(w[0], v[0], int(n[0]), e, eta, side, lead_k, _tau_open(tau_open, eta))
          for _, (w, v, n), lead_k, side in both]
    eta_dev = float(s.eta_dev[0])
    result = _result(s.tr, 0, ch[0].n_open, ch[1].n_open, e, eta_dev)
    return PointSolution(*sig, *im, *ch, result,
                         _green_function(model.device, s.g[0], s.g_rl[0], e, eta_dev))


def _normalize_k_list(model: Model, k_list) -> tuple[float | None, ...]:
    ks = tuple(k_list) if k_list else ()
    if model.requires_momentum:
        if not ks:
            raise ModelValidationError(
                "model has a transverse-periodic lead: at least one k value is required"
            )
        ks = tuple(float(k) for k in ks)
        _check_finite(ks, "k values")
        return ks
    if ks:
        raise ModelValidationError("k values supplied for a non-periodic model")
    return (None,)


def _one_k(model: Model, k: float | None) -> float | None:
    """The k of a single-momentum entry point, checked as sweeps check theirs."""
    return _normalize_k_list(model, () if k is None else (k,))[0]


def sweep(
    model: Model,
    e_grid,
    eta: float = DEFAULT_ETA_SWEEP,
    k_list=None,
    tau_open: float | None = None,
) -> SweepResult:
    """Channel and transmission records over an energy grid (times a k list).

    Per-point numerical failures are recorded in the point's status field and
    do not abort the sweep.  The k-summed totals of an energy are NaN when
    any of its k points failed.

    The points go through each layer in stacks (see :func:`_sweep_records`);
    every record is the one :func:`solve_point` gives for its point.
    """
    grid = tuple(float(e) for e in e_grid)
    if not grid:
        raise ModelValidationError("energy grid must be nonempty")
    _check_finite(grid, "energy grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ModelValidationError("energy grid must be strictly increasing")
    _check_eta(eta)
    ks = _normalize_k_list(model, k_list)
    records = _sweep_records(model, grid, ks, eta, tau_open)
    metadata = {
        "model_hash": model_hash(model),
        "eta": float(eta),
        "tau_open": _tau_open(tau_open, eta),
        "tau_psd": TAU_PSD,
        "tau_prop": TAU_PROP,
        "version": __version__,
    }
    k_trace = k_channel = None
    if len(ks) > 1:
        k_trace, k_channel = [], []
        for i in range(len(grid)):
            chunk = records[i * len(ks):(i + 1) * len(ks)]
            failed = not all(r.ok for r in chunk)
            k_trace.append(math.nan if failed else sum(r.t_trace for r in chunk))
            k_channel.append(math.nan if failed else sum(r.t_channel_sum for r in chunk))
        k_trace, k_channel = tuple(k_trace), tuple(k_channel)
    return SweepResult(
        grid=grid, k_list=ks, records=tuple(records), metadata=metadata,
        k_summed_trace=k_trace, k_summed_channel=k_channel,
    )


def _leads(model: Model, ks) -> list[tuple[Array, Array, tuple | None, list]]:
    """The distinct leads of a model at the momenta ``ks``: h00 and h01
    stacked over ks, their transverse modes (see
    :func:`embed._transverse_modes`, computed here once per lead and k) and
    the k each point's block was built at, one per k of ``ks``.  A lead that
    ignores k (not transverse-periodic) has one block, which serves every k.
    When both leads have the same blocks at every k, the right side is the
    left one and the list holds one lead."""
    blocks_l, blocks_r = ([lead_blocks(spec, k) for k in (ks if spec.requires_momentum else ks[:1])]
                          for spec in (model.lead_l, model.lead_r))
    same = len(blocks_l) == len(blocks_r) and all(
        _same_blocks(a, b) for a, b in zip(blocks_l, blocks_r))
    leads = []
    for bs in [blocks_l] if same else [blocks_l, blocks_r]:
        h00, h01 = np.array([b.h00 for b in bs]), np.array([b.h01 for b in bs])
        leads.append((h00, h01, _transverse_modes(h00, h01),
                      [b.k for b in bs] * (len(ks) // len(bs))))
    return leads


def _sweep_records(model: Model, grid: tuple[float, ...], ks: tuple[float | None, ...],
                   eta: float, tau_open: float | None) -> list[PointRecord]:
    """Records of every (E, k) point, energy-major, each the one
    :func:`solve_point` gives, the points going through
    :func:`_solve_stack` in stacks whose lead arrays hold at most
    ``_STACK_ENTRIES`` complex entries."""
    leads = _leads(model, ks)
    step = max(1, _STACK_ENTRIES // max(h00.shape[-1] for h00, *_ in leads) ** 2)
    points = [(e, k) for e in grid for k in ks]
    energies = np.repeat(np.array(grid), len(ks))
    kidx = np.tile(np.arange(len(ks)), len(grid))
    records: list[PointRecord] = []
    for start in range(0, len(points), step):
        s = _solve_stack(model, energies[start:start + step], kidx[start:start + step],
                         leads, eta, tau_open)
        (w_l, _, n_l), (w_r, _, n_r), tr = s.channels[0], s.channels[-1], s.tr
        solved = zip(map(tuple, w_l.tolist()), map(tuple, w_r.tolist()), n_l.tolist(),
                     n_r.tolist(), tr.trace.tolist(), tr.channel_sum.tolist(),
                     tr.discrepancy.tolist())
        records += [PointRecord(*pt, "ok", *next(solved)) if err is None else
                    PointRecord(*pt, status=f"error: {err}")
                    for pt, err in zip(points[start:start + step], s.errors)]
    return records


def _complex(re: Array, im) -> Array:
    """complex(re, im) elementwise; unlike re + 1j * im it keeps the sign of a
    zero real part."""
    z = np.empty(len(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def _at(h: Array, kidx: Array) -> Array:
    """Blocks ``h`` (one per k) at each point's k; a view when there is one k
    and more than one point."""
    return np.broadcast_to(h, (len(kidx),) + h.shape[1:]) if len(h) == 1 < len(kidx) else h[kidx]


def _modes_at(modes: tuple[Array, Array] | None, kidx: Array) -> tuple[Array, Array] | None:
    """Transverse modes (one set per k, or None) at each point's k."""
    return None if modes is None else (_at(modes[0], kidx), _at(modes[1], kidx))


def _first_error(err_l, err_r) -> EmbedchanError | None:
    """The error :func:`solve_point` raises first of the two leads' core
    errors ((stage, error) or None): the embeddings, left then right, come
    before the NSD guards."""
    if err_l is None or (err_r is not None and err_r[0] < _NSD_GUARD <= err_l[0]):
        err_l = err_r
    return None if err_l is None else err_l[1]


class _Solved(NamedTuple):
    """The pipeline at a stack of points (see :func:`_solve_stack`): per point
    the error, and for the solved points (error None), in order, their
    channels, device eta, g_rl and transmission."""

    sides: list  # the lead core of each distinct lead
    errors: list[EmbedchanError | None]  # per point, the error solve_point raises, or None
    channels: list[tuple]  # per distinct lead: lambdas, phase-fixed eigenvectors, open counts
    eta_dev: Array  # the eta of the device resolvent
    g: Array | None  # the device g of the last device stack (solve_point's one point)
    g_rl: Array
    tr: _Transmission


def _solve_stack(model: Model, energies: Array, kidx: Array, leads: list, eta: float,
                 tau_open: float | None) -> _Solved:
    """The pipeline at a stack of points: ``energies``, and ``kidx`` the
    index of each point's k in ``leads`` (see :func:`_leads`).

    Each distinct lead goes through the lead core
    (:func:`embed._lead_stack`), whose one ``eigh`` is both the NSD guard and
    the channel basis.  A lead with one block in a sweep over several k goes
    through it once per distinct energy, and is read at every k of that
    energy.  The device goes through the device core
    (:func:`transport._device_stack`) in stacks of at most ``_STACK_ENTRIES``
    complex entries, and the channels and transmission through the
    transmission core (:func:`transport._transmission_stack`) as one stack.
    A stack of more than one point (a sweep) frees each lead's surface g
    before the next lead and the device layer; :func:`solve_point` reads it.
    """
    z = _complex(energies, eta)
    sides = []
    for h00, h01, modes, lead_ks in leads:
        if len(h00) == 1 < len(lead_ks):
            _, first, inverse = np.unique(energies.view(np.int64), return_index=True,
                                          return_inverse=True)
            zeros = np.zeros_like(first)
            side = _lead_stack(_at(h00, zeros), _at(h01, zeros), z[first], True,
                               _modes_at(modes, zeros))
        else:
            side, inverse = _lead_stack(_at(h00, kidx), _at(h01, kidx), z, True,
                                        _modes_at(modes, kidx)), None
        if len(z) > 1:  # a sweep: free g before the next lead and the device layer
            side = side._replace(g=None)
        if inverse is not None:
            side = side._make([None if x is None else x[inverse] for x in side[:-1]]
                              + [[side.errors[i] for i in inverse]])
        sides.append(side)
    left, right = sides[0], sides[-1]
    errors = [_first_error(a, b) for a, b in zip(left.errors, right.errors)]
    n_open = [_is_open(s.w, _tau_open(tau_open, eta)).sum(axis=1) for s in sides]
    # the leads' self-energies supply the imaginary part while both are open
    eta_dev = np.where((n_open[0] > 0) & (n_open[-1] > 0), 0.0, eta)

    dev, g = model.device, None
    g_rl = np.empty((len(z), right.w.shape[1], left.w.shape[1]), dtype=complex)
    ok = np.flatnonzero([err is None for err in errors])
    step = max(1, _STACK_ENTRIES // dev.n_device ** 2)
    for start in range(0, len(ok), step):
        sel = ok[start:start + step]
        g = None  # one N x N device stack alive at a time
        g, g_rl[sel], failed = _device_stack(dev, left.sigma[sel], right.sigma[sel],
                                             _complex(energies[sel], eta_dev[sel]))
        for p, error in zip(sel, failed):
            errors[p] = error
    done = np.flatnonzero([err is None for err in errors])
    ch = [(s.w[done], fix_phase(s.v[done]), n[done]) for s, n in zip(sides, n_open)]
    tr = _transmission_stack(g_rl[done], left.im[done], right.im[done], ch[0], ch[-1])
    return _Solved(sides, errors, ch, eta_dev[done], g, g_rl[done], tr)


def _leading_lambda(record: PointRecord) -> float:
    vals = record.lambdas_l
    return max(abs(x) for x in vals) if vals else 0.0


def fit_band_edge(
    sweep_result: SweepResult,
    e0: float,
    window: tuple[float, float],
    side: str = "auto",
) -> EdgeFit:
    """Least-squares slope of log|lambda| versus log|E - e0| near a band edge.

    lambda is the largest channel-eigenvalue magnitude of the left lead.
    window = (delta_min, delta_max) selects offsets from the edge; points
    closer than 10 eta are broadening-dominated and the window must exclude
    them.  side picks the fit points above or below e0 ("auto" takes the side
    with more points in the window).
    """
    dmin, dmax = float(window[0]), float(window[1])
    if not (0.0 < dmin < dmax):
        raise ModelValidationError("window must satisfy 0 < delta_min < delta_max")
    eta = float(sweep_result.metadata.get("eta", 0.0))
    if dmin < 10.0 * eta:
        raise ModelValidationError(
            f"window lower edge {dmin:g} overlaps the broadening region 10*eta = {10*eta:g}"
        )
    # records are energy-major, len(k_list) per energy: take the first k's
    pts = [r for r in sweep_result.records[::len(sweep_result.k_list)] if r.ok]
    above = [(r.e - e0, _leading_lambda(r)) for r in pts if dmin <= r.e - e0 <= dmax]
    below = [(e0 - r.e, _leading_lambda(r)) for r in pts if dmin <= e0 - r.e <= dmax]
    if side == "auto":
        side = "above" if len(above) >= len(below) else "below"
    if side not in ("above", "below"):
        raise ModelValidationError(f"side must be 'above', 'below' or 'auto', got {side!r}")
    sel = above if side == "above" else below
    sel = [(d, y) for d, y in sel if y > 0.0]
    if len(sel) < 8:
        raise ModelValidationError(
            f"need at least 8 sweep points inside the window on side {side!r}, got {len(sel)}"
        )
    x = np.log([d for d, _ in sel])
    y = np.log([v for _, v in sel])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = len(sel) - 2
    sxx = float(((x - x.mean()) ** 2).sum())
    stderr = float(np.sqrt((resid @ resid) / dof / sxx)) if dof > 0 and sxx > 0 else math.nan
    return EdgeFit(
        e0=float(e0), window=(dmin, dmax), side=side,
        exponent=float(slope), stderr=stderr, n_points=len(sel),
    )


# Peak refinement.  Every (energy, eta) value one detect_peaks call reads comes
# from stacked _max_lambdas calls.  The searches are the serial zoom-grid,
# golden-section and bisection loops, each read preceded by a ``yield`` of the
# points it needs; _together runs independent searches side by side, so that
# the requests of one round go through the lead as one stack.

# A bisection prefetches the 2^d - 1 midpoints of its next d halvings at once.
_TREE_DEPTH = 3


def _max_lambdas(h00: Array, h01: Array, modes: tuple[Array, Array] | None,
                 points: list[tuple[float, float]]) -> list:
    """A lead's largest |lambda| at every (e, eta) point, or the error
    :func:`solve_point` would raise for the lead there; the lead (blocks of
    shape (1, n, n), ``modes`` its transverse modes) goes through the lead
    core on stacks of points, each at its own eta, reading ``eigvalsh``
    values only."""
    step = max(1, _STACK_ENTRIES // h00.shape[-1] ** 2)
    e, eta = np.array(points, dtype=float).reshape(-1, 2).T
    vals = []
    for start in range(0, len(points), step):
        z = _complex(e[start:start + step], eta[start:start + step])
        kidx = np.zeros(len(z), int)
        lead = _lead_stack(_at(h00, kidx), _at(h01, kidx), z, False, _modes_at(modes, kidx))
        vals += [v if err is None else err[1]
                 for v, err in zip(np.abs(lead.w).max(axis=1).tolist(), lead.errors)]
    return vals


class _LeadValues:
    """The left lead's :func:`_max_lambdas` values for one :func:`detect_peaks`
    call, memoised on the exact bits of (e, eta), so that -0.0 and 0.0 stay apart.

    :meth:`fetch` evaluates the points not known yet in one :func:`_max_lambdas`
    call.  A point that failed has its error in the memo, and :meth:`read`
    raises it, so a prefetched point that no search reads never raises.  The
    lead's transverse modes are computed once, here.
    """

    def __init__(self, model: Model, k: float | None) -> None:
        blocks = lead_blocks(model.lead_l, k)
        h00, h01 = blocks.h00[None], blocks.h01[None]
        self.lead = h00, h01, _transverse_modes(h00, h01)  # blocks and modes for _max_lambdas
        self.memo: dict[bytes, float | EmbedchanError] = {}

    def fetch(self, points) -> None:
        new = {key: p for p in points if (key := struct.pack("dd", *p)) not in self.memo}
        if new:
            self.memo.update(zip(new, _max_lambdas(*self.lead, [*new.values()])))

    def read(self, e: float, eta: float) -> float:
        value = self.memo[struct.pack("dd", e, eta)]
        if isinstance(value, EmbedchanError):
            raise value
        return value

    def run(self, search):
        """Run a search to its end, fetching the points of each round in one stack."""
        try:
            while True:
                self.fetch(search.send(None))
        except StopIteration as stop:
            return stop.value


@dataclass(frozen=True)
class _AtEta:
    """The values at one eta: ``f(e)`` reads a fetched value, ``f.ask(es)``
    names the points a search reads next."""

    values: _LeadValues
    eta: float

    def __call__(self, e: float) -> float:
        return self.values.read(e, self.eta)

    def ask(self, energies) -> list[tuple[float, float]]:
        return [(e, self.eta) for e in energies]


def _together(searches: list):
    """Run independent searches side by side, each round requesting the union
    of their next points; return their results in order.

    When searches fail, raise the error of the first in order, the one a
    serial run would meet first; the searches after it are dropped.
    """
    results = [None] * len(searches)
    error = None
    pending = dict(enumerate(searches))
    while pending:
        points = []
        for i, search in list(pending.items()):
            try:
                points += search.send(None)
            except StopIteration as stop:
                results[i] = stop.value
                del pending[i]
            except Exception as exc:  # raised below, once the searches before it are done
                error = exc  # every search still pending comes before this one
                pending = {j: s for j, s in pending.items() if j < i}
                break
        if points:
            yield points
    if error is not None:
        raise error
    return results


def _golden_max(f, a: float, b: float, tol: float):
    """Golden-section maximizer on [a, b]."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    yield f.ask((c, d))
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            yield f.ask((c,))
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            yield f.ask((d,))
            fd = f(d)
    return 0.5 * (a + b)


def _refine_max(f, a: float, b: float, tol: float):
    """Maximizer robust to peaks far narrower than the bracket.

    Coarse grid zooms re-bracket the maximum until the bracket is comparable
    to the requested tolerance; golden-section polishes the final bracket
    (valid there because a Lorentzian is unimodal once bracketed tightly).
    """
    while (b - a) > 64.0 * tol:
        xs = np.linspace(a, b, 17)
        yield f.ask(xs)
        ys = [f(x) for x in xs]
        i = int(np.argmax(ys))
        a = xs[max(0, i - 1)]
        b = xs[min(len(xs) - 1, i + 1)]
    return (yield from _golden_max(f, a, b, tol))


def _midpoints(lo: float, hi: float, depth: int) -> list[float]:
    """Every midpoint the next ``depth`` halvings of [lo, hi] can visit,
    computed as the bisection computes it."""
    if not depth:
        return []
    mid = 0.5 * (lo + hi)
    return [mid, *_midpoints(lo, mid, depth - 1), *_midpoints(mid, hi, depth - 1)]


def _cross(f, e_peak: float, height: float, span: float, sign: float):
    """Half-maximum crossing on one side of the peak by 80 halvings."""
    lo, hi = 0.0, span
    yield f.ask((e_peak + sign * hi,))
    if f(e_peak + sign * hi) > height / 2.0:
        return span
    for step in range(80):
        if step % _TREE_DEPTH == 0:
            mids = _midpoints(lo, hi, min(_TREE_DEPTH, 80 - step))
            yield f.ask([e_peak + sign * m for m in mids])
        mid = 0.5 * (lo + hi)
        if f(e_peak + sign * mid) > height / 2.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _half_width(f, e_peak: float, height: float, span: float):
    """Full width at half maximum by bisection on each side of the peak."""
    right, left = yield from _together([_cross(f, e_peak, height, span, +1.0),
                                        _cross(f, e_peak, height, span, -1.0)])
    return right + left


def _peak(model: Model, f: _AtEta, a: float, b: float, tol: float, k: float | None):
    """The peak in [a, b] at one eta: position, height, width, transmission."""
    e_peak = yield from _refine_max(f, a, b, tol)
    yield f.ask((e_peak,))
    h = f(e_peak)
    span = max(10.0 * f.eta, (b - a) / 2.0)
    width = yield from _half_width(f, e_peak, h, span)
    try:
        t_at_peak = solve_point(model, e_peak, f.eta, k).result.total_trace
    except EmbedchanError:
        t_at_peak = math.nan
    return Peak(energy=float(e_peak), height=float(h), width=float(width),
                eta=float(f.eta), transmission=float(t_at_peak))


def _candidate(model: Model, values: _LeadValues, a: float, b: float,
               etas: list[float], k: float | None):
    """The peaks of one candidate bracket at every eta, and their height ratios."""
    tol = max(1e-13, etas[0] / 100.0)
    peaks = yield from _together([_peak(model, _AtEta(values, eta), a, b, tol, k)
                                  for eta in etas])
    scaling = [{
        "energy": small.energy,
        "eta_small": small.eta,
        "eta_large": large.eta,
        "height_ratio": small.height / large.height,
        "eta_ratio": large.eta / small.eta,
    } for small, large in zip(peaks, peaks[1:])]
    return peaks, scaling


def detect_peaks(model: Model, e_grid, eta_list, k: float | None = None) -> PeakReport:
    """Locate eigenvalue peaks of the left lead's ImSigma and check 1/eta scaling.

    Peaks (surface-localized lead states in a gap) appear as Lorentzians of
    width ~eta in the largest channel-eigenvalue magnitude; a reported peak
    must exceed ten times the local background.  An empty report means no
    peaks, which is a valid outcome for gapless models.

    Every lead evaluation of the call is stacked: the scan, then the zoom
    grids, golden sections and half-width bisections of all candidates and
    etas side by side.  Values are memoised within the call only, and the
    report is the one the serial searches give.
    """
    etas = sorted(float(x) for x in eta_list)
    if len(etas) < 2:
        raise ModelValidationError("eta_list must contain at least two values")
    for eta in etas:
        _check_eta(eta)
    if etas[-1] < 10.0 * etas[0]:
        raise ModelValidationError("eta_list values must differ by at least a factor of 10")
    grid = tuple(float(e) for e in e_grid)
    if len(grid) < 5:
        raise ModelValidationError("energy grid too small for peak detection")
    _check_finite(grid, "energy grid")
    k = _one_k(model, k)

    eta0 = etas[0]
    values = _LeadValues(model, k)
    values.fetch([(e, eta0) for e in grid])
    vals = np.array([values.read(e, eta0) for e in grid])
    candidates = []
    for i in range(1, len(grid) - 1):
        if not (vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]):
            continue
        lo = max(0, i - 25)
        hi = min(len(grid), i + 26)
        neighborhood = np.concatenate([vals[lo:max(lo, i - 2)], vals[min(hi, i + 3):hi]])
        background = float(np.median(neighborhood)) if neighborhood.size else 0.0
        if vals[i] > 10.0 * max(background, TAU_PSD):
            candidates.append(i)

    found = values.run(_together([
        _candidate(model, values, grid[max(0, i - 1)], grid[min(len(grid) - 1, i + 1)], etas, k)
        for i in candidates]))
    peaks = tuple(p for ps, _ in found for p in ps)
    scaling = tuple(s for _, ss in found for s in ss)
    return PeakReport(peaks=peaks, scaling_check=scaling, etas=tuple(etas))
