"""Energy/momentum sweeps, band-edge exponent fits, and peak detection."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .channels import ChannelBasis, channel_decomposition, default_tau_open
from .embed import (
    DEFAULT_ETA_SWEEP,
    TAU_PSD,
    EmbeddingPotential,
    ImSigma,
    anti_hermitian_part,
    embedding_potential,
)
from .bloch import TAU_PROP
from .errors import EmbedchanError, ModelValidationError
from .model import HamiltonianBlocks, Model, build_lead_blocks, model_hash
from .transport import TransmissionResult, device_green, transmission


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


def _same_blocks(a: HamiltonianBlocks, b: HamiltonianBlocks) -> bool:
    """Same lead blocks at the same momentum (a periodic and a non-periodic
    lead with equal arrays still differ in k)."""
    return a.k == b.k and np.array_equal(a.h00, b.h00) and np.array_equal(a.h01, b.h01)


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
    """
    blocks_l = build_lead_blocks(model.lead_l, k if model.lead_l.requires_momentum else None)
    blocks_r = build_lead_blocks(model.lead_r, k if model.lead_r.requires_momentum else None)
    same = _same_blocks(blocks_l, blocks_r)
    sig_l = embedding_potential(blocks_l, e, eta, side="left")
    sig_r = (replace(sig_l, side="right") if same
             else embedding_potential(blocks_r, e, eta, side="right"))
    im_l = anti_hermitian_part(sig_l)
    im_r = replace(im_l, side="right") if same else anti_hermitian_part(sig_r)
    ch_l = channel_decomposition(im_l, tau_open)
    ch_r = replace(ch_l, side="right") if same else channel_decomposition(im_r, tau_open)
    eta_dev = 0.0 if (ch_l.n_open > 0 and ch_r.n_open > 0) else eta
    gdev = device_green(model.device, sig_l, sig_r, e, eta_dev)
    res = transmission(gdev, im_l, im_r, ch_l, ch_r)
    return PointSolution(sig_l, sig_r, im_l, im_r, ch_l, ch_r, res)


def _normalize_k_list(model: Model, k_list) -> tuple[float | None, ...]:
    ks = tuple(k_list) if k_list else ()
    if model.requires_momentum:
        if not ks:
            raise ModelValidationError(
                "model has a transverse-periodic lead: at least one k value is required"
            )
        return tuple(float(k) for k in ks)
    if ks:
        raise ModelValidationError("k values supplied for a non-periodic model")
    return (None,)


def sweep(
    model: Model,
    e_grid,
    eta: float = DEFAULT_ETA_SWEEP,
    k_list=None,
    tau_open: float | None = None,
) -> SweepResult:
    """Channel and transmission records over an energy grid (times a k list).

    Per-point numerical failures are recorded in the point's status field and
    do not abort the sweep.
    """
    grid = tuple(float(e) for e in e_grid)
    if not grid:
        raise ModelValidationError("energy grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ModelValidationError("energy grid must be strictly increasing")
    if eta <= 0.0:
        raise ModelValidationError("eta must be > 0 for channel-eigenvalue sweeps")
    ks = _normalize_k_list(model, k_list)
    records: list[PointRecord] = []
    for e in grid:
        for k in ks:
            try:
                sol = solve_point(model, e, eta, k, tau_open)
                r = sol.result
                records.append(
                    PointRecord(
                        e=e,
                        k=k,
                        status="ok",
                        lambdas_l=tuple(float(x) for x in sol.channels_l.lambdas),
                        lambdas_r=tuple(float(x) for x in sol.channels_r.lambdas),
                        n_open_l=sol.channels_l.n_open,
                        n_open_r=sol.channels_r.n_open,
                        t_trace=r.total_trace,
                        t_channel_sum=r.total_channel_sum,
                        discrepancy=r.discrepancy,
                    )
                )
            except EmbedchanError as exc:
                records.append(PointRecord(e=e, k=k, status=f"error: {exc}"))
    metadata = {
        "model_hash": model_hash(model),
        "eta": float(eta),
        "tau_open": float(tau_open if tau_open is not None else default_tau_open(eta)),
        "tau_psd": TAU_PSD,
        "tau_prop": TAU_PROP,
        "version": __version__,
    }
    k_trace = k_channel = None
    if len(ks) > 1:
        k_trace, k_channel = [], []
        for i, e in enumerate(grid):
            chunk = records[i * len(ks):(i + 1) * len(ks)]
            oks = [r for r in chunk if r.ok]
            k_trace.append(sum(r.t_trace for r in oks))
            k_channel.append(sum(r.t_channel_sum for r in oks))
        k_trace, k_channel = tuple(k_trace), tuple(k_channel)
    return SweepResult(
        grid=grid, k_list=ks, records=tuple(records), metadata=metadata,
        k_summed_trace=k_trace, k_summed_channel=k_channel,
    )


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


def _max_lambda_at(model: Model, e: float, eta: float, k: float | None) -> float:
    blocks = build_lead_blocks(model.lead_l, k if model.lead_l.requires_momentum else None)
    sig = embedding_potential(blocks, e, eta, side="left")
    im = anti_hermitian_part(sig)
    return float(np.abs(np.linalg.eigvalsh(im.matrix)).max())


def _golden_max(f, a: float, b: float, tol: float) -> float:
    """Golden-section maximizer on [a, b]."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _refine_max(f, a: float, b: float, tol: float) -> float:
    """Maximizer robust to peaks far narrower than the bracket.

    Coarse grid zooms re-bracket the maximum until the bracket is comparable
    to the requested tolerance; golden-section polishes the final bracket
    (valid there because a Lorentzian is unimodal once bracketed tightly).
    """
    while (b - a) > 64.0 * tol:
        xs = np.linspace(a, b, 17)
        ys = [f(x) for x in xs]
        i = int(np.argmax(ys))
        a = xs[max(0, i - 1)]
        b = xs[min(len(xs) - 1, i + 1)]
    return _golden_max(f, a, b, tol)


def _half_width(f, e_peak: float, height: float, span: float) -> float:
    """Full width at half maximum by bisection on each side of the peak."""

    def cross(sign: float) -> float:
        lo, hi = 0.0, span
        if f(e_peak + sign * hi) > height / 2.0:
            return span
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f(e_peak + sign * mid) > height / 2.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return cross(+1.0) + cross(-1.0)


def detect_peaks(model: Model, e_grid, eta_list, k: float | None = None) -> PeakReport:
    """Locate eigenvalue peaks of the left lead's ImSigma and check 1/eta scaling.

    Peaks (surface-localized lead states in a gap) appear as Lorentzians of
    width ~eta in the largest channel-eigenvalue magnitude; a reported peak
    must exceed ten times the local background.  An empty report means no
    peaks, which is a valid outcome for gapless models.
    """
    etas = sorted(float(x) for x in eta_list)
    if len(etas) < 2:
        raise ModelValidationError("eta_list must contain at least two values")
    if etas[-1] < 10.0 * etas[0]:
        raise ModelValidationError("eta_list values must differ by at least a factor of 10")
    grid = tuple(float(e) for e in e_grid)
    if len(grid) < 5:
        raise ModelValidationError("energy grid too small for peak detection")
    if model.requires_momentum and k is None:
        raise ModelValidationError("model is transverse-periodic: a k value is required")

    eta0 = etas[0]
    vals = np.array([_max_lambda_at(model, e, eta0, k) for e in grid])
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

    peaks: list[Peak] = []
    scaling: list[dict] = []
    for i in candidates:
        a, b = grid[max(0, i - 1)], grid[min(len(grid) - 1, i + 1)]
        heights = {}
        centers = {}
        for eta in etas:
            f = lambda e, _eta=eta: _max_lambda_at(model, e, _eta, k)
            e_peak = _refine_max(f, a, b, tol=max(1e-13, eta0 / 100.0))
            h = f(e_peak)
            heights[eta] = h
            centers[eta] = e_peak
            span = max(10.0 * eta, (b - a) / 2.0)
            width = _half_width(f, e_peak, h, span)
            try:
                t_at_peak = solve_point(model, e_peak, eta, k).result.total_trace
            except EmbedchanError:
                t_at_peak = math.nan
            peaks.append(Peak(energy=float(e_peak), height=float(h), width=float(width),
                              eta=float(eta), transmission=float(t_at_peak)))
        for small, large in zip(etas, etas[1:]):
            scaling.append({
                "energy": float(centers[small]),
                "eta_small": small,
                "eta_large": large,
                "height_ratio": heights[small] / heights[large],
                "eta_ratio": large / small,
            })
    return PeakReport(peaks=tuple(peaks), scaling_check=tuple(scaling), etas=tuple(etas))
