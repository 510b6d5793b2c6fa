"""Output checks.  A run that fails any of them is reported as invalid.

Every gauge keeps the worst value seen in a run and passes while that value
stays within its tolerance (a tolerance of None only reports); every count
passes while it stays zero.  perfbench/README.md lists the worst value the
seed commit reached for each tolerance.

The oracles are independent of the library's solver path: the uniform-chain
closed form ``chain_surface_green_exact`` (the library ships it but never
calls it), a numpy solve of the small device, and the transverse modes of
the clean strip leads.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter

import numpy as np

TOL = {
    # |T_trace - closed form| on every n = 1 point (chain, periodic strip).
    "t_closed_form": 1e-5,
    # |lambda - Im Sigma closed form| on every n = 1 channels point and every
    # wide-strip channel (mode by mode).
    "lambda_closed_form": 1e-5,
    # -T_trace, anywhere.
    "t_below_zero": 1e-12,
    # T_channel_sum - min(n_open_l, n_open_r) anywhere, and T_trace - min(...)
    # where both leads have an open channel.
    "t_above_open": 1e-6,
    # |T_channel_sum - T_trace| where both leads have an open channel; O(eta)
    # next to subband edges.
    "discrepancy": 1e-2,
    # the same where a lead has no open channel: reported, not gated.  At
    # finite eta the trace route leaks through closed channels, most next to a
    # device bound state in a gap, where the closed form leaks the same.
    "discrepancy_closed": None,
    # reported discrepancy against the one recomputed from the two totals.
    "discrepancy_reported": 0.0,
    # largest channel eigenvalue (ImSigma must be negative semi-definite).
    "lambda_positive": 1e-10,
    # k-summed T against the sum of the per-k records.
    "k_sum": 1e-12,
    # |fitted band-edge exponent - 1/2| on the chain.
    "edge_exponent": 0.05,
    # |beta + 1/beta - (eps_k - E)| for each Bloch factor of the strip.
    "bloch_pencil": 1e-8,
    # |transmitted flux - t-row sum| of a scattered wave.
    "scatter_flux": 1e-9,
    # |E_peak - gap centre| / eta.
    "peak_offset_over_eta": 1.0,
    # |height ratio / eta ratio - 1|.
    "peak_ratio": 0.01,
    # |T| at a gap-state peak.
    "peak_transmission": 1e-9,
}


class Checks:
    """Worst value per gauge and total per count, over one run."""

    def __init__(self) -> None:
        self.gauges: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def gauge(self, name: str, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            value = math.inf
        self.gauges[name] = max(self.gauges.get(name, -math.inf), value)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def failures(self) -> list[str]:
        bad = [n for n, v in self.gauges.items() if TOL[n] is not None and not v <= TOL[n]]
        return bad + [n for n, v in self.counts.items() if v != 0]

    def report(self) -> dict:
        out = {n: {"worst": v, "tol": TOL[n], "pass": TOL[n] is None or v <= TOL[n]}
               for n, v in sorted(self.gauges.items())}
        out.update({n: {"count": v, "pass": v == 0} for n, v in sorted(self.counts.items())})
        return out


def tau_open(eta: float) -> float:
    return max(1e-10, 100.0 * eta)


# ---------------------------------------------------------------------------
# oracles


def n1_lead(doc: dict, k: float | None) -> tuple[float, float]:
    """(on-site, hopping) of a lead that is a uniform chain at momentum k."""
    lead = doc["lead_left"]
    p = lead["params"]
    t, eps = float(p["t"]), float(p.get("eps", 0.0))
    if lead["preset"] == "square_strip":
        eps -= 2.0 * t * math.cos(k)
    return eps, t


def n1_point(doc: dict, e: float, k: float | None, eta: float) -> tuple[float, float, int]:
    """Closed-form (T, lambda, n_open) for identical n = 1 chain-like leads."""
    from embedchan import chain_surface_green_exact

    eps, t = n1_lead(doc, k)
    sigma = t * t * chain_surface_green_exact(e - eps, t, eta)
    lam = sigma.imag
    n_open = int(lam < -tau_open(eta))
    eta_dev = 0.0 if n_open else eta
    dev = doc["device"]
    h = np.array(dev["h"], dtype=float)
    cl = np.array(dev["coupling_left"], dtype=float)[0]
    cr = np.array(dev["coupling_right"], dtype=float)[0]
    a = complex(e, eta_dev) * np.eye(len(h)) - h - sigma * (np.outer(cl, cl) + np.outer(cr, cr))
    g_rl = cr @ np.linalg.solve(a, cl.astype(complex))
    return 4.0 * lam * lam * abs(g_rl) ** 2, lam, n_open


def strip_lambdas(e: float, width: int, eta: float) -> np.ndarray:
    """Channel eigenvalues of a clean non-periodic t = 1 strip lead, ascending.

    The transverse modes decouple; mode m is a chain with on-site
    -2 cos(m pi / (width + 1)), so Sigma is diagonal in the mode basis.
    """
    from embedchan import chain_surface_green_exact

    modes = -2.0 * np.cos(np.arange(1, width + 1) * np.pi / (width + 1))
    return np.sort([chain_surface_green_exact(e - m, 1.0, eta).imag for m in modes])


def _transport_row(checks: Checks, t: float, cs: float, disc: float, nl: int, nr: int) -> None:
    n_open = min(nl, nr)
    checks.gauge("t_below_zero", -t)
    checks.gauge("t_above_open", cs - n_open)
    if n_open:
        checks.gauge("t_above_open", t - n_open)
        checks.gauge("discrepancy", disc)
    else:
        checks.gauge("discrepancy_closed", disc)
    checks.gauge("discrepancy_reported", abs(disc - abs(cs - t)))


def _oracle_row(checks: Checks, family: str, doc: dict, e: float, k, eta: float,
                t: float, nl: int, nr: int) -> None:
    if family in ("chain", "strip"):
        t_ref, _, n_ref = n1_point(doc, e, k, eta)
        checks.gauge("t_closed_form", abs(t - t_ref))
        checks.count("n_open_mismatch", (nl != n_ref) + (nr != n_ref))


# ---------------------------------------------------------------------------
# CLI outputs


def _expected_points(job) -> list[tuple[float, float | None]]:
    a = job.args
    ks = a.get("k", [None])
    grid = np.linspace(a["emin"], a["emax"], a["npts"])
    return [(float(e), k) for e in grid for k in ks]


def _key(e: str, k: str) -> tuple[float, float | None]:
    return float(e), (float(k) if k else None)


def _match_points(job, keys: list, checks: Checks, per_point: int = 1) -> int:
    """Count expected points missing from `keys`; flag extra or reordered rows."""
    points = _expected_points(job)
    if keys == [p for p in points for _ in range(per_point)]:
        checks.count("dropped_points", 0)
        return 0
    have = Counter(keys)
    missing = sum(have[p] < per_point for p in points)
    extra = len(keys) - sum(min(have[p], per_point) for p in points)
    checks.count("dropped_points", missing)
    checks.count("unexpected_rows", extra + (extra == 0 and missing == 0))
    return missing


def check_cli(job, text: str, checks: Checks) -> int:
    """Check one CLI job's output file; return the number of failed points."""
    eta = 1e-6  # the CLI default --eta of transmit and channels
    cmd, fam, doc, a = job.command, job.family, job.doc, job.args
    if cmd == "transmit" and a.get("format") == "json":
        out = json.loads(text)
        recs = out["records"]
        failed = _match_points(job, [(r["e"], r["k"]) for r in recs], checks)
        failed += sum(r["status"] != "ok" for r in recs)
        for r in recs:
            if r["status"] == "ok":
                _transport_row(checks, r["t_trace"], r["t_channel_sum"], r["discrepancy"],
                               r["n_open_l"], r["n_open_r"])
                _oracle_row(checks, fam, doc, r["e"], r["k"], eta, r["t_trace"],
                            r["n_open_l"], r["n_open_r"])
        nk = len(a["k"])
        for i, total in enumerate(out["k_summed_trace"]):
            chunk = recs[i * nk:(i + 1) * nk]
            checks.gauge("k_sum", abs(total - sum(r["t_trace"] for r in chunk if r["status"] == "ok")))
        return failed
    if cmd == "transmit":
        rows = list(csv.DictReader(io.StringIO(text)))
        failed = _match_points(job, [_key(r["E"], r["k"]) for r in rows], checks)
        for r in rows:
            e, k = _key(r["E"], r["k"])
            t, nl, nr = float(r["T_trace"]), int(r["n_open_l"]), int(r["n_open_r"])
            _transport_row(checks, t, float(r["T_channel_sum"]), float(r["discrepancy"]), nl, nr)
            _oracle_row(checks, fam, doc, e, k, eta, t, nl, nr)
        return failed
    if cmd == "channels":
        rows = list(csv.DictReader(io.StringIO(text)))
        per_point = 1 if fam in ("chain", "strip") else 2
        failed = _match_points(job, [_key(r["E"], r["k"]) for r in rows], checks, per_point)
        for r in rows:
            e, k = _key(r["E"], r["k"])
            lam, is_open = float(r["lambda"]), r["open"] == "1"
            checks.gauge("lambda_positive", lam)
            checks.count("open_flag_mismatch", is_open != (lam < -tau_open(eta)))
            if fam in ("chain", "strip"):
                checks.gauge("lambda_closed_form", abs(lam - n1_point(doc, e, k, eta)[1]))
        return failed
    if cmd == "fit-edge":
        checks.gauge("edge_exponent", abs(json.loads(text)["exponent"] - 0.5))
        return 0
    if cmd == "validate":
        checks.count("validate_failed", not json.loads(text)["all_passed"])
        return 0
    if cmd == "bloch":
        rows = list(csv.DictReader(io.StringIO(text)))
        e = a["e"]
        for k in a["k"]:
            mine = [r for r in rows if float(r["k"]) == k]
            checks.count("dropped_points", len(mine) != 2)
            eps, _ = n1_lead(doc, k)
            n_prop = sum(r["propagating"] == "1" for r in mine)
            checks.count("bloch_count_mismatch", n_prop != (2 if abs(e - eps) < 2.0 else 0))
            for r in mine:
                beta = complex(float(r["beta_re"]), float(r["beta_im"]))
                checks.gauge("bloch_pencil", abs(beta + 1.0 / beta - (eps - e)))
        return 0
    # scatter
    out = json.loads(text)
    checks.gauge("scatter_flux", abs(out["transmitted_flux"] - out["t_row_sum"]))
    return 0


# ---------------------------------------------------------------------------
# API outputs


def check_wide(job, result, checks: Checks) -> int:
    """Check one wide-strip sweep; return the number of failed points."""
    from workloads import ETA_SWEEP, WIDE_WIDTH

    recs = result.records
    checks.count("dropped_points", [r.e for r in recs] != [float(e) for e in job.args["energies"]])
    failed = 0
    for r in recs:
        if not r.ok:
            failed += 1
            continue
        _transport_row(checks, r.t_trace, r.t_channel_sum, r.discrepancy, r.n_open_l, r.n_open_r)
        lam = strip_lambdas(r.e, WIDE_WIDTH, ETA_SWEEP)
        n_ref = int(np.sum(lam < -tau_open(ETA_SWEEP)))
        checks.count("n_open_mismatch", (r.n_open_l != n_ref) + (r.n_open_r != n_ref))
        for side in (r.lambdas_l, r.lambdas_r):
            checks.gauge("lambda_closed_form", np.abs(np.asarray(side) - lam).max())
    return failed


def check_peaks(job, report, checks: Checks) -> None:
    """One peak per eta at the gap centre, 1/eta height scaling, no flux."""
    eps = job.args["eps"]
    for eta in job.args["etas"]:
        mine = [p for p in report.peaks if p.eta == eta]
        checks.count("peak_count_wrong", len(mine) != 1)
        for p in mine:
            checks.gauge("peak_offset_over_eta", abs(p.energy - eps) / eta)
            checks.gauge("peak_transmission", abs(p.transmission))
    checks.count("peak_count_wrong", len(report.scaling_check) != len(job.args["etas"]) - 1)
    for s in report.scaling_check:
        checks.gauge("peak_ratio", abs(s["height_ratio"] / s["eta_ratio"] - 1.0))
