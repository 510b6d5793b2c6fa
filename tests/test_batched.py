"""Stacked sweeps against the per-point path they replace.

The reference here is the loop ``sweep`` used to run: one ``solve_point`` per
(E, k) point.  Batching changes no arithmetic, so records must agree to the
last bit, which ``repr`` of the records checks (floats repr round-trip).
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from embedchan import (
    EmbedchanError,
    PointRecord,
    build_lead_blocks,
    embed,
    parse_model_dict,
    solve_point,
    spectra,
    sweep,
)

from helpers import chain_lead, dimer_model, ladder_impurity_model


def reference_records(model, grid, eta, ks=(None,), tau_open=None):
    """Records from one solve_point per point, energy-major."""
    out = []
    for e in grid:
        for k in ks:
            try:
                sol = solve_point(model, float(e), eta, k, tau_open)
            except EmbedchanError as exc:
                out.append(PointRecord(e=float(e), k=k, status=f"error: {exc}"))
                continue
            r = sol.result
            out.append(PointRecord(
                e=float(e), k=k, status="ok",
                lambdas_l=tuple(float(x) for x in sol.channels_l.lambdas),
                lambdas_r=tuple(float(x) for x in sol.channels_r.lambdas),
                n_open_l=sol.channels_l.n_open, n_open_r=sol.channels_r.n_open,
                t_trace=r.total_trace, t_channel_sum=r.total_channel_sum,
                discrepancy=r.discrepancy,
            ))
    return out


def assert_same_records(model, grid, eta, ks=None, tau_open=None):
    res = sweep(model, grid, eta=eta, k_list=ks, tau_open=tau_open)
    ref = reference_records(model, grid, eta, res.k_list, tau_open)
    assert repr(res.records) == repr(tuple(ref))
    return res


def _cm(m):
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _herm(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


def _random_lead(rng, n):
    h01 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) * rng.integers(0, 2)
    return {"h00": _cm(_herm(rng, n)), "h01": _cm(h01)}


def _device(rng, nl, nr, extra, isolated=None):
    """Random device whose first nl sites touch the left lead and last nr the
    right one; ``isolated`` appends an uncoupled site at that energy."""
    n = nl + nr + extra
    h = _herm(rng, n)
    cl, cr = np.zeros((nl, n)), np.zeros((nr, n))
    cl[:, :nl] = np.diag(rng.uniform(0.5, 1.5, nl))
    cr[:, n - nr:] = np.diag(rng.uniform(0.5, 1.5, nr))
    if isolated is not None:
        h = np.pad(h, ((0, 1), (0, 1)))
        h[n, n] = isolated
        cl, cr = np.pad(cl, ((0, 0), (0, 1))), np.pad(cr, ((0, 0), (0, 1)))
    return {"h": _cm(h), "coupling_left": _cm(cl), "coupling_right": _cm(cr)}


def _random_model(rng, same_leads):
    nl = int(rng.integers(1, 5))
    nr = nl if same_leads else int(rng.integers(1, 5))
    lead_l = _random_lead(rng, nl)
    lead_r = lead_l if same_leads else _random_lead(rng, nr)
    return parse_model_dict({"lead_left": lead_l, "lead_right": lead_r,
                             "device": _device(rng, nl, nr, int(rng.integers(0, 3)))})


# ---------------------------------------------------------------------------
# records equal the per-point loop


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1),
       case=st.sampled_from(["same", "different", "strip", "singular"]),
       eta=st.sampled_from([1e-6, 1e-8]),
       tau_open=st.sampled_from([None, 1e-3]))
def test_sweep_records_equal_per_point_loop(seed, case, eta, tau_open):
    rng = np.random.default_rng(seed)
    grid = sorted(set(np.round(rng.uniform(-4.0, 4.0, int(rng.integers(5, 25))), 6)))
    ks = None
    if case in ("same", "different"):
        model = _random_model(rng, same_leads=case == "same")
    elif case == "strip":
        lead = {"preset": "square_strip",
                "params": {"t": float(rng.uniform(0.5, 1.5)), "width": 8, "periodic": True}}
        model = parse_model_dict({"lead_left": lead, "lead_right": lead,
                                  "device": _device(rng, 1, 1, 1)})
        ks = list(rng.uniform(-math.pi, math.pi, int(rng.integers(2, 6))))
    else:
        # an uncoupled device site inside both chain bands: the device solve
        # at that energy is singular (eta_dev = 0 while both leads are open)
        e_s = round(float(rng.uniform(-1.0, 1.0)), 6)
        model = parse_model_dict({
            "lead_left": chain_lead(t=float(rng.uniform(0.8, 1.5))),
            "lead_right": chain_lead(t=float(rng.uniform(0.8, 1.5))),
            "device": _device(rng, 1, 1, 1, isolated=e_s)})
        grid = sorted(set(grid) | {e_s})
    res = assert_same_records(model, grid, eta, ks, tau_open)
    if case == "singular":
        assert any(not r.ok for r in res.records)


def test_sweep_spanning_several_stacks_equals_per_point_loop():
    # width-64 strip leads: 16 points per lead stack, 4 per device stack
    w, n = 64, 128
    h = np.zeros((n, n))
    for c in range(2):
        for i in range(w - 1):
            a = c * w + i
            h[a, a + 1] = h[a + 1, a] = -1.0
    for i in range(w):
        h[i, w + i] = h[w + i, i] = -1.0
    h[np.diag_indices(n)] = np.random.default_rng(3).uniform(-0.5, 0.5, n)
    cl, cr = np.zeros((w, n)), np.zeros((w, n))
    cl[:, :w], cr[:, w:] = np.eye(w), np.eye(w)
    lead = {"preset": "square_strip", "params": {"t": 1.0, "width": w}}
    model = parse_model_dict({"lead_left": lead, "lead_right": lead,
                              "device": {"h": h.tolist(), "coupling_left": cl.tolist(),
                                         "coupling_right": cr.tolist()}})
    assert spectra._STACK_ENTRIES // w**2 < 20
    assert_same_records(model, np.linspace(-3.9, 3.9, 20), 1e-6)


@pytest.mark.parametrize("entries", [1, 4, 8, 50])
def test_small_stacks_equal_per_point_loop(monkeypatch, entries):
    # a ladder lead (n = 2) with a four-site device, cut into stacks of 1..12 points
    monkeypatch.setattr(spectra, "_STACK_ENTRIES", entries)
    assert_same_records(ladder_impurity_model(), np.linspace(-3.5, 3.5, 37), 1e-6)


def test_gate_failures_go_through_solve_point(monkeypatch):
    # points whose stacked gates fail are computed again point by point
    real = spectra._lead_stack
    calls = []

    def failing(h00, h01, z):
        sigma, im, w, ok = real(h00, h01, z)
        calls.append(len(z))
        return sigma, im, w, ok & (np.arange(len(z)) % 3 != 1)

    monkeypatch.setattr(spectra, "_lead_stack", failing)
    rerun = []
    point = spectra.solve_point
    monkeypatch.setattr(spectra, "solve_point",
                        lambda model, e, *a: rerun.append(e) or point(model, e, *a))
    grid = list(np.linspace(-3.0, 3.0, 12))
    assert_same_records(ladder_impurity_model(), grid, 1e-6)
    assert calls == [12]
    assert rerun[:4] == [grid[i] for i in (1, 4, 7, 10)]


def test_stacked_linalg_error_reruns_every_point(monkeypatch):
    # one singular slice fails a whole stacked solve: every point of the
    # stack then goes through the per-point path, here its fallback
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(embed, "_decimation_stack", singular)
    assert_same_records(ladder_impurity_model(), np.linspace(-3.0, 3.0, 7), 1e-6)


# ---------------------------------------------------------------------------
# stacked cores against a stack of one


def test_stacked_decimation_bitwise_equals_stack_of_one():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        h00 = np.stack([_herm(rng, n) for _ in range(24)])
        h01 = rng.normal(size=(24, n, n)) + 1j * rng.normal(size=(24, n, n))
        z = rng.uniform(-4.0, 4.0, 24) + 1j * rng.choice([1e-10, 1e-8, 1e-6], 24)
        g = embed._decimation_stack(h00, h01, embed._zeye(z, n), 200)
        for i in range(24):
            one = embed._decimation(h00[i], h01[i], z[i], 200)
            assert g[i].tobytes() == one.tobytes()


def test_stacked_decimation_keeps_each_point_doubling_count(monkeypatch):
    # each point does exactly the doublings it does alone
    real_solve = np.linalg.solve
    sizes = []

    def counting(a, b):
        sizes.append(len(a))
        return real_solve(a, b)

    blocks = build_lead_blocks(dimer_model(0.5, 1.5).lead_l)
    z = np.array([0.003 + 1e-7j, 0.3 + 1e-7j, 1.5 + 1e-7j, 3.0 + 1e-7j])
    monkeypatch.setattr(embed.np.linalg, "solve", counting)
    alone = []
    for zi in z:
        sizes.clear()
        embed._decimation(blocks.h00, blocks.h01, zi, 200)
        alone.append(len(sizes))
    sizes.clear()
    shape = (len(z), 2, 2)
    embed._decimation_stack(np.broadcast_to(blocks.h00, shape),
                            np.broadcast_to(blocks.h01, shape), embed._zeye(z, 2), 200)
    assert len(set(alone)) > 1
    assert sizes == [sum(c > i for c in alone) for i in range(max(alone))]


def test_peak_scan_bitwise_equals_max_lambda_at():
    model = dimer_model(0.5, 1.5)
    grid = tuple(float(e) for e in np.linspace(-0.5, 0.5, 201) + 1.3e-4)
    vals = spectra._max_lambdas(model, grid, 1e-7, None)
    ref = [spectra._max_lambda_at(model, e, 1e-7, None) for e in grid]
    assert vals.tolist() == ref


# ---------------------------------------------------------------------------
# momentum sums do not skip failed points


def test_k_summed_totals_nan_where_a_k_point_failed():
    # the uncoupled device site at E = 1 is singular only at k = pi, where
    # both leads are open (band 0..4); at k = 0 (band -4..0) the lead eta
    # keeps the device solve regular
    lead = {"preset": "square_strip", "params": {"t": 1.0, "width": 2, "periodic": True}}
    model = parse_model_dict({
        "lead_left": lead, "lead_right": lead,
        "device": {"h": [[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                   "coupling_left": [[1.0, 0.0, 0.0]], "coupling_right": [[0.0, 1.0, 0.0]]},
    })
    res = assert_same_records(model, [0.5, 1.0, 1.5], 1e-8, [0.0, math.pi])
    assert [r.ok for r in res.records] == [True, True, True, False, True, True]
    for i in (0, 2):
        pair = res.records[2 * i:2 * i + 2]
        assert res.k_summed_trace[i] == sum(r.t_trace for r in pair)
        assert res.k_summed_channel[i] == sum(r.t_channel_sum for r in pair)
    assert math.isnan(res.k_summed_trace[1]) and math.isnan(res.k_summed_channel[1])
