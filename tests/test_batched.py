"""Stacked sweeps and peak searches against the per-point chain they replace.

The reference here is the chain ``solve_point`` used to run: the public
per-point functions ``embedding_potential`` per lead, the NSD guard of
``anti_hermitian_part`` and ``device_green``, then the per-point channel and
transmission tail kept below as it was before the tail was stacked (a
column loop fixing each eigenvector's phase, the open mask, the t-matrix,
both totals and the record of one point).  The stacked pipeline changes no
arithmetic, so records must agree to the last bit, which ``repr`` of the
records checks (floats repr round-trip), and so must every array of a
``PointSolution``.
"""

import collections
import dataclasses
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from embedchan import (
    ChannelBasis,
    DecimationError,
    EmbedchanError,
    HamiltonianBlocks,
    LatticeSpec,
    PointRecord,
    SingularSolveError,
    TransmissionResult,
    anti_hermitian_part,
    build_lead_blocks,
    default_tau_open,
    device_green,
    embed,
    embedding_potential,
    parse_model_dict,
    solve_point,
    spectra,
    sweep,
    transport,
)
from embedchan.embed import EmbeddingPotential
from embedchan.model import lead_blocks

from helpers import chain_lead, dimer_model, ladder_impurity_model, strip_model


def reference_fix_phase(vectors):
    """Each column rotated so its largest-magnitude component is real positive."""
    out = np.array(vectors, dtype=complex)
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        a = col[i]
        if abs(a) > 0.0:
            out[:, j] = col * (a.conjugate() / abs(a))
            out[i, j] = abs(out[i, j])
    return out


def reference_channels(im, tau_open):
    """The channel basis of one ImSigma: its own eigh, phase fix and open mask."""
    (lam,), (vecs,) = np.linalg.eigh(im.matrix[None])
    tau_open = float(default_tau_open(im.eta) if tau_open is None else tau_open)
    vecs = reference_fix_phase(vecs)
    open_mask = lam < -tau_open
    lam_open = lam[open_mask]
    u = vecs[:, open_mask] / np.sqrt(2.0 * np.abs(lam_open))[None, :] if lam_open.size else (
        np.zeros((lam.shape[0], 0), dtype=complex))
    return ChannelBasis(lam, vecs, open_mask, u, im.energy, im.eta, im.side, im.k, tau_open)


def reference_transmission(gdev, im_l, im_r, ch_l, ch_r):
    """The t-matrix and both totals of one point."""
    ul, ur = ch_l.vectors_unit_flux, ch_r.vectors_unit_flux
    core = ur.conj().T @ gdev.g_rl @ ul
    t = 4j * (ch_l.open_lambdas[:, None] * ch_r.open_lambdas[None, :]) * core.T
    t_sq = np.abs(t) ** 2
    total_sum = float(t_sq.sum())
    g_rl = gdev.g_rl
    total_trace = float(np.real(4.0 * np.trace(im_l.matrix @ g_rl.conj().T @ im_r.matrix @ g_rl)))
    return TransmissionResult(t, t_sq, total_sum, total_trace, abs(total_sum - total_trace),
                              gdev.energy, gdev.eta, ch_l.n_open, ch_r.n_open)


def reference_record(e, k, ch_l, ch_r, r):
    return PointRecord(e=e, k=k, status="ok", lambdas_l=tuple(ch_l.lambdas.tolist()),
                       lambdas_r=tuple(ch_r.lambdas.tolist()), n_open_l=ch_l.n_open,
                       n_open_r=ch_r.n_open, t_trace=r.total_trace,
                       t_channel_sum=r.total_channel_sum, discrepancy=r.discrepancy)


def reference_point(model, e, eta, k=None, tau_open=None):
    """The per-point chain solve_point used to run."""
    blocks_l, blocks_r = lead_blocks(model.lead_l, k), lead_blocks(model.lead_r, k)
    same = spectra._same_blocks(blocks_l, blocks_r)
    sig_l = embedding_potential(blocks_l, e, eta, side="left")
    sig_r = (replace(sig_l, side="right") if same
             else embedding_potential(blocks_r, e, eta, side="right"))
    im_l = anti_hermitian_part(sig_l)
    im_r = replace(im_l, side="right") if same else anti_hermitian_part(sig_r)
    ch_l = reference_channels(im_l, tau_open)
    ch_r = replace(ch_l, side="right") if same else reference_channels(im_r, tau_open)
    gdev = device_green(model.device, sig_l, sig_r, e,
                        0.0 if ch_l.n_open and ch_r.n_open else eta)
    res = reference_transmission(gdev, im_l, im_r, ch_l, ch_r)
    return spectra.PointSolution(sig_l, sig_r, im_l, im_r, ch_l, ch_r, res, gdev)


def max_lambda_at(model, e, eta, k):
    """The left lead's part of reference_point, then the largest |lambda|."""
    im = anti_hermitian_part(embedding_potential(lead_blocks(model.lead_l, k), e, eta))
    return float(np.abs(np.linalg.eigvalsh(im.matrix)).max())


def reference_records(model, grid, eta, ks=(None,), tau_open=None):
    """Records from one reference_point per point, energy-major."""
    out = []
    for e in grid:
        for k in ks:
            try:
                sol = reference_point(model, float(e), eta, k, tau_open)
            except EmbedchanError as exc:
                out.append(PointRecord(e=float(e), k=k, status=f"error: {exc}"))
                continue
            out.append(reference_record(float(e), k, sol.channels_l, sol.channels_r, sol.result))
    return out


def assert_same_records(model, grid, eta, ks=None, tau_open=None):
    res = sweep(model, grid, eta=eta, k_list=ks, tau_open=tau_open)
    ref = reference_records(model, grid, eta, res.k_list, tau_open)
    assert repr(res.records) == repr(tuple(ref))
    return res


def _bits(x):
    """Every field of a (nested) result, arrays as dtype, shape, strides and bytes."""
    if dataclasses.is_dataclass(x):
        return tuple((f.name, _bits(getattr(x, f.name))) for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):  # the layout fixes the bits of products taken later
        return x.dtype.str, x.shape, x.strides if x.size else None, x.tobytes()
    return repr(x)


def assert_same_solution(model, e, eta, k=None, tau_open=None):
    """solve_point has the reference's bits in every array, or its error text."""
    try:
        ref = reference_point(model, e, eta, k, tau_open)
    except EmbedchanError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            solve_point(model, e, eta, k, tau_open)
        return None
    assert _bits(solve_point(model, e, eta, k, tau_open)) == _bits(ref)
    return ref


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
    for e in grid[::4]:
        assert_same_solution(model, e, eta, ks and ks[0], tau_open)


def _strip64_model(rng, t_l=1.0, t_r=1.0):
    """Width-64 strip leads (hoppings t_l, t_r) on a disordered two-column
    device: 16 points per lead stack, 4 per device stack."""
    w, n = 64, 128
    h = np.zeros((n, n))
    for c in range(2):
        for i in range(w - 1):
            a = c * w + i
            h[a, a + 1] = h[a + 1, a] = -1.0
    for i in range(w):
        h[i, w + i] = h[w + i, i] = -1.0
    h[np.diag_indices(n)] = rng.uniform(-0.5, 0.5, n)
    cl, cr = np.zeros((w, n)), np.zeros((w, n))
    cl[:, :w], cr[:, w:] = np.eye(w), np.eye(w)
    lead_l, lead_r = ({"preset": "square_strip", "params": {"t": t, "width": w}}
                      for t in (t_l, t_r))
    assert spectra._STACK_ENTRIES // w**2 < 20
    return parse_model_dict({"lead_left": lead_l, "lead_right": lead_r,
                             "device": {"h": h.tolist(), "coupling_left": cl.tolist(),
                                        "coupling_right": cr.tolist()}})


def test_sweep_spanning_several_stacks_equals_per_point_loop():
    model = _strip64_model(np.random.default_rng(3))
    assert_same_records(model, np.linspace(-3.9, 3.9, 20), 1e-6)
    for e in (-3.9, 0.3, 2.1):
        assert_same_solution(model, e, 1e-6)


def _banded_lead(rng, n, centre):
    """n chains seen in a random unitary frame: chain i has on-site energy
    within 0.75 of ``centre`` and a complex hopping of modulus 1.4 to 1.8,
    so each of its n bands covers centre +- 2.05 and lies within
    centre +- 4.35."""
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    eps = centre + rng.uniform(-0.75, 0.75, n)
    t = rng.uniform(1.4, 1.8, n) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    return {"h00": _cm((q * eps) @ q.conj().T), "h01": _cm((q * t) @ q.conj().T)}


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(["banded"] * 4 + ["strip64"]),
       eta=st.sampled_from([1e-6, 1e-8]), tau_open=st.sampled_from([None, 1e-3]))
def test_tail_stacks_mixed_open_counts_as_per_point(seed, case, eta, tau_open):
    # one stack whose points have different (n_open_l, n_open_r): the left
    # bands cover [-3.8, 0.3] and lie within [-6.1, 2.6], the right ones
    # mirror them, so E = -3.2, 0 and 3.2 have (n_l, 0), (n_l, n_r) and
    # (0, n_r) open channels; points sharing n_open_l differ in n_open_r
    rng = np.random.default_rng(seed)
    if case == "strip64":
        model = _strip64_model(rng, *rng.uniform(0.6, 1.4, 2))
        grid = sorted(set(np.round(rng.uniform(-6.0, 6.0, 10), 6)))
        points = grid[:2]
    else:
        nl, nr = (int(n) for n in rng.integers(1, 5, 2))
        model = parse_model_dict({"lead_left": _banded_lead(rng, nl, -1.75),
                                  "lead_right": _banded_lead(rng, nr, 1.75),
                                  "device": _device(rng, nl, nr, int(rng.integers(0, 3)))})
        grid = sorted(set(np.round(rng.uniform(-7.0, 7.0, int(rng.integers(12, 30))), 6))
                      | {-3.2, 0.0, 3.2})
        points = [-3.2, 0.0, 3.2, float(rng.choice(grid))]
    res = assert_same_records(model, grid, eta, None, tau_open)
    if case == "banded":
        counts = {(r.n_open_l, r.n_open_r) for r in res.records if r.ok}
        assert {(nl, 0), (nl, nr), (0, nr)} <= counts
    for e in points:
        assert_same_solution(model, e, eta, None, tau_open)


@pytest.mark.parametrize("entries", [1, 4, 8, 50])
def test_small_stacks_equal_per_point_loop(monkeypatch, entries):
    # a ladder lead (n = 2) with a four-site device, cut into stacks of 1..12 points
    monkeypatch.setattr(spectra, "_STACK_ENTRIES", entries)
    assert_same_records(ladder_impurity_model(), np.linspace(-3.5, 3.5, 37), 1e-6)


def _patch_core(monkeypatch, inject):
    """Wrap the lead core up to the Sigma identity, which both the stacked
    core and the per-point functions call: ``inject(h01, z)`` gives per
    point a (stage, error) to put into the core's error output, or None to
    keep the point's own."""
    real = embed._lead_sigma

    def core(h00, h01, z, modes):
        g, sigma, errors = real(h00, h01, z, modes)
        return g, sigma, [x or err for x, err in zip(inject(h01, z), errors)]

    monkeypatch.setattr(embed, "_lead_sigma", core)


def test_gate_failures_recorded_with_the_core_error(monkeypatch):
    # a point failing a gate of the lead core keeps the core's error as its
    # status; the other points of the one stack are computed as before
    grid = list(np.linspace(-3.0, 3.0, 12))
    model = ladder_impurity_model()
    ref = reference_records(model, grid, 1e-6)
    calls = []

    def inject(h01, z):
        calls.append(len(z))
        return [(embed._FIXED_POINT, DecimationError(f"injected at {float(p.real)!r}"))
                if i % 3 == 1 else None for i, p in enumerate(z)]

    _patch_core(monkeypatch, inject)
    res = sweep(model, grid, eta=1e-6)
    assert calls == [12]
    for i, (rec, want) in enumerate(zip(res.records, ref)):
        if i % 3 == 1:
            assert rec == PointRecord(e=want.e, k=None, status=f"error: injected at {want.e!r}")
        else:
            assert repr(rec) == repr(want)


def _two_chains_singular():
    """Different chain leads and a device site uncoupled at e_s = 0.3, where
    both leads are open: the device solve there is singular."""
    rng = np.random.default_rng(8)
    model = parse_model_dict({"lead_left": chain_lead(t=1.0), "lead_right": chain_lead(t=1.3),
                              "device": _device(rng, 1, 1, 1, isolated=0.3)})
    return model, 0.3


@pytest.mark.parametrize("left, right, first", [
    (embed._NSD_GUARD, embed._FIXED_POINT, "right"),  # embeddings before NSD guards
    (embed._FIXED_POINT, embed._SIGMA_IDENTITY, "left"),
    (embed._SIGMA_IDENTITY, embed._NSD_GUARD, "left"),
    (embed._NSD_GUARD, embed._NSD_GUARD, "left"),
    (None, embed._NSD_GUARD, "right"),
    (None, None, "device"),  # the device error only when both leads pass
])
def test_error_order_at_one_point(monkeypatch, left, right, first):
    model, e_s = _two_chains_singular()
    h01_l = build_lead_blocks(model.lead_l).h01
    stages = {"left": left, "right": right}

    def inject(h01, z):
        side = "left" if np.array_equal(h01[0], h01_l) else "right"
        stage = stages[side]
        return [(stage, DecimationError(f"{side} stage {stage}"))
                if stage is not None and p.real == e_s else None for p in z]

    _patch_core(monkeypatch, inject)
    with pytest.raises(EmbedchanError) as info:
        solve_point(model, e_s, 1e-8)
    if first == "device":
        assert isinstance(info.value, SingularSolveError)
        assert str(info.value).startswith("singular device solve at E=0.3")
    else:
        assert str(info.value) == f"{first} stage {stages[first]}"
    records = sweep(model, [e_s - 0.1, e_s, e_s + 0.1], eta=1e-8).records
    assert [r.status for r in records] == ["ok", f"error: {info.value}", "ok"]


def test_stacked_linalg_error_reruns_every_point(monkeypatch):
    # one singular slice fails a whole stacked solve: every point of the
    # stack is then doubled alone, here failing again, so each gets the
    # core's fallback
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(embed, "_decimation_stack", singular)
    assert_same_records(ladder_impurity_model(), np.linspace(-3.0, 3.0, 7), 1e-6)


def test_stacked_linalg_error_doubles_each_point_alone(monkeypatch):
    # a stacked doubling that raises is run again point by point, and a point
    # that doubles alone needs no fallback: the records stay the reference's
    real, sizes = embed._decimation_stack, []

    def stacked_fails(h00, *args):
        sizes.append(len(h00))
        if len(h00) > 2:  # the mode route stacks the two chains of a point
            raise np.linalg.LinAlgError("Singular matrix")
        return real(h00, *args)

    model, grid = ladder_impurity_model(), np.linspace(-3.0, 3.0, 7)
    ref = reference_records(model, grid, 1e-6)
    monkeypatch.setattr(embed, "_decimation_stack", stacked_fails)
    monkeypatch.setattr(embed, "_mode_matching", lambda *a: pytest.fail("fallback ran"))
    assert repr(sweep(model, grid, eta=1e-6).records) == repr(tuple(ref))
    assert sizes == [14] + [2] * 7


# ---------------------------------------------------------------------------
# the device core: every point as device_green gives it alone


def _count_device_solves(monkeypatch) -> list:
    """Record the stack size of every ``transport._device_solve`` call."""
    real, sizes = transport._device_solve, []
    monkeypatch.setattr(transport, "_device_solve", lambda a: sizes.append(len(a)) or real(a))
    return sizes


def _device_core_at(model, grid, sig_r=None):
    """Both leads' Sigma at each energy (the right ones replaced by ``sig_r``
    when given) and the device core on their stack at E + 0i."""
    sig_l, sig_r_own = ([embedding_potential(lead_blocks(spec, None), e, 1e-8) for e in grid]
                        for spec in (model.lead_l, model.lead_r))
    sig_r = sig_r or sig_r_own
    out = transport._device_stack(model.device, np.array([s.sigma for s in sig_l]),
                                  np.array([s.sigma for s in sig_r]),
                                  np.array(grid, dtype=complex))
    return sig_l, sig_r, out


def _assert_as_alone(model, grid, sig_l, sig_r, out):
    """Each point of a device core stack has the bits, or the error text and
    cond, of ``device_green`` at that point alone."""
    for i, (e, g, g_rl, error) in enumerate(zip(grid, *out)):
        try:
            alone = device_green(model.device, sig_l[i], sig_r[i], e, 0.0)
        except SingularSolveError as exc:
            assert (str(error), repr(error.cond)) == (str(exc), repr(exc.cond))
            continue
        assert error is None
        assert (g.tobytes(), g_rl.tobytes()) == (alone.g.tobytes(), alone.g_rl.tobytes())


def test_device_core_reruns_a_singular_stack_point_by_point(monkeypatch):
    # LAPACK raises for the whole stack at the singular point e_s: each point
    # is then solved alone, and only e_s fails, with device_green's text
    model, e_s = _two_chains_singular()
    grid = [e_s - 0.2, e_s, e_s + 0.2, e_s + 0.4]
    sizes = _count_device_solves(monkeypatch)
    sig_l, sig_r, out = _device_core_at(model, grid)
    assert sizes == [4, 1, 1, 1, 1]
    assert [err is None for err in out[2]] == [True, False, True, True]
    assert str(out[2][1]).startswith("singular device solve at E=0.3, eta=0 (cond ~ ")
    _assert_as_alone(model, grid, sig_l, sig_r, out)


def test_device_core_gate_failure_is_solved_once(monkeypatch):
    # a NaN self-energy passes LAPACK and fails the identity gate: the point
    # gets device_green's text without a second solve
    model, _ = _two_chains_singular()
    grid = [-0.5, 0.0, 0.5]
    bad = [None, EmbeddingPotential(np.array([[np.nan]], complex), 0.0, 1e-8), None]
    sig_r = [b or embedding_potential(lead_blocks(model.lead_r, None), e, 1e-8)
             for b, e in zip(bad, grid)]
    sizes = _count_device_solves(monkeypatch)
    sig_l, sig_r, out = _device_core_at(model, grid, sig_r)
    assert sizes == [3]
    assert [err is None for err in out[2]] == [True, False, True]
    assert str(out[2][1]).startswith("device Green identity residual nan at E=0 (cond ~ nan)")
    _assert_as_alone(model, grid, sig_l, sig_r, out)


def test_one_device_solve_per_point_and_per_sweep_stack(monkeypatch):
    # solve_point is a stack of one; a sweep with a singular point solves
    # its one stack, then each point alone, and no point a further time
    model, e_s = _two_chains_singular()
    sizes = _count_device_solves(monkeypatch)
    solve_point(model, e_s + 0.1, 1e-8)
    assert sizes == [1]
    sizes.clear()
    sweep(model, [e_s - 0.1, e_s, e_s + 0.1], eta=1e-8)
    assert sizes == [3, 1, 1, 1]
    sizes.clear()
    sweep(model, [e_s - 0.1, e_s + 0.1, e_s + 0.2], eta=1e-8)
    assert sizes == [3]


def test_one_diagonalization_per_sweep_stack(monkeypatch):
    # identical leads, one stack, every point through the stack: its one
    # eigh is both the NSD guard and the channel basis.  The t_diag = 0
    # ladder lead takes the transverse-mode route, whose eigh of h00 runs
    # once for the lead at its one k, before the stack
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, _real=real, _name=name:
                            calls.append((_name, a.shape)) or _real(a, *args))
    res = sweep(ladder_impurity_model(), np.linspace(-3.0, 3.0, 12), eta=1e-6)
    assert all(r.ok for r in res.records)
    assert calls == [("eigh", (1, 2, 2)), ("eigh", (12, 2, 2))]


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
            one = embed._decimation_stack(h00[i:i + 1], h01[i:i + 1],
                                          embed._zeye(z[i:i + 1], n), 200)
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
        embed._decimation_stack(blocks.h00[None], blocks.h01[None],
                                embed._zeye(np.array([zi]), 2), 200)
        alone.append(len(sizes))
    sizes.clear()
    shape = (len(z), 2, 2)
    embed._decimation_stack(np.broadcast_to(blocks.h00, shape),
                            np.broadcast_to(blocks.h01, shape), embed._zeye(z, 2), 200)
    assert len(set(alone)) > 1
    assert sizes == [sum(c > i for c in alone) for i in range(max(alone))]


def test_peak_scan_bitwise_equals_max_lambda_at():
    # one stack mixing three etas, as the peak refinement sends it
    model = dimer_model(0.5, 1.5)
    grid = np.linspace(-0.5, 0.5, 201) + 1.3e-4
    points = [(float(e), (1e-7, 1e-6, 1e-9)[i % 3]) for i, e in enumerate(grid)]
    blocks = build_lead_blocks(model.lead_l)
    h00, h01 = blocks.h00[None], blocks.h01[None]
    vals = spectra._max_lambdas(h00, h01, embed._transverse_modes(h00, h01), points)
    assert vals == [max_lambda_at(model, e, eta, None) for e, eta in points]


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


# ---------------------------------------------------------------------------
# detect_peaks against the serial searches it replaces
#
# The reference is the loop detect_peaks used to run: every value one
# max_lambda_at call, the zoom grids, golden section and bisections point by
# point, and reference_point at each peak.  Stacking, the per-call memo and the bisection trees change no
# arithmetic, so the reports must agree to the last bit.


def _serial_golden_max(f, a, b, tol):
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


def _serial_refine_max(f, a, b, tol):
    while (b - a) > 64.0 * tol:
        xs = np.linspace(a, b, 17)
        ys = [f(x) for x in xs]
        i = int(np.argmax(ys))
        a = xs[max(0, i - 1)]
        b = xs[min(len(xs) - 1, i + 1)]
    return _serial_golden_max(f, a, b, tol)


def _serial_half_width(f, e_peak, height, span):
    def cross(sign):
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


def serial_detect_peaks(model, e_grid, eta_list, k=None):
    """detect_peaks on valid input, one max_lambda_at call per value read."""
    etas = sorted(float(x) for x in eta_list)
    grid = tuple(float(e) for e in e_grid)
    eta0 = etas[0]
    vals = np.array([max_lambda_at(model, e, eta0, k) for e in grid])
    candidates = []
    for i in range(1, len(grid) - 1):
        if not (vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]):
            continue
        lo, hi = max(0, i - 25), min(len(grid), i + 26)
        neighborhood = np.concatenate([vals[lo:max(lo, i - 2)], vals[min(hi, i + 3):hi]])
        background = float(np.median(neighborhood)) if neighborhood.size else 0.0
        if vals[i] > 10.0 * max(background, embed.TAU_PSD):
            candidates.append(i)
    peaks, scaling = [], []
    for i in candidates:
        a, b = grid[max(0, i - 1)], grid[min(len(grid) - 1, i + 1)]
        heights, centers = {}, {}
        for eta in etas:
            f = lambda e, _eta=eta: max_lambda_at(model, e, _eta, k)
            e_peak = _serial_refine_max(f, a, b, tol=max(1e-13, eta0 / 100.0))
            h = f(e_peak)
            heights[eta], centers[eta] = h, e_peak
            width = _serial_half_width(f, e_peak, h, max(10.0 * eta, (b - a) / 2.0))
            try:
                t_at_peak = reference_point(model, e_peak, eta, k).result.total_trace
            except EmbedchanError:
                t_at_peak = math.nan
            peaks.append(spectra.Peak(energy=float(e_peak), height=float(h),
                                      width=float(width), eta=float(eta),
                                      transmission=float(t_at_peak)))
        for small, large in zip(etas, etas[1:]):
            scaling.append({"energy": float(centers[small]), "eta_small": small,
                            "eta_large": large,
                            "height_ratio": heights[small] / heights[large],
                            "eta_ratio": large / small})
    return spectra.PeakReport(peaks=tuple(peaks), scaling_check=tuple(scaling),
                              etas=tuple(etas))


def _weak_dimer(t1, eps, right=None):
    """Weak-terminated dimer chain (surface state at the gap centre eps); a
    periodic-strip right lead makes the model need a k."""
    lead = {"preset": "dimer_chain", "params": {"t1": t1, "t2": 1.0, "eps": eps}}
    c_r = [[0.0, 0.0], [0.0, 1.0]] if right is None else [[0.0, 1.0]]
    return parse_model_dict({"lead_left": lead, "lead_right": right or lead,
                             "device": {"h": [[eps, -t1], [-t1, eps]],
                                        "coupling_left": [[0.0, 0.0], [1.0, 0.0]],
                                        "coupling_right": c_r}})


_PERIODIC = {"preset": "square_strip", "params": {"t": 1.0, "width": 4, "periodic": True}}


def _gap_grid(eps, offset, n=101):
    return eps + offset * (1.0 / (n - 1)) + np.linspace(-0.5, 0.5, n)


def assert_same_report(model, grid, etas, k=None):
    report = spectra.detect_peaks(model, grid, etas, k)
    assert repr(report) == repr(serial_detect_peaks(model, grid, etas, k))
    return report


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(t1=st.floats(0.3, 0.7), eps=st.floats(-0.05, 0.05), offset=st.floats(-0.5, 0.5),
       etas=st.sampled_from([(1e-7, 1e-6), (1e-6, 1e-8), (1e-7, 1e-6, 1e-5)]),
       case=st.sampled_from(["plain", "k", "periodic left"]))
def test_detect_peaks_equals_serial_searches(t1, eps, offset, etas, case):
    k = None if case == "plain" else 0.7
    if case == "periodic left":  # a gapless lead: no peak, the scan at k only
        model = parse_model_dict({"lead_left": _PERIODIC, "lead_right": _PERIODIC,
                                  "device": {"h": [[eps]], "coupling_left": [[1.0]],
                                             "coupling_right": [[1.0]]}})
        assert_same_report(model, _gap_grid(eps, offset, 41), etas, k)
        return
    model = _weak_dimer(t1, eps, _PERIODIC if case == "k" else None)
    report = assert_same_report(model, _gap_grid(eps, offset), etas, k)
    assert len(report.peaks) == len(etas)


def test_detect_peaks_reads_no_value_point_by_point(monkeypatch):
    # every value comes from the one lead-core stack of a fetch, never from
    # a core call per value read (solve_point at each peak asks for vectors)
    model, grid, etas = _weak_dimer(0.5, 0.01), _gap_grid(0.01, 0.3), [1e-7, 1e-6]
    ref = serial_detect_peaks(model, grid, etas)
    fetched, stacks, reads = [], [], []
    real, values, read = spectra._lead_stack, spectra._max_lambdas, spectra._LeadValues.read

    def core(h00, h01, z, vectors, modes):
        if not vectors:
            stacks.append(len(z))
        return real(h00, h01, z, vectors, modes)

    monkeypatch.setattr(spectra, "_lead_stack", core)
    monkeypatch.setattr(spectra, "_max_lambdas", lambda h00, h01, modes, points: (
        fetched.append(len(points)) or values(h00, h01, modes, points)))
    monkeypatch.setattr(spectra._LeadValues, "read",
                        lambda self, e, eta: reads.append(e) or read(self, e, eta))
    assert repr(spectra.detect_peaks(model, grid, etas)) == repr(ref)
    assert stacks == fetched and len(reads) > 5 * len(stacks)


def test_back_to_back_calls_share_no_state():
    # same grid and etas, different leads: a value kept from the last call
    # would be read in place of the new model's
    grid, etas = _gap_grid(0.01, 0.3), [1e-7, 1e-6]
    models = [_weak_dimer(0.5, 0.01), _weak_dimer(0.4, 0.01)]
    refs = [repr(serial_detect_peaks(model, grid, etas)) for model in models]
    assert refs[0] != refs[1]
    for i in (0, 1, 0):
        assert repr(spectra.detect_peaks(models[i], grid, etas)) == refs[i]


def _fail_at(monkeypatch, points, error=DecimationError):
    """Put ``error``, naming the point, into the lead core's error output at
    ``points`` (pairs (e, eta)), as the failure of its fixed-point gate."""
    bad = {complex(e, eta) for e, eta in points}
    _patch_core(monkeypatch, lambda h01, z: [
        (embed._FIXED_POINT, error(f"injected at {float(p.real)!r}, {float(p.imag)!r}"))
        if p in bad else None for p in z])


def _requested_and_read(model, grid, etas):
    asked, read = [], []
    fetch, get = spectra._LeadValues.fetch, spectra._LeadValues.read
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra._LeadValues, "fetch",
                   lambda self, points: asked.extend(points) or fetch(self, points))
        mp.setattr(spectra._LeadValues, "read",
                   lambda self, e, eta: read.append((e, eta)) or get(self, e, eta))
        spectra.detect_peaks(model, grid, etas)
    return asked, read


def test_unread_tree_node_failure_never_raises(monkeypatch):
    model, grid, etas = _weak_dimer(0.5, 0.01), _gap_grid(0.01, 0.3), [1e-7, 1e-6]
    ref = serial_detect_peaks(model, grid, etas)
    asked, read = _requested_and_read(model, grid, etas)
    read_keys = {complex(e, eta) for e, eta in read}
    unread = [p for p in asked if complex(*p) not in read_keys]
    assert unread  # bisection tree nodes off the serial path
    _fail_at(monkeypatch, [unread[len(unread) // 2]], embed.DecimationError)
    assert repr(spectra.detect_peaks(model, grid, etas)) == repr(ref)


def test_read_gate_failures_rescued_as_alone(monkeypatch):
    # the doubled g is NaN at every seventh value the scan reads away from
    # the peak: the fixed-point gate fails there and the mode-matching rescue
    # inside the core gives each of them the bits the point gets alone,
    # through the serial chain
    model, grid, etas = _weak_dimer(0.5, 0.01), _gap_grid(0.01, 0.3), [1e-7, 1e-6]
    _, read = _requested_and_read(model, grid, etas)
    bad = {complex(e, eta) for e, eta in read[:len(grid):7] if abs(e - 0.01) > 0.05}
    real, real_mm, rescued = embed._surface_green_stack, embed._mode_matching, []

    def doubled(h00, h01, zeye, *args):
        g = real(h00, h01, zeye, *args)
        g[np.isin(zeye[:, 0, 0], list(bad))] = np.nan
        return g

    monkeypatch.setattr(embed, "_surface_green_stack", doubled)
    monkeypatch.setattr(embed, "_mode_matching",
                        lambda h00, h01, z: rescued.append(z) or real_mm(h00, h01, z))
    ref = serial_detect_peaks(model, grid, etas)
    assert bad <= set(rescued)
    rescued.clear()
    assert repr(spectra.detect_peaks(model, grid, etas)) == repr(ref)
    assert bad <= set(rescued)


def test_first_error_in_serial_order_wins(monkeypatch):
    # the large eta's zoom fails in the first round of refinement, the small
    # eta's left half-width much later; a serial run meets the second first
    model, grid, etas = _weak_dimer(0.5, 0.01), _gap_grid(0.01, 0.3), [1e-7, 1e-6]
    p0 = spectra.detect_peaks(model, grid, etas).peaks[0]
    i = int(np.argmin(np.abs(grid - 0.01)))
    a, b = float(grid[i - 1]), float(grid[i + 1])
    early = (a, 1e-6)
    late = (p0.energy + -1.0 * max(10.0 * 1e-7, (b - a) / 2.0), 1e-7)
    _fail_at(monkeypatch, [early, late], embed.DecimationError)
    with pytest.raises(embed.DecimationError) as serial:
        serial_detect_peaks(model, grid, etas)
    with pytest.raises(embed.DecimationError) as stacked:
        spectra.detect_peaks(model, grid, etas)
    assert str(serial.value) == str(stacked.value) == f"injected at {late[0]!r}, 1e-07"


def test_together_raises_first_failure_in_order_and_drops_later_searches():
    advanced = []

    def search(name, rounds, fail):
        for r in range(rounds):
            advanced.append((name, r))
            yield [name]
        if fail:
            raise RuntimeError(name)
        return name

    gen = spectra._together([search("a", 5, False), search("b", 4, True),
                             search("c", 1, True), search("d", 9, False)])
    rounds = []
    with pytest.raises(RuntimeError, match="^b$"):
        while True:
            rounds.append(next(gen))
    assert rounds[0] == ["a", "b", "c", "d"]
    assert rounds[1:] == [["a", "b"]] * 3 + [["a"]]  # c fails in round 2: d is dropped
    assert ("d", 1) not in advanced



# ---------------------------------------------------------------------------
# transverse-mode route: a lead with h01 = t * 1 (n >= 2) is n independent
# chains, g = U diag(g_m) U^dag; the general decimation is the reference

# bound on |g_modes - g_general| / max(1, |g|) and on the same for Sigma, at
# points where both routes pass the fixed-point gate; the worst seen over
# 1440 random leads (n = 2, 5, 16, 40 energies each, eta 1e-6 and 1e-8) was
# 2.0e-9 for g and 1.4e-9 for Sigma
MODE_ROUTE_TOL = 1e-7


def _mode_lead(rng, n, hermitian, degenerate):
    """h00 = Q diag(eps) Q^dag, real symmetric or Hermitian (``degenerate``
    draws eps from three values), and h01 = t * 1 with a complex t."""
    eps = rng.choice(rng.uniform(-2.0, 2.0, 3), n) if degenerate else rng.uniform(-2.0, 2.0, n)
    a = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if hermitian else 0.0)
    q = np.linalg.qr(a)[0]
    h00 = (q * eps) @ q.conj().T
    h00 = (h00 + h00.conj().T) / 2.0
    t = rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return h00, t * np.eye(n)


def _modes_of(blocks):
    return embed._transverse_modes(blocks.h00[None], blocks.h01[None])


def test_transverse_modes_only_for_h01_exactly_t_times_one():
    near = -np.eye(3, dtype=complex)
    near[0, 2] = 5e-324  # no tolerance: one subnormal entry keeps the general route
    taken = [LatticeSpec("square_strip", {"width": 8}),
             LatticeSpec("ladder", {"t_perp": 0.5}),
             LatticeSpec("explicit", h00=np.diag([0.0, 1.0, 1.0]), h01=(0.3 - 0.4j) * np.eye(3)),
             LatticeSpec("explicit", h00=np.eye(2), h01=np.zeros((2, 2)))]
    kept = [LatticeSpec("chain"),
            LatticeSpec("square_strip", {"width": 8, "periodic": True}),
            LatticeSpec("dimer_chain"),
            LatticeSpec("ladder", {"t_diag": 0.2}),
            LatticeSpec("explicit", h00=np.zeros((3, 3)), h01=near),
            LatticeSpec("explicit", h00=np.zeros((2, 2)), h01=np.diag([-1.0, -1.0 + 1e-15]))]
    for spec, route in [(s, True) for s in taken] + [(s, False) for s in kept]:
        blocks = build_lead_blocks(spec, 0.3 if spec.requires_momentum else None)
        assert (_modes_of(blocks) is not None) == route, spec


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 16), hermitian=st.booleans(),
       degenerate=st.booleans(), eta=st.sampled_from([1e-6, 1e-8]))
def test_mode_route_matches_general_decimation(seed, n, hermitian, degenerate, eta):
    rng = np.random.default_rng(seed)
    h00, h01 = _mode_lead(rng, n, hermitian, degenerate)
    z = rng.uniform(-5.0, 5.0, 16) + 1j * eta
    shape = (len(z), n, n)
    h00, h01, zeye = np.broadcast_to(h00, shape), np.broadcast_to(h01, shape), embed._zeye(z, n)
    eps, u = embed._transverse_modes(h00[:1], h01[:1])
    modes = (np.broadcast_to(eps[0], (len(z), n)), np.broadcast_to(u[0], shape))
    out = []
    for m in (None, modes):
        g = embed._surface_green_stack(h00, h01, zeye, m, embed.MAX_DOUBLINGS)
        res, tol = embed._fixed_point_tol(g, embed._fixed_point_residual(g, h00, h01, zeye),
                                          embed.FIXED_POINT_TOL)
        out.append((g, embed._sigma(g, h00, h01, zeye)[0], res <= tol))
    (g0, s0, ok0), (g1, s1, ok1) = out
    both = ok0 & ok1
    assert both.any()
    for a, b in ((g0, g1), (s0, s1)):
        scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
        assert (np.abs(a - b).max(axis=(1, 2))[both] <= MODE_ROUTE_TOL * scale[both]).all()


def test_mode_route_stack_bitwise_equals_stack_of_one():
    # the lead core gives every point the same bits in a stack (sweeps, peak
    # scan) as alone (embedding_potential, modes computed for the one point)
    rng = np.random.default_rng(11)
    h00, h01 = _mode_lead(rng, 5, True, True)
    leads = [build_lead_blocks(LatticeSpec("square_strip", {"width": 8})),
             build_lead_blocks(LatticeSpec("ladder", {"t_perp": 0.7})),
             HamiltonianBlocks(h00=h00, h01=h01)]
    z = rng.uniform(-4.0, 4.0, 24) + 1j * rng.choice([1e-8, 1e-6], 24)
    for blocks in leads:
        shape = (len(z), blocks.n, blocks.n)
        modes = _modes_of(blocks)
        assert modes is not None
        lead = embed._lead_stack(
            np.broadcast_to(blocks.h00, shape), np.broadcast_to(blocks.h01, shape), z, False,
            (np.broadcast_to(modes[0][0], shape[:2]), np.broadcast_to(modes[1][0], shape)))
        assert not any(lead.errors)
        for i, zi in enumerate(z):
            one = embedding_potential(blocks, zi.real, zi.imag)
            assert lead.g[i].tobytes() == one.surface_g.tobytes()
            assert lead.sigma[i].tobytes() == one.sigma.tobytes()


def test_mode_route_peak_values_bitwise_equal_max_lambda_at(monkeypatch):
    model = strip_model(width=8)
    values = spectra._LeadValues(model, None)
    points = [(float(e), (1e-7, 1e-6)[i % 2]) for i, e in enumerate(np.linspace(-4.5, 4.5, 61))]
    real, rescued = embed._mode_matching, []
    monkeypatch.setattr(embed, "_mode_matching", lambda *a: rescued.append(a) or real(*a))
    values.fetch(points)
    assert len(rescued) < 5
    assert ([values.read(*p) for p in points]
            == [max_lambda_at(model, e, eta, None) for e, eta in points])


def _mode_models():
    rng = np.random.default_rng(5)
    ladder = {"preset": "ladder", "params": {"t_perp": 0.6}}
    h00, _ = _mode_lead(rng, 3, True, True)
    explicit = {"h00": _cm(h00), "h01": _cm(-0.8 * np.eye(3))}
    return [strip_model(width=8), ladder_impurity_model(t_perp=0.3),
            parse_model_dict({"lead_left": ladder, "lead_right": explicit,
                              "device": _device(rng, 2, 3, 1)})]


@pytest.mark.parametrize("case", range(3))
@pytest.mark.parametrize("eta", [1e-6, 1e-8])
def test_mode_route_sweep_equals_per_point_loop(monkeypatch, case, eta):
    # width-8 strip, t_diag = 0 ladder, and a ladder facing a degenerate
    # explicit lead; stacks of 5 points
    model = _mode_models()[case]
    monkeypatch.setattr(spectra, "_STACK_ENTRIES", 5 * 64)
    res = assert_same_records(model, np.linspace(-4.1, 4.1, 41) + 1e-3, eta)
    assert sum(r.ok for r in res.records) > 35


def _count_h00_eigh(monkeypatch, h00s):
    """Patch eigh to count the h00 blocks among its arguments, one entry per call."""
    calls, real = [], np.linalg.eigh

    def eigh(a, *args):
        mats = a.reshape((-1,) + a.shape[-2:])
        calls.append(sum(any(np.array_equal(m, h) for h in h00s) for m in mats))
        return real(a, *args)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return calls


def test_h00_diagonalized_once_per_lead_and_k_not_per_point(monkeypatch):
    strip = strip_model(width=8)
    h00 = build_lead_blocks(strip.lead_l).h00
    calls = _count_h00_eigh(monkeypatch, [h00])
    monkeypatch.setattr(spectra, "_STACK_ENTRIES", 3 * 64)  # 14 lead stacks
    sweep(strip, np.linspace(-3.9, 3.9, 40), eta=1e-6)
    assert sum(calls) == 1
    calls.clear()
    solve_point(strip, 0.3, 1e-6)
    assert sum(calls) == 1
    calls.clear()
    # the peak search: once for its lead values; the core's mode-matching
    # rescue of a point needs no eigh of h00
    report = spectra.detect_peaks(strip, np.linspace(-1.0, 1.0, 40), [1e-7, 1e-6])
    assert not report.peaks and sum(calls) == 1

    # a mixed model: the ladder lead ignores k, so once for all three k of the sweep
    model = _ladder_facing_periodic_strip()
    calls = _count_h00_eigh(monkeypatch, [build_lead_blocks(model.lead_l).h00])
    sweep(model, np.linspace(-3.0, 3.0, 30), eta=1e-6, k_list=[0.1, 0.2, 0.3])
    assert sum(calls) == 1


def _ladder_facing_periodic_strip():
    return parse_model_dict({"lead_left": {"preset": "ladder", "params": {"t_perp": 0.6}},
                             "lead_right": {"preset": "square_strip",
                                            "params": {"width": 2, "periodic": True}},
                             "device": _device(np.random.default_rng(2), 2, 1, 1)})


def test_k_independent_lead_goes_through_the_core_once_per_energy(monkeypatch):
    # the ladder's blocks are the same at every k, so a 30 x 3 sweep sends
    # its 30 energies through the lead core, not 90 points; the periodic
    # strip (n = 1 per k) has 90 distinct points
    model = _ladder_facing_periodic_strip()
    grid = np.linspace(-3.0, 3.0, 30)
    points, real = collections.Counter(), spectra._lead_stack

    def core(h00, *args):
        points[h00.shape[-1]] += len(h00)
        return real(h00, *args)

    monkeypatch.setattr(spectra, "_lead_stack", core)
    res = sweep(model, grid, eta=1e-6, k_list=[0.1, 0.2, 0.3])
    assert points == {2: 30, 1: 90}
    assert repr(res.records) == repr(tuple(reference_records(model, grid, 1e-6, res.k_list)))


def test_general_leads_never_take_the_mode_route(monkeypatch):
    # dimer and t_diag != 0 ladder: every decimation runs on the n = 2 blocks
    sizes, real = [], embed._decimation_stack
    monkeypatch.setattr(embed, "_decimation_stack",
                        lambda h00, *a: sizes.append(h00.shape[-1]) or real(h00, *a))
    ladder = {"preset": "ladder", "params": {"t_perp": 0.5, "t_diag": 0.2}}
    for model in (dimer_model(0.5, 1.5),
                  parse_model_dict({"lead_left": ladder, "lead_right": ladder,
                                    "device": _device(np.random.default_rng(4), 2, 2, 0)})):
        sweep(model, np.linspace(-3.0, 3.0, 9), eta=1e-6)
        solve_point(model, 0.4, 1e-8)
        spectra.detect_peaks(model, np.linspace(-0.5, 0.5, 9), [1e-7, 1e-6])
    assert sizes and set(sizes) == {2}
