import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest

from embedchan import (
    LatticeSpec,
    ModelValidationError,
    SweepResult,
    anti_hermitian_part,
    build_lead_blocks,
    channel_decomposition,
    detect_peaks,
    device_green,
    embedding_potential,
    fit_band_edge,
    fold_momentum,
    parse_model_dict,
    solve_point,
    spectra,
    surface_green,
    sweep,
    transmission,
)

from helpers import (
    chain_lead,
    dimer_model,
    impurity_chain_model,
    perfect_ladder_model,
    periodic_strip_model,
)


def test_chain_sweep_open_counts():
    model = impurity_chain_model()
    result = sweep(model, np.linspace(-2.5, 2.5, 500), eta=1e-6)
    assert len(result.records) == 500
    for r in result.records:
        assert r.ok
        inside = abs(r.e) < 2.0 - 0.01
        outside = abs(r.e) > 2.0 + 0.01
        if inside:
            assert r.n_open_l == 1
        elif outside:
            assert r.n_open_l == 0


def test_open_count_transitions_at_band_edges():
    model = perfect_ladder_model(t_perp=0.5)
    grid = np.linspace(-3.0, 3.0, 601)
    result = sweep(model, grid, eta=1e-8)
    step = grid[1] - grid[0]
    edges = [-2.5, -1.5, 1.5, 2.5]
    transitions = []
    prev = None
    for r in result.records:
        if prev is not None and r.n_open_l != prev.n_open_l:
            transitions.append(0.5 * (prev.e + r.e))
        prev = r
    assert len(transitions) == len(edges)
    for found, expected in zip(transitions, edges):
        assert abs(found - expected) <= step


def test_sweep_grid_validation():
    model = impurity_chain_model()
    with pytest.raises(ModelValidationError, match="nonempty"):
        sweep(model, [], eta=1e-6)
    with pytest.raises(ModelValidationError, match="increasing"):
        sweep(model, [0.0, 0.0], eta=1e-6)
    with pytest.raises(ModelValidationError, match="eta"):
        sweep(model, [0.0, 1.0], eta=0.0)
    with pytest.raises(ModelValidationError, match="non-periodic"):
        sweep(model, [0.0, 1.0], eta=1e-6, k_list=[0.0])


def test_periodic_model_requires_k_list():
    model = periodic_strip_model(width=2)
    with pytest.raises(ModelValidationError, match="k value"):
        sweep(model, [0.0, 0.5], eta=1e-6)


_ONE_K_ENTRY_POINTS = {
    "sweep": lambda m, k: sweep(m, _G, eta=1e-6, k_list=None if k is None else [k]),
    "solve_point": lambda m, k: solve_point(m, 0.3, 1e-8, k),
    "detect_peaks": lambda m, k: detect_peaks(m, _G, [1e-3, 1e-5], k=k),
}


@pytest.mark.parametrize("periodic, k, message", [
    (True, None, "model has a transverse-periodic lead: at least one k value is required"),
    (False, 0.7, "k values supplied for a non-periodic model"),
    (True, math.nan, "k values must be finite, got nan"),
])
@pytest.mark.parametrize("entry", sorted(_ONE_K_ENTRY_POINTS))
def test_one_momentum_check_for_every_entry_point(entry, periodic, k, message):
    # a k is required exactly when a lead is transverse-periodic, and every
    # entry point says so in the same words
    model = periodic_strip_model(width=2) if periodic else impurity_chain_model()
    with pytest.raises(ModelValidationError) as info:
        _ONE_K_ENTRY_POINTS[entry](model, k)
    assert str(info.value) == message


def test_k_sum_matches_explicit_ring():
    # width-2 periodic strip: transverse momenta {0, pi}; the equivalent
    # explicit representation is a two-site ring (doubled wrap bond) lead
    model_k = periodic_strip_model(width=2)
    ring = parse_model_dict({
        "lead_left": {"h00": [[0.0, -2.0], [-2.0, 0.0]], "h01": [[-1.0, 0.0], [0.0, -1.0]]},
        "lead_right": {"h00": [[0.0, -2.0], [-2.0, 0.0]], "h01": [[-1.0, 0.0], [0.0, -1.0]]},
        "device": {
            "h": [[0.0, -2.0, -1.0, 0.0],
                  [-2.0, 0.0, 0.0, -1.0],
                  [-1.0, 0.0, 0.0, -2.0],
                  [0.0, -1.0, -2.0, 0.0]],
            "coupling_left": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
            "coupling_right": [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        },
    })
    # the per-momentum device must mirror the reduced lead period: a two-site
    # chain segment per momentum, on-site -2 cos(k)
    grid = [float(e) for e in np.linspace(-1.3, 1.3, 9)]
    totals_explicit = [r.t_trace for r in sweep(ring, grid, eta=1e-10).records]
    totals_k = np.zeros(len(grid))
    for k in (0.0, np.pi):
        onsite = -2.0 * np.cos(k)
        model_one_k = parse_model_dict({
            "lead_left": {"preset": "square_strip",
                          "params": {"t": 1.0, "width": 2, "periodic": True}},
            "lead_right": {"preset": "square_strip",
                           "params": {"t": 1.0, "width": 2, "periodic": True}},
            "device": {"h": [[onsite, -1.0], [-1.0, onsite]],
                       "coupling_left": [[1.0, 0.0]],
                       "coupling_right": [[0.0, 1.0]]},
        })
        res = sweep(model_one_k, grid, eta=1e-10, k_list=[k])
        totals_k += np.array([r.t_trace for r in res.records])
    assert np.abs(totals_k - np.array(totals_explicit)).max() <= 1e-8


def test_k_summed_totals_field():
    model = periodic_strip_model(width=2)
    res = sweep(model, [0.5], eta=1e-10, k_list=[0.0, np.pi])
    assert len(res.records) == 2
    assert res.k_summed_trace is not None
    # the static one-site device acts as an impurity relative to each reduced
    # lead layer, so only the aggregation arithmetic is asserted here
    per_point = sum(r.t_trace for r in res.records if r.ok)
    assert res.k_summed_trace[0] == pytest.approx(per_point, abs=1e-14)
    # E=0.5 lies only inside the k=pi band (on-site +2); k=0 contributes 0
    assert res.records[0].n_open_l == 0
    assert res.records[1].n_open_l == 1


def test_per_point_failure_recorded_not_fatal():
    model = parse_model_dict({
        "lead_left": chain_lead(),
        "lead_right": chain_lead(),
        "device": {
            "h": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.5]],
            "coupling_left": [[1.0, 0.0, 0.0]],
            "coupling_right": [[0.0, 1.0, 0.0]],
        },
    })
    result = sweep(model, [1.4, 1.5, 1.6], eta=1e-8)
    statuses = [r.status for r in result.records]
    assert statuses[0] == "ok" and statuses[2] == "ok"
    assert statuses[1].startswith("error:")


def test_fit_chain_band_edge_exponent():
    model = impurity_chain_model()
    offsets = np.logspace(-4, -2, 40)
    grid = sorted(-2.0 + d for d in offsets)
    result = sweep(model, grid, eta=1e-8)
    fit = fit_band_edge(result, -2.0, (1e-4, 1e-2), side="above")
    assert fit.exponent == pytest.approx(0.5, abs=0.02)
    assert fit.side == "above"
    assert fit.n_points >= 8


def test_fit_window_validation():
    model = impurity_chain_model()
    grid = sorted(-2.0 + d for d in np.logspace(-4, -2, 12))
    result = sweep(model, grid, eta=1e-6)
    with pytest.raises(ModelValidationError, match="broadening"):
        fit_band_edge(result, -2.0, (1e-6, 1e-2))
    with pytest.raises(ModelValidationError, match="at least 8"):
        fit_band_edge(result, -2.0, (1e-4, 1e-2), side="below")


def test_dimer_band_edge_is_termination_independent():
    # Both dimer terminations vanish like sqrt on the band side of the gap
    # edge, with identical leading coefficients; the inverse square-root law
    # appears only on the gap side as an eta-scaled broadening tail.  This
    # pins down the behavior documented in the acceptance suite.
    offsets = np.logspace(-4, -2, 24)
    slopes = {}
    for name, (t1, t2) in (("strong", (1.5, 0.5)), ("weak", (0.5, 1.5))):
        model = dimer_model(t1, t2)
        band = sweep(model, sorted(1.0 + d for d in offsets), eta=1e-8)
        gap = sweep(model, sorted(1.0 - d for d in offsets), eta=1e-8)
        fit_band = fit_band_edge(band, 1.0, (1e-4, 1e-2), side="above")
        fit_gap = fit_band_edge(gap, 1.0, (1e-4, 1e-2), side="below")
        slopes[name] = (fit_band.exponent, fit_gap.exponent)
    for name in ("strong", "weak"):
        assert slopes[name][0] == pytest.approx(0.5, abs=0.02)
        assert slopes[name][1] == pytest.approx(-0.5, abs=0.1)
    assert slopes["strong"][0] == pytest.approx(slopes["weak"][0], abs=5e-3)


def test_detect_peaks_weak_termination():
    model = dimer_model(0.5, 1.5)  # weak bond at the surface: gap-center state
    report = detect_peaks(model, np.linspace(-0.5, 0.5, 201), [1e-7, 1e-6])
    assert report.peaks, "expected a gap-center peak"
    for p in report.peaks:
        assert abs(p.energy) <= 1e-6
        assert p.height * p.eta == pytest.approx(2.0, abs=1e-3)
        assert p.width == pytest.approx(2.0 * p.eta, rel=0.2)
        assert p.transmission < 1e-10
    for s in report.scaling_check:
        assert 9.0 <= s["height_ratio"] <= 11.0


def test_detect_peaks_uniform_chain_empty():
    model = impurity_chain_model()
    report = detect_peaks(model, np.linspace(-1.0, 1.0, 101), [1e-7, 1e-6])
    assert report.peaks == ()


def test_detect_peaks_validation():
    model = impurity_chain_model()
    with pytest.raises(ModelValidationError, match="at least two"):
        detect_peaks(model, np.linspace(-1, 1, 21), [1e-6])
    with pytest.raises(ModelValidationError, match="factor of 10"):
        detect_peaks(model, np.linspace(-1, 1, 21), [1e-6, 2e-6])


_G = np.linspace(-0.5, 0.5, 21)
_NON_FINITE = {
    "peaks eta nan": lambda: detect_peaks(dimer_model(0.5, 1.5), _G, [1e-7, math.nan]),
    "peaks eta inf": lambda: detect_peaks(dimer_model(0.5, 1.5), _G, [1e-7, math.inf]),
    "peaks grid nan": lambda: detect_peaks(dimer_model(0.5, 1.5), [*_G, math.nan],
                                           [1e-7, 1e-6]),
    "peaks grid -inf": lambda: detect_peaks(dimer_model(0.5, 1.5), [-math.inf, *_G],
                                            [1e-7, 1e-6]),
    "peaks k nan": lambda: detect_peaks(periodic_strip_model(width=2), _G, [1e-7, 1e-6],
                                        k=math.nan),
    "sweep grid nan": lambda: sweep(impurity_chain_model(), [0.0, math.nan, 1.0]),
    "sweep grid inf": lambda: sweep(impurity_chain_model(), [0.0, math.inf]),
    "sweep eta nan": lambda: sweep(impurity_chain_model(), _G, eta=math.nan),
    "sweep eta inf": lambda: sweep(impurity_chain_model(), _G, eta=math.inf),
    "sweep k inf": lambda: sweep(periodic_strip_model(width=2), _G, k_list=[0.0, math.inf]),
    "point e nan": lambda: solve_point(impurity_chain_model(), math.nan, 1e-6),
    "point e inf": lambda: solve_point(impurity_chain_model(), math.inf, 1e-6),
    "point k nan": lambda: solve_point(periodic_strip_model(width=2), 0.1, 1e-6, math.nan),
    "point eta nan": lambda: solve_point(impurity_chain_model(), 0.1, math.nan),
    "surface green eta nan": lambda: surface_green(
        build_lead_blocks(impurity_chain_model().lead_l), 0.0, math.nan),
    "surface green eta inf": lambda: surface_green(
        build_lead_blocks(impurity_chain_model().lead_l), 0.0, math.inf),
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE))
def test_non_finite_input_is_a_validation_error(case):
    with pytest.raises(ModelValidationError, match="finite"):
        _NON_FINITE[case]()


def test_device_green_rejects_nan_eta():
    model = impurity_chain_model()
    sol = solve_point(model, 0.1, 1e-6)
    with pytest.raises(ValueError, match="eta"):
        device_green(model.device, sol.sig_l, sol.sig_r, 0.1, math.nan)


@pytest.mark.parametrize("e, eta_dev", [(0.3, 0.0), (3.0, 1e-8)])
def test_point_solution_holds_its_device_solve(e, eta_dev):
    # both leads open: the device runs at eta = 0; in a gap at the lead eta
    model = impurity_chain_model()
    sol = solve_point(model, e, 1e-8)
    assert sol.gdev.eta == eta_dev
    ref = device_green(model.device, sol.sig_l, sol.sig_r, e, eta_dev)
    assert sol.gdev.g.tobytes() == ref.g.tobytes()
    res = transmission(sol.gdev, sol.im_l, sol.im_r, sol.channels_l, sol.channels_r)
    for f in fields(res):
        a, b = getattr(res, f.name), getattr(sol.result, f.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name


def test_sweep_metadata():
    model = impurity_chain_model()
    res = sweep(model, [0.0, 1.0], eta=1e-6)
    md = res.metadata
    assert set(md) >= {"model_hash", "eta", "tau_open", "tau_psd", "tau_prop", "version"}
    assert md["eta"] == 1e-6
    assert md["tau_open"] == pytest.approx(1e-4)


def test_transmission_discrepancy_small_through_sweep():
    model = impurity_chain_model()
    res = sweep(model, np.linspace(-2.5, 2.5, 101), eta=1e-10)
    for r in res.records:
        assert r.ok and r.discrepancy <= 1e-9


def test_fit_band_edge_matches_k_by_value():
    # records whose k equals k_list[0] but is a different float object
    model = periodic_strip_model()
    k0 = 1.25
    edge = -2.0 - 2.0 * math.cos(k0)
    grid = sorted(edge + d for d in np.logspace(-4, -2, 40))
    result = sweep(model, grid, eta=1e-8, k_list=[k0, 2.5])
    records = tuple(replace(r, k=float(repr(r.k))) for r in result.records)
    rebuilt = SweepResult(grid=result.grid, k_list=result.k_list, records=records,
                          metadata=result.metadata)
    assert rebuilt.records[0].k == rebuilt.k_list[0]
    assert rebuilt.records[0].k is not rebuilt.k_list[0]
    fit = fit_band_edge(rebuilt, edge, (1e-4, 1e-2), side="above")
    assert fit == fit_band_edge(result, edge, (1e-4, 1e-2), side="above")
    assert fit.n_points == 40
    assert fit.exponent == pytest.approx(0.5, abs=0.02)


def test_fit_band_edge_repeated_k_fits_first_k_once():
    # a repeated k (distinct float objects, as argparse makes them) gives the
    # same fit as the single k: its records are not fitted twice
    model = periodic_strip_model()
    k0 = 1.25
    edge = -2.0 - 2.0 * math.cos(k0)
    grid = sorted(edge + d for d in np.logspace(-4, -2, 40))
    once = fit_band_edge(sweep(model, grid, eta=1e-8, k_list=[k0]), edge, (1e-4, 1e-2),
                         side="above")
    twice = sweep(model, grid, eta=1e-8, k_list=[k0, float(repr(k0))])
    assert twice.k_list[0] == twice.k_list[1] and twice.k_list[0] is not twice.k_list[1]
    assert fit_band_edge(twice, edge, (1e-4, 1e-2), side="above") == once
    assert once.n_points == 40


# ---------------------------------------------------------------------------
# one lead evaluation when both leads are the same


def _count_lead_evaluations(monkeypatch):
    """Patch the lead core to record each call's h01 blocks."""
    calls, real = [], spectra._lead_stack

    def counted(h00, h01, *args):
        calls.append(h01)
        return real(h00, h01, *args)

    monkeypatch.setattr(spectra, "_lead_stack", counted)
    return calls


def _sides(model, calls, k=None):
    """The lead each recorded core call was on."""
    blocks_l = build_lead_blocks(model.lead_l, k if model.lead_l.requires_momentum else None)
    return ["left" if np.array_equal(h01[0], blocks_l.h01) else "right" for h01 in calls]


def _assert_right_side_independent(model, sol, e, eta, k=None):
    blocks_r = build_lead_blocks(model.lead_r, k if model.lead_r.requires_momentum else None)
    sig = embedding_potential(blocks_r, e, eta, side="right")
    im = anti_hermitian_part(sig)
    ch = channel_decomposition(im)
    assert sol.sig_r.side == sol.im_r.side == sol.channels_r.side == "right"
    assert sol.sig_l.side == sol.im_l.side == sol.channels_l.side == "left"
    assert sol.sig_r.k == sig.k and sol.channels_r.k == ch.k
    assert np.array_equal(sol.sig_r.sigma, sig.sigma)
    assert np.array_equal(sol.sig_r.surface_g, sig.surface_g)
    assert np.array_equal(sol.im_r.matrix, im.matrix)
    for name in ("lambdas", "vectors_unit_norm", "open_mask", "vectors_unit_flux"):
        assert np.array_equal(getattr(sol.channels_r, name), getattr(ch, name)), name
    assert sol.channels_r.tau_open == ch.tau_open


@pytest.mark.parametrize("make, e, k", [
    (impurity_chain_model, 0.3, None),
    (impurity_chain_model, 2.5, None),  # gap: no open channel
    (perfect_ladder_model, -0.7, None),
    (periodic_strip_model, 0.4, 0.9),
])
def test_identical_leads_evaluated_once(monkeypatch, make, e, k):
    model = make()
    calls = _count_lead_evaluations(monkeypatch)
    sol = solve_point(model, e, 1e-8, k)
    assert _sides(model, calls, k) == ["left"]
    _assert_right_side_independent(model, sol, e, 1e-8, k)


def test_different_leads_evaluated_twice(monkeypatch):
    model = parse_model_dict({
        "lead_left": chain_lead(),
        "lead_right": chain_lead(t=1.5),
        "device": {"h": [[0.2]], "coupling_left": [[1.0]], "coupling_right": [[1.0]]},
    })
    calls = _count_lead_evaluations(monkeypatch)
    sol = solve_point(model, 0.3, 1e-8)
    assert _sides(model, calls) == ["left", "right"]
    _assert_right_side_independent(model, sol, 0.3, 1e-8)
    assert not np.array_equal(sol.sig_l.sigma, sol.sig_r.sigma)


def test_equal_arrays_at_different_k_evaluated_twice(monkeypatch):
    # a periodic lead next to an explicit one whose blocks equal it at this k
    k = 1.1
    strip = {"preset": "square_strip", "params": {"t": 1.0, "width": 4, "periodic": True}}
    h00 = complex(build_lead_blocks(LatticeSpec(kind="square_strip", params=strip["params"]),
                                    k).h00[0, 0])
    model = parse_model_dict({
        "lead_left": strip,
        "lead_right": {"h00": [[[h00.real, h00.imag]]], "h01": [[-1.0]]},
        "device": {"h": [[0.0, -1.0], [-1.0, 0.0]],
                   "coupling_left": [[1.0, 0.0]], "coupling_right": [[0.0, 1.0]]},
    })
    calls = _count_lead_evaluations(monkeypatch)
    sol = solve_point(model, 0.1, 1e-8, k)
    assert len(calls) == 2
    assert sol.sig_l.k == fold_momentum(k) and sol.sig_r.k is None
    assert np.array_equal(sol.sig_l.sigma, sol.sig_r.sigma)
    _assert_right_side_independent(model, sol, 0.1, 1e-8, k)


@pytest.mark.parametrize("make, n_leads", [
    (impurity_chain_model, 1),
    (lambda: dimer_model(0.5, 1.5), 1),
    (lambda: parse_model_dict({"lead_left": chain_lead(), "lead_right": chain_lead(t=1.5),
                               "device": {"h": [[0.2]], "coupling_left": [[1.0]],
                                          "coupling_right": [[1.0]]}}), 2),
])
def test_solve_point_one_eigh_per_distinct_lead(monkeypatch, make, n_leads):
    # the one eigh of ImSigma is both the NSD guard and the channel basis
    model, calls = make(), []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, _real=real, _name=name:
                            calls.append(_name) or _real(a, *args))
    solve_point(model, 0.3, 1e-8)
    assert calls == ["eigh"] * n_leads


def test_identical_leads_sweep_matches_independent_right_side():
    model = perfect_ladder_model()
    result = sweep(model, np.linspace(-3.5, 3.5, 15), eta=1e-6)
    for r in result.records:
        sol = solve_point(model, r.e, 1e-6)
        _assert_right_side_independent(model, sol, r.e, 1e-6)
        assert r.lambdas_r == tuple(float(x) for x in sol.channels_r.lambdas)


def _solution_bits(sol):
    """Every float and array of a PointSolution, to the bit."""
    parts = [sol.sig_l, sol.sig_r, sol.im_l, sol.im_r, sol.channels_l, sol.channels_r,
             sol.result, sol.gdev]
    return repr([(f.name, getattr(p, f.name).tobytes() if isinstance(getattr(p, f.name), np.ndarray)
                  else getattr(p, f.name)) for p in parts for f in fields(p)])


def test_concurrent_calls_on_shared_models_equal_serial():
    # the README's concurrency statement: sweeps, points and peak searches
    # run from four threads on the same model objects give the serial results
    ladder, strip, dimer = perfect_ladder_model(), periodic_strip_model(), dimer_model(0.5, 1.5)
    gap = np.linspace(-0.5, 0.5, 41) + 1.3e-4
    tasks = [lambda: repr(sweep(ladder, np.linspace(-3.5, 3.5, 61), eta=1e-6)),
             lambda: repr(sweep(strip, np.linspace(-3.0, 3.0, 31), eta=1e-6, k_list=[0.1, 1.2])),
             lambda: repr(detect_peaks(dimer, gap, [1e-7, 1e-6]))]
    tasks += [lambda e=e: _solution_bits(solve_point(ladder, e, 1e-8)) for e in (-1.7, 0.3, 2.2)]
    tasks += [lambda e=e: _solution_bits(solve_point(strip, e, 1e-8, 0.4)) for e in (-0.9, 1.1)]
    tasks *= 4
    serial = [task() for task in tasks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the numpy calls' Python glue
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(task) for task in tasks]
            assert [f.result(timeout=120) for f in futures] == serial
    finally:
        sys.setswitchinterval(interval)
