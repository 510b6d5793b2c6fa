import numpy as np
import pytest

from embedchan import (
    SingularSolveError,
    build_lead_blocks,
    device_green,
    embedding_potential,
    parse_model_dict,
    right_surface_wave,
    scattered_wave,
    solve_point,
    t_matrix,
    transmission,
)
from embedchan.embed import EmbeddingPotential

from helpers import (
    chain_lead,
    dimer_model,
    impurity_chain_model,
    ladder_impurity_model,
    open_count_analytic,
    perfect_chain_model,
    perfect_ladder_model,
    strip_model,
)

ETA = 1e-12


def test_device_green_scalar_closed_forms():
    model = impurity_chain_model(eps_imp=1.0)
    sol = solve_point(model, 0.0, ETA)
    g = device_green(model.device, sol.sig_l, sol.sig_r, 0.0, 0.0)
    assert g.g[0, 0] == pytest.approx(-0.2 - 0.4j, abs=1e-10)

    model0 = perfect_chain_model()
    sol0 = solve_point(model0, 0.0, ETA)
    g0 = device_green(model0.device, sol0.sig_l, sol0.sig_r, 0.0, 0.0)
    assert g0.g[0, 0] == pytest.approx(-0.5j, abs=1e-10)


def test_device_green_real_outside_band():
    model = perfect_chain_model()
    sol = solve_point(model, 3.0, 1e-8)
    assert abs(sol.result.t_squared.sum()) <= 1e-10
    g = device_green(model.device, sol.sig_l, sol.sig_r, 3.0, 1e-8)
    assert abs(g.g[0, 0].imag) <= 1e-7


def test_device_green_identity_invariant():
    model = ladder_impurity_model()
    n = model.device.n_device
    sol = solve_point(model, 0.4, 1e-10)
    g = device_green(model.device, sol.sig_l, sol.sig_r, 0.4, 0.0)
    z = complex(0.4, 0.0)
    a = (z * np.eye(n) - model.device.h_c
         - model.device.coupling_left.conj().T @ sol.sig_l.sigma @ model.device.coupling_left
         - model.device.coupling_right.conj().T @ sol.sig_r.sigma @ model.device.coupling_right)
    assert np.abs(a @ g.g - np.eye(n)).max() <= 1e-9


def test_singular_solve_reports():
    # a device site decoupled from both leads turns singular at its own energy
    model = parse_model_dict({
        "lead_left": chain_lead(),
        "lead_right": chain_lead(),
        "device": {
            "h": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.5]],
            "coupling_left": [[1.0, 0.0, 0.0]],
            "coupling_right": [[0.0, 1.0, 0.0]],
        },
    })
    sol_sigma = embedding_potential(build_lead_blocks(model.lead_l), 1.5, ETA)
    with pytest.raises(SingularSolveError):
        device_green(model.device, sol_sigma, sol_sigma, 1.5, 0.0)


def test_perfect_chain_transmission_one():
    model = perfect_chain_model()
    for e in (-1.5, -0.3, 0.0, 0.9, 1.7):
        sol = solve_point(model, e, ETA)
        assert sol.result.total_channel_sum == pytest.approx(1.0, abs=1e-10)
        assert sol.result.total_trace == pytest.approx(1.0, abs=1e-10)


def test_impurity_chain_transmission_0p8():
    sol = solve_point(impurity_chain_model(eps_imp=1.0), 0.0, ETA)
    assert sol.result.total_channel_sum == pytest.approx(0.8, abs=1e-10)
    assert sol.result.total_trace == pytest.approx(0.8, abs=1e-10)
    assert sol.result.t_squared.shape == (1, 1)


def test_gap_energy_empty_t_matrix():
    sol = solve_point(impurity_chain_model(), 3.0, 1e-8)
    assert sol.result.t.shape == (0, 0)
    assert sol.result.total_channel_sum == 0.0
    assert abs(sol.result.total_trace) <= 1e-10


def test_perfect_ladder_transmission_two():
    sol = solve_point(perfect_ladder_model(), 0.0, ETA)
    assert sol.result.total_trace == pytest.approx(2.0, abs=1e-9)
    assert sol.result.total_channel_sum == pytest.approx(2.0, abs=1e-9)


def test_channel_sum_equals_trace_mixed_device():
    model = ladder_impurity_model()
    for e in np.linspace(-2.3, 2.3, 47):
        sol = solve_point(model, float(e), 1e-10)
        assert sol.result.discrepancy <= 1e-9


def test_total_bounded_by_open_channels():
    model = ladder_impurity_model()
    for e in np.linspace(-2.3, 2.3, 31):
        sol = solve_point(model, float(e), 1e-10)
        bound = min(sol.result.n_open_l, sol.result.n_open_r) + 1e-8
        assert -1e-12 <= sol.result.total_channel_sum <= bound


def test_left_right_reciprocity():
    rng = np.random.default_rng(7)
    h = rng.normal(size=(3, 3))
    h = ((h + h.T) / 2).tolist()
    base = {
        "lead_left": chain_lead(),
        "lead_right": chain_lead(),
        "device": {"h": h,
                   "coupling_left": [[1.0, 0.0, 0.0]],
                   "coupling_right": [[0.0, 0.0, 1.0]]},
    }
    swapped = dict(base)
    swapped = {
        "lead_left": chain_lead(),
        "lead_right": chain_lead(),
        "device": {"h": h,
                   "coupling_left": [[0.0, 0.0, 1.0]],
                   "coupling_right": [[1.0, 0.0, 0.0]]},
    }
    m1, m2 = parse_model_dict(base), parse_model_dict(swapped)
    for e in (-1.2, 0.25, 1.4):
        t1 = solve_point(m1, e, ETA).result.total_trace
        t2 = solve_point(m2, e, ETA).result.total_trace
        assert abs(t1 - t2) <= 1e-9


@pytest.mark.parametrize("model,energies,kind,params", [
    (perfect_chain_model(), [-1.8, -0.4, 0.6, 1.5], "chain", {"t": 1.0}),
    (perfect_ladder_model(), [-1.1, 0.0, 0.8, 2.1], "ladder", {"t": 1.0, "t_perp": 0.5}),
    (dimer_model(1.5, 0.5), [-1.7, -1.3, 1.2, 1.9], "dimer_chain", {"t1": 1.5, "t2": 0.5}),
    (strip_model(3), [-2.2, -0.8, 0.0, 1.1], "square_strip", {"t": 1.0, "width": 3}),
])
def test_perfect_lead_limit(model, energies, kind, params):
    # device = one lead period with matched couplings transmits every open channel
    for e in energies:
        sol = solve_point(model, e, ETA)
        expected = open_count_analytic(kind, params, e)
        assert sol.result.total_trace == pytest.approx(expected, abs=1e-8)


def test_scattered_wave_perfect_transmission():
    model = perfect_chain_model()
    sol = solve_point(model, 0.0, ETA)
    gdev = device_green(model.device, sol.sig_l, sol.sig_r, 0.0, 0.0)
    u = sol.channels_l.vectors_unit_flux[:, 0]
    chi = scattered_wave(gdev, sol.im_l, u)
    chi_r = right_surface_wave(gdev, chi)
    t_flux = -2.0 * np.real(chi_r.conj() @ sol.im_r.matrix @ chi_r)
    assert t_flux == pytest.approx(1.0, abs=1e-10)


def test_scattered_wave_zero_input():
    model = perfect_chain_model()
    sol = solve_point(model, 0.0, ETA)
    gdev = device_green(model.device, sol.sig_l, sol.sig_r, 0.0, 0.0)
    chi = scattered_wave(gdev, sol.im_l, np.zeros(1))
    assert np.abs(chi).max() == 0.0


def test_scattered_wave_impurity_flux():
    model = impurity_chain_model(eps_imp=1.0)
    sol = solve_point(model, 0.0, ETA)
    gdev = device_green(model.device, sol.sig_l, sol.sig_r, 0.0, 0.0)
    u = sol.channels_l.vectors_unit_flux[:, 0]
    chi = scattered_wave(gdev, sol.im_l, u)
    chi_r = right_surface_wave(gdev, chi)
    t_flux = -2.0 * np.real(chi_r.conj() @ sol.im_r.matrix @ chi_r)
    assert t_flux == pytest.approx(0.8, abs=1e-10)


def test_flux_route_matches_t_matrix_route():
    # per incident channel, transmitted flux of chi equals the |t|^2 row sum
    for model, e in ((impurity_chain_model(0.7), 0.45),
                     (ladder_impurity_model(), 0.2),
                     (ladder_impurity_model(), -0.9)):
        sol = solve_point(model, e, 1e-11)
        gdev = device_green(model.device, sol.sig_l, sol.sig_r, e, 0.0)
        for i in range(sol.channels_l.n_open):
            u = sol.channels_l.vectors_unit_flux[:, i]
            chi_r = right_surface_wave(gdev, scattered_wave(gdev, sol.im_l, u))
            t_flux = -2.0 * np.real(chi_r.conj() @ sol.im_r.matrix @ chi_r)
            row = float(np.sum(sol.result.t_squared[i]))
            assert abs(t_flux - row) <= 1e-8


def test_t_matrix_signature_matches_transmission():
    model = ladder_impurity_model()
    sol = solve_point(model, 0.1, 1e-11)
    gdev = device_green(model.device, sol.sig_l, sol.sig_r, 0.1, 0.0)
    t = t_matrix(gdev.g_rl, sol.channels_l, sol.channels_r)
    res = transmission(gdev, sol.im_l, sol.im_r, sol.channels_l, sol.channels_r)
    assert np.array_equal(t, res.t)
    assert res.discrepancy <= 1e-9


def test_device_green_gate_rejects_nan():
    # a NaN self-energy makes the solve return NaN without raising; the
    # identity gate must catch it, and reporting the condition must not raise
    model = impurity_chain_model()
    sig = embedding_potential(build_lead_blocks(model.lead_l), 0.3, ETA)
    bad = EmbeddingPotential(sigma=np.array([[np.nan]], complex), energy=0.3, eta=ETA)
    with pytest.raises(SingularSolveError, match="residual nan"):
        device_green(model.device, sig, bad, 0.3, 0.0)
