import numpy as np
import pytest

from embedchan import (
    DecimationError,
    HamiltonianBlocks,
    LatticeSpec,
    anti_hermitian_part,
    build_lead_blocks,
    chain_surface_green_exact,
    embedding_potential,
    surface_green,
)
from embedchan import embed
from embedchan.embed import EmbeddingPotential

from helpers import chain_g, chain_velocity, ladder_mode_basis, truncated_lead_sigma


def chain_blocks(t=1.0, eps=0.0):
    return build_lead_blocks(LatticeSpec(kind="chain", params={"t": t, "eps": eps}))


def ladder_blocks(t=1.0, t_perp=0.5, t_diag=0.0):
    return build_lead_blocks(
        LatticeSpec(kind="ladder", params={"t": t, "t_perp": t_perp, "t_diag": t_diag})
    )


def test_chain_surface_green_band_center():
    g = surface_green(chain_blocks(), 0.0, 1e-8)
    assert g[0, 0] == pytest.approx(-1j, abs=2e-8)


def test_chain_surface_green_outside_band():
    g = surface_green(chain_blocks(), 3.0, 1e-8)
    assert g[0, 0].real == pytest.approx((3 - np.sqrt(5)) / 2, abs=1e-10)
    assert abs(g[0, 0].imag) <= 1e-7


def test_surface_green_matches_closed_form_across_band():
    blocks = chain_blocks()
    for e in np.linspace(-2.6, 2.6, 53):
        g = surface_green(blocks, float(e), 1e-10)[0, 0]
        assert g == pytest.approx(chain_g(e, 1.0, 1e-10), abs=1e-9)


def test_shipped_closed_form_is_consistent():
    for e in (-2.4, -1.0, 0.0, 0.7, 2.4):
        assert chain_surface_green_exact(e, 1.0, 1e-9) == pytest.approx(
            complex(chain_g(e, 1.0, 1e-9)), abs=1e-12
        )


def test_ladder_surface_green_mode_decoupling():
    # rung modes decouple into two chains at shifted energies
    t_perp = 0.5
    blocks = ladder_blocks(t_perp=t_perp)
    w = ladder_mode_basis()
    for e in (-1.3, 0.0, 0.9):
        g = surface_green(blocks, e, 1e-10)
        gm = w.T @ g @ w
        assert abs(gm[0, 1]) <= 1e-10 and abs(gm[1, 0]) <= 1e-10
        assert gm[0, 0] == pytest.approx(chain_g(e + t_perp, 1.0, 1e-10), abs=1e-8)
        assert gm[1, 1] == pytest.approx(chain_g(e - t_perp, 1.0, 1e-10), abs=1e-8)


def test_fixed_point_residual_contract():
    for blocks in (chain_blocks(), ladder_blocks(t_diag=0.2)):
        for e in (-1.7, 0.0, 0.4, 3.2):
            z = complex(e, 1e-8)
            g = surface_green(blocks, e, 1e-8)
            m = z * np.eye(blocks.n) - blocks.h00 - blocks.h01 @ g @ blocks.h01.conj().T
            assert np.abs(g @ m - np.eye(blocks.n)).max() <= 1e-10


def test_eta_must_be_positive():
    with pytest.raises(ValueError):
        surface_green(chain_blocks(), 0.0, 0.0)


def test_embedding_potential_chain_values():
    sig = embedding_potential(chain_blocks(), 0.0, 1e-10)
    assert sig.sigma[0, 0] == pytest.approx(-1j, abs=1e-9)
    im = anti_hermitian_part(sig)
    assert im.matrix[0, 0] == pytest.approx(-1.0, abs=1e-9)

    sig3 = embedding_potential(chain_blocks(), 3.0, 1e-8)
    assert sig3.sigma[0, 0].real == pytest.approx(0.3819660112501051, abs=1e-9)
    assert abs(sig3.sigma[0, 0].imag) <= 1e-7

    edge = embedding_potential(chain_blocks(), -2.0, 1e-10)
    assert edge.sigma[0, 0] == pytest.approx(-1.0, abs=1e-4)


def test_band_edge_square_root_approach():
    # Im Sigma vanishes as -sqrt(4 - E^2)/2 near the lower edge
    for delta in (1e-4, 1e-3, 1e-2):
        sig = embedding_potential(chain_blocks(), -2.0 + delta, 1e-12)
        expected = -np.sqrt(4.0 - (-2.0 + delta) ** 2) / 2.0
        assert sig.sigma[0, 0].imag == pytest.approx(expected, rel=1e-5)


def test_green_identity_holds():
    blocks = ladder_blocks(t_diag=0.2)
    for e in (-1.1, 0.0, 1.9):
        sig = embedding_potential(blocks, e, 1e-8)
        z = complex(e, 1e-8)
        res = (z * np.eye(2) - blocks.h00 - sig.sigma) @ sig.surface_g - np.eye(2)
        assert np.abs(res).max() <= 1e-9


def test_anti_hermitian_part_formula():
    def wrap(m):
        return EmbeddingPotential(sigma=np.asarray(m, complex), energy=0.0, eta=1e-8)

    assert anti_hermitian_part(wrap([[-1j]])).matrix[0, 0] == pytest.approx(-1.0)
    real_sym = anti_hermitian_part(wrap([[0.4, 0.1], [0.1, -0.2]]))
    assert np.abs(real_sym.matrix).max() == 0.0
    m = anti_hermitian_part(wrap([[-1j, 0.1], [0.1, -1j]])).matrix
    assert np.allclose(m, [[-1.0, 0.0], [0.0, -1.0]], atol=1e-15)
    assert np.abs(m - m.conj().T).max() == 0.0  # exactly Hermitian storage


def test_negative_semidefinite_over_draws():
    rng = np.random.default_rng(3)
    for _ in range(60):
        kind = rng.choice(["chain", "ladder", "dimer_chain"])
        if kind == "chain":
            spec = LatticeSpec(kind="chain", params={"t": rng.uniform(0.5, 2.0),
                                                     "eps": rng.uniform(-1, 1)})
        elif kind == "ladder":
            spec = LatticeSpec(kind="ladder", params={"t": rng.uniform(0.5, 2.0),
                                                      "t_perp": rng.uniform(0, 1.5),
                                                      "t_diag": rng.uniform(-0.5, 0.5)})
        else:
            spec = LatticeSpec(kind="dimer_chain", params={"t1": rng.uniform(0.3, 2.0),
                                                           "t2": rng.uniform(0.3, 2.0)})
        blocks = build_lead_blocks(spec)
        sig = embedding_potential(blocks, rng.uniform(-5, 5), 1e-8)
        lam = np.linalg.eigvalsh(anti_hermitian_part(sig).matrix)
        assert lam.max() <= 1e-10


def test_velocity_identity_1d():
    # -2 Im Sigma(E) equals the group velocity 2 sin k(E) inside the band
    blocks = chain_blocks()
    for e in np.linspace(-1.9, 1.9, 21):
        sig = embedding_potential(blocks, float(e), 1e-10)
        assert -2.0 * sig.sigma[0, 0].imag == pytest.approx(chain_velocity(e), abs=1e-8)


def test_transpose_symmetry_real_models():
    for blocks in (ladder_blocks(t_diag=0.2),
                   build_lead_blocks(LatticeSpec(kind="dimer_chain",
                                                 params={"t1": 1.5, "t2": 0.5}))):
        for e in (-1.4, 0.35, 1.6):
            sig = embedding_potential(blocks, e, 1e-8)
            assert np.abs(sig.sigma - sig.sigma.T).max() <= 1e-10


def test_truncation_oracle_evanescent_energies():
    # 2000 layers at eta = 1e-6 reproduce the semi-infinite lead wherever the
    # states decay; inside a band the finite lead keeps standing waves.
    cases = [
        (chain_blocks(), 3.0),
        (chain_blocks(), -2.6),
        (ladder_blocks(), 3.6),
        (build_lead_blocks(LatticeSpec(kind="dimer_chain",
                                       params={"t1": 1.5, "t2": 0.5})), 0.4),
    ]
    for blocks, e in cases:
        sig = embedding_potential(blocks, e, 1e-6)
        oracle = truncated_lead_sigma(blocks.h00, blocks.h01, e, 1e-6)
        assert np.abs(sig.sigma - oracle).max() <= 1e-8


# ---------------------------------------------------------------------------
# residual gates written so that a NaN residual fails them


def _nan_matrix(n=1):
    return np.full((n, n), np.nan, dtype=complex)


def _doubled(g):
    """A stand-in for the doubling that returns g at every point of a stack."""
    return lambda h00, h01, zeye, max_iter: np.broadcast_to(g, h00.shape).copy()


def test_surface_green_gate_rejects_nan_from_both_routes(monkeypatch):
    monkeypatch.setattr(embed, "_decimation_stack", _doubled(_nan_matrix()))
    monkeypatch.setattr(embed, "_mode_matching", lambda h00, h01, z: _nan_matrix())
    with pytest.raises(DecimationError):
        surface_green(chain_blocks(), 0.3, 1e-8)


def test_surface_green_fallback_pick_keeps_finite_result(monkeypatch):
    # decimation misses the tolerance and the fallback returns NaN: the NaN
    # result must neither be picked nor pass the final gate
    monkeypatch.setattr(embed, "_decimation_stack", _doubled(np.array([[0.1j]])))
    monkeypatch.setattr(embed, "_mode_matching", lambda h00, h01, z: _nan_matrix())
    with pytest.raises(DecimationError) as info:
        surface_green(chain_blocks(), 0.3, 1e-8)
    assert np.isfinite(info.value.residual)


def test_surface_green_fallback_still_rescues(monkeypatch):
    monkeypatch.setattr(embed, "_decimation_stack", _doubled(_nan_matrix()))
    g = surface_green(chain_blocks(), 0.3, 1e-8)
    assert g[0, 0] == pytest.approx(chain_surface_green_exact(0.3, 1.0, 1e-8), abs=1e-10)


def _sigma_residual(monkeypatch, value):
    """Make the (z - h00 - Sigma) g = 1 residual read ``value`` at every point."""
    real = embed._sigma

    def sigma(g, h00, h01, zeye):
        s, res, tol = real(g, h00, h01, zeye)
        return s, np.full_like(res, value), tol

    monkeypatch.setattr(embed, "_sigma", sigma)


def test_embedding_potential_gate_rejects_nan(monkeypatch):
    _sigma_residual(monkeypatch, np.nan)
    with pytest.raises(DecimationError, match=r"\(z - h00 - Sigma\) g = 1 violated"):
        embedding_potential(chain_blocks(), 0.3, 1e-8)


def test_surface_green_returns_g_when_only_the_sigma_identity_fails(monkeypatch):
    # the Sigma identity is embedding_potential's gate, not surface_green's
    g = surface_green(chain_blocks(), 0.3, 1e-8)
    _sigma_residual(monkeypatch, 1.0)
    assert surface_green(chain_blocks(), 0.3, 1e-8).tobytes() == g.tobytes()
    with pytest.raises(DecimationError, match="violated with residual 1.000e[+]00"):
        embedding_potential(chain_blocks(), 0.3, 1e-8)


def test_anti_hermitian_part_gate_rejects_nan():
    # LAPACK returns finite eigenvalues for a matrix holding NaN; the gate must not rely on them
    sig = EmbeddingPotential(sigma=np.array([[np.nan, 0.0], [0.0, -1j]]), energy=0.0, eta=1e-8)
    with pytest.raises(DecimationError):
        anti_hermitian_part(sig)


def test_only_the_nsd_guard_diagonalizes_imsigma(monkeypatch):
    # surface_green and embedding_potential stop before ImSigma: no eigvalsh
    # runs for them and one for anti_hermitian_part; g and Sigma keep the
    # bits of the whole lead core
    blocks = HamiltonianBlocks(h00=np.array([[0.1, 0.4], [0.4, -0.2]]),
                               h01=np.array([[1.0, 0.3], [0.0, 0.7]]))
    full = embed._lead_stack(blocks.h00[None], blocks.h01[None], np.array([0.3 + 1e-8j]),
                             False, None)
    calls, real = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or real(a))
    assert surface_green(blocks, 0.3, 1e-8).tobytes() == full.g[0].tobytes()
    sig = embedding_potential(blocks, 0.3, 1e-8)
    assert sig.sigma.tobytes() == full.sigma[0].tobytes()
    assert sig.surface_g.tobytes() == full.g[0].tobytes()
    assert calls == []
    anti_hermitian_part(sig)
    assert calls == [(1, 2, 2)]
