"""The numpy-only transfer-pencil eigensolver (``embed._pencil_eig``).

scipy is a test dependency only: its QZ (``scipy.linalg.eig(a, b)``) is the
reference the shift-and-invert solver is held to, on random Hermitian leads
with full-rank, rank-deficient and zero h01, and through both callers, the
Bloch problem and the mode-matching fallback.  The singular pencil of a
lead with h01 = 0 at an eigenvalue of h00 must end in the library's own
errors (CLI exit 2, one line), and no library route may load scipy.
"""

import collections
import contextlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import HealthCheck, given, settings, strategies as st

from embedchan import LatticeSpec, bloch, build_lead_blocks, embed
from embedchan.bloch import bloch_states
from embedchan.cli import run_cli
from embedchan.errors import BlochSolveError, DecimationError
from embedchan.model import HamiltonianBlocks

# Worst seen over 3000 random leads of the strategy below: 6.4e-12 for the
# eigenvalues and 1.4e-11 for the mode-matching g, both relative.
BETA_RTOL = 1e-9  # eigenvalues with |beta| in [BETA_MIN, 1 / BETA_MIN]
BETA_MIN = 1e-3
G_RTOL = 1e-8

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _random_lead(rng, n, rank):
    """Hermitian h00 and an h01 of full rank, of rank < n, or zero."""
    def gauss(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    h00 = gauss(n, n)
    h00 = (h00 + h00.conj().T) / 2.0
    if rank == "full":
        h01 = gauss(n, n)
    elif rank == "deficient":
        r = int(rng.integers(0, n))
        h01 = gauss(n, r) @ gauss(r, n)
    else:
        h01 = np.zeros((n, n), dtype=complex)
    return h00, h01


def _bands(beta):
    """How many eigenvalues lie below, inside and above [BETA_MIN, 1 / BETA_MIN]."""
    mag = np.abs(beta)
    return (int((mag < BETA_MIN).sum()), int(((mag >= BETA_MIN) & (mag <= 1 / BETA_MIN)).sum()),
            int((mag > 1 / BETA_MIN).sum()))


def _assert_paired(beta, ref):
    """Every reference eigenvalue inside the band has its own partner in
    ``beta`` within BETA_RTOL, and both sides agree on the counts per band."""
    assert not np.isnan(beta).any()
    assert _bands(beta) == _bands(ref)
    free = list(beta)
    for x in ref:
        if BETA_MIN <= abs(x) <= 1 / BETA_MIN:
            j = int(np.argmin([abs(y - x) for y in free]))
            assert abs(free.pop(j) - x) <= BETA_RTOL * abs(x)


@contextlib.contextmanager
def _scipy_route():
    """Both callers of the solver on scipy's QZ instead."""
    with pytest.MonkeyPatch.context() as mp:
        for module in (embed, bloch):
            mp.setattr(module, "_pencil_eig", lambda a, b: sla.eig(a, b))
        yield


def _passes_fixed_point_gate(g, h00, h01, z):
    res = embed._fixed_point_residual(g[None], h00[None], h01[None], z * np.eye(len(h00))[None])
    return res[0] <= embed.FIXED_POINT_TOL * max(1.0, float(np.abs(g).max()))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       rank=st.sampled_from(["full", "deficient", "zero"]),
       eta=st.sampled_from([0.0, 1e-6, 1e-2]))
def test_pencil_eig_matches_qz_on_random_leads(seed, n, rank, eta):
    rng = np.random.default_rng(seed)
    h00, h01 = _random_lead(rng, n, rank)
    e = float(rng.uniform(-4.0, 4.0))
    z = complex(e, eta)
    a, b = embed._transfer_pencil(h00, h01, z)
    beta, v = embed._pencil_eig(a, b)
    _assert_paired(beta, sla.eig(a, b, right=False))
    assert np.allclose(np.linalg.norm(v, axis=0), 1.0)
    if eta == 0.0:  # the Bloch problem at real E: the same states in each direction
        blocks = HamiltonianBlocks(h00=h00, h01=h01)
        ours = collections.Counter(s.direction for s in bloch_states(blocks, e).states)
        with _scipy_route():
            ref = collections.Counter(s.direction for s in bloch_states(blocks, e).states)
        assert ours == ref
    else:  # the fallback at complex z: the same g, and it passes the gate
        g = embed._mode_matching(h00, h01, z)
        with _scipy_route():
            g_ref = embed._mode_matching(h00, h01, z)
        assert np.abs(g - g_ref).max() <= G_RTOL * max(1.0, float(np.abs(g_ref).max()))
        assert _passes_fixed_point_gate(g, h00, h01, z)


def test_infinite_eigenvalue_is_complex_inf_without_nan():
    # dimer hopping has rank 1: B v = 0 has a solution, whose beta is inf + 0j
    h00 = np.array([[0.0, 1.5], [1.5, 0.0]], dtype=complex)
    h01 = np.array([[0.0, 0.0], [0.5, 0.0]], dtype=complex)
    beta, _ = embed._pencil_eig(*embed._transfer_pencil(h00, h01, 0.3))
    infinite = beta[~np.isfinite(beta)]
    assert len(infinite) == 1 and infinite[0].real == np.inf and infinite[0].imag == 0.0


def test_first_shift_on_an_eigenvalue_takes_the_next(monkeypatch):
    calls, solve = [], np.linalg.solve  # one solve per shift tried
    monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or solve(*a))
    s0 = embed._PENCIL_SHIFTS[0]
    # A - s0 B exactly singular: the first solve raises
    a, b = np.diag([s0, 2.0 + 0.5j]), np.eye(2, dtype=complex)
    beta, _ = embed._pencil_eig(a, b)
    assert len(calls) == 2
    assert sorted(beta, key=abs) == pytest.approx([s0, 2.0 + 0.5j], rel=1e-14)

    # a chain lead at the z that makes s0 a root: A - s0 B is singular up to
    # rounding, the first shift fails the backward-error test, and the
    # mode-matching g is scipy's
    h00, h01 = np.array([[0.2 + 0j]]), np.array([[1.0 + 0j]])
    z = 0.2 + s0 + 1.0 / s0
    a, b = embed._transfer_pencil(h00, h01, z)
    calls.clear()
    beta, _ = embed._pencil_eig(a, b)
    assert len(calls) == 2
    _assert_paired(beta, sla.eig(a, b, right=False))
    g = embed._mode_matching(h00, h01, z)
    with _scipy_route():
        g_ref = embed._mode_matching(h00, h01, z)
    assert np.abs(g - g_ref).max() <= G_RTOL * max(1.0, float(np.abs(g_ref).max()))


@pytest.mark.parametrize("z", [-3.7 + 1e-6j, 1e-6j, 1.3 + 1e-3j, 2.9 + 1e-6j, -1.1, 0.7, 4.5])
def test_width_64_strip_pencil_takes_the_first_shift(z, monkeypatch):
    # the largest pencil a fallback point can build on the wide-strip model:
    # a non-periodic width-64 square strip, 128 x 128.  The first shift meets
    # the backward-error bound, the eigenvalues pair with QZ, and at complex
    # z the mode-matching g is scipy's (worst seen: 1e-13 on beta, 4e-15 on g)
    blocks = build_lead_blocks(LatticeSpec("square_strip", {"width": 64}))
    h00, h01 = blocks.h00.astype(complex), blocks.h01.astype(complex)
    a, b = embed._transfer_pencil(h00, h01, z)
    calls, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *x: calls.append(1) or solve(*x))
    beta, _ = embed._pencil_eig(a, b)
    assert len(calls) == 1  # one solve per shift tried
    _assert_paired(beta, sla.eig(a, b, right=False))
    if z.imag:
        g = embed._mode_matching(h00, h01, z)
        with _scipy_route():
            g_ref = embed._mode_matching(h00, h01, z)
        assert np.abs(g - g_ref).max() <= G_RTOL * max(1.0, float(np.abs(g_ref).max()))


# ---------------------------------------------------------------------------
# singular pencils: h01 = 0 at an eigenvalue of h00


_H00 = [[0.5, 0.0], [0.0, -0.3]]


def _c(rows):
    return [[[float(x), 0.0] for x in row] for row in rows]


@pytest.fixture()
def flat_lead_file(tmp_path):
    """Both leads h00 = diag(0.5, -0.3) with h01 = 0, on a one-site device."""
    lead = {"h00": _c(_H00), "h01": _c(np.zeros((2, 2)))}
    doc = {"lead_left": lead, "lead_right": lead,
           "device": {"h": _c([[0.0]]), "coupling_left": _c([[1.0], [0.0]]),
                      "coupling_right": _c([[0.0], [1.0]])}}
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_singular_pencil_has_nan_eigenpairs():
    a, b = embed._transfer_pencil(np.array(_H00, dtype=complex), np.zeros((2, 2)), 0.5)
    beta, v = embed._pencil_eig(a, b)
    assert np.isnan(beta).all() and np.isnan(v).all()


def test_singular_pencil_raises_the_library_errors():
    h00 = np.array(_H00, dtype=complex)
    with pytest.raises(BlochSolveError, match="^defective or ill-conditioned Bloch pencil"):
        bloch_states(HamiltonianBlocks(h00=h00, h01=np.zeros((2, 2))), 0.5)
    with pytest.raises(DecimationError, match="^transfer pencil returned only 0 finite modes, need 2$"):
        embed._mode_matching(h00, np.zeros((2, 2)), 0.5 + 0j)


def test_bloch_on_singular_pencil_exits_2_with_one_line(flat_lead_file, capsys):
    assert run_cli(["bloch", "--model", flat_lead_file, "--e", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: defective or ill-conditioned Bloch pencil")
    assert err.count("\n") == 1


def test_fallback_point_on_singular_pencil_exits_2_with_one_line(flat_lead_file, capsys,
                                                                 monkeypatch):
    # at eta > 0 the pencil is regular, so force the case: every doubling
    # returns NaN (each point takes the fallback), and the fallback's pencil
    # is built at real E, where it is singular
    pencil = embed._transfer_pencil
    monkeypatch.setattr(embed, "_decimation_stack",
                        lambda h00, h01, zeye, max_iter: np.full(h00.shape, np.nan, complex))
    monkeypatch.setattr(embed, "_transfer_pencil", lambda h00, h01, z: pencil(h00, h01, z.real))
    assert run_cli(["scatter", "--model", flat_lead_file, "--e", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err == "numerical failure: transfer pencil returned only 0 finite modes, need 2\n"


# beyond |E| ~ 1e154 the Frobenius norm of A overflows; the backward-error
# test then divides by inf and used to pass any eigenpair (bloch printed
# beta = 5.55e-17 for a chain root near 1e-308 at E = 1e308)
_HUGE_E = [1e155, -1e200, 1e308]


@pytest.mark.parametrize("e", _HUGE_E)
@pytest.mark.parametrize("kind", ["chain", "dimer_chain", "ladder"])
def test_overflowing_pencil_norm_passes_no_eigenpair(kind, e):
    blocks = build_lead_blocks(LatticeSpec(kind))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning on the way
        beta, v = embed._pencil_eig(*embed._transfer_pencil(blocks.h00, blocks.h01, e))
        assert np.isnan(beta).all() and np.isnan(v).all()
        with pytest.raises(BlochSolveError, match="^defective or ill-conditioned Bloch pencil"):
            bloch_states(blocks, e)
        with pytest.raises(DecimationError, match="^transfer pencil returned only 0 finite modes"):
            embed._mode_matching(blocks.h00, blocks.h01, complex(e, 1e-8))


@pytest.mark.parametrize("e", _HUGE_E)
def test_bloch_at_overflowing_energy_exits_2_with_one_line(tmp_path, capsys, e):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"lead_left": {"preset": "chain"}, "lead_right": {"preset": "chain"},
                                "device": {"h": [[0.0]], "coupling_left": [[1.0]],
                                           "coupling_right": [[1.0]]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["bloch", "--model", str(path), f"--e={e!r}"]) == 2
    assert capsys.readouterr().err == ("numerical failure: defective or ill-conditioned Bloch "
                                       "pencil (cond A ~ inf, cond B ~ 1.00e+00)\n")


# ---------------------------------------------------------------------------
# scipy stays out of the library


_NO_SCIPY = """
import json, os, sys, tempfile
import numpy as np
import embedchan
from embedchan import embed
from embedchan.cli import run_cli
print(sorted(m for m in sys.modules if m.startswith("scipy")))
path = os.path.join(tempfile.mkdtemp(), "dimer.json")
with open(path, "w") as fh:
    json.dump({"lead_left": {"preset": "dimer_chain", "params": {"t1": 1.5, "t2": 0.5}},
               "lead_right": {"preset": "chain"},
               "device": {"h": [[[0.0, 0.0]]], "coupling_left": [[[1.0, 0.0]], [[0.0, 0.0]]],
                          "coupling_right": [[[1.0, 0.0]]]}}, fh)
assert run_cli(["bloch", "--model", path, "--e", "1.5", "--out", path + ".csv"]) == 0
# a mode-matching point: the doubling returns NaN, so the core falls back
embed._decimation_stack = lambda h00, h01, zeye, max_iter: np.full(h00.shape, np.nan, complex)
blocks = embedchan.HamiltonianBlocks(h00=np.array([[0.0]]), h01=np.array([[1.0]]))
assert abs(embedchan.surface_green(blocks, 0.3, 1e-8)[0, 0]
           - embedchan.chain_surface_green_exact(0.3, 1.0, 1e-8)) < 1e-10
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_library_routes_never_import_scipy():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n[]\n"
