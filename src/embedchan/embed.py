"""Lead surface Green functions and embedding potentials (self-energies).

Conventions, in the lead-local orientation of :mod:`embedchan.model` (layer 0
is the surface, layers grow into the lead, h01 hops one layer deeper):

* surface Green function:  g = (E + i eta - h00 - h01 g h01^dag)^-1
* embedding potential:     Sigma = h01 g h01^dag

Sigma lives on a virtual layer sitting just outside the lead, the space the
device couples into.  Its anti-Hermitian part (Sigma - Sigma^dag)/2i is
Hermitian, negative semi-definite for a retarded (outgoing) boundary
condition, and carries all flux information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DecimationError, ModelValidationError
from .model import Array, HamiltonianBlocks, _readonly

TAU_PSD = 1e-10
DEFAULT_ETA_POINT = 1e-8
DEFAULT_ETA_SWEEP = 1e-6
FIXED_POINT_TOL = 1e-10
MAX_DOUBLINGS = 200


@dataclass(frozen=True)
class EmbeddingPotential:
    """Complex surface operator Sigma(E + i eta) for one lead."""

    sigma: Array
    energy: float
    eta: float
    side: str = "left"
    k: float | None = None
    surface_g: Array | None = None

    @property
    def n(self) -> int:
        return self.sigma.shape[0]


@dataclass(frozen=True)
class ImSigma:
    """Hermitian anti-Hermitian part (Sigma - Sigma^dag)/2i of an embedding potential."""

    matrix: Array
    energy: float
    eta: float
    side: str = "left"
    k: float | None = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _check_eta(eta: float) -> None:
    """The imaginary energy must be positive and finite (NaN fails too)."""
    if not 0.0 < eta < math.inf:
        raise ModelValidationError(f"eta must be > 0 and finite, got {eta!r}")


def chain_surface_green_exact(e: float, t: float = 1.0, eta: float = 0.0) -> complex:
    """Closed-form surface Green function of the uniform 1D chain.

    Retarded branch of g = (z - sqrt(z - 2t) sqrt(z + 2t)) / (2 t^2).  Shipped
    as an independent oracle; the main path never calls it.
    """
    z = complex(e, eta)
    s = np.sqrt(z - 2.0 * t) * np.sqrt(z + 2.0 * t)
    return complex((z - s) / (2.0 * t * t))


# Stacked cores.  Every function below takes a stack of points along axis 0
# (blocks of shape (B, n, n), complex energies of shape (B,)) and treats each
# point on its own: a slice gives the same bits as a stack of one.  The
# per-point public functions call them on a stack of one; sweeps call them on
# many points at once.


def _pymax1(x: Array) -> Array:
    """Elementwise ``max(1.0, x)`` as Python's ``max`` computes it (NaN gives 1.0)."""
    return np.fmax(x, 1.0)


def _zeye(z: Array, n: int) -> Array:
    """The stack z_b * 1 of n x n matrices, one per complex energy."""
    return z[:, None, None] * np.eye(n)


def _fixed_point_residual(g: Array, h00: Array, h01: Array, zeye: Array) -> Array:
    m = zeye - h00 - h01 @ g @ h01.conj().transpose(0, 2, 1)
    return np.abs(g @ m - np.eye(h00.shape[-1])).max(axis=(1, 2))


def _decimation_stack(h00: Array, h01: Array, zeye: Array, max_iter: int) -> Array:
    """Layer-doubling decimation; each pass doubles the effective lead depth.

    Each point stops on its own once its couplings fall below 1e-15 of its
    hopping scale: converged points leave the working set, so every point
    takes exactly the doublings it would take alone.  A singular inner solve
    raises ``LinAlgError`` for the whole stack.
    """
    n = h00.shape[-1]
    out = h00.astype(complex)  # eps_s of every point, frozen as it converges
    eps_s, eps = out.copy(), out.copy()
    ab = np.concatenate([h01, h01.conj().transpose(0, 2, 1)], axis=2)  # [alpha, beta]
    thresh = 1e-15 * _pymax1(np.abs(h01).max(axis=(1, 2)))
    active, zw = np.arange(h00.shape[0]), zeye
    for _ in range(max_iter):
        r = np.abs(ab)
        a, b = np.maximum.reduce(r[:, :, :n], (1, 2)), np.maximum.reduce(r[:, :, n:], (1, 2))
        done = (a < thresh) > (b >= thresh)  # max(a, b) < thresh as Python's max takes it
        if np.count_nonzero(done):
            out[active[done]] = eps_s[done]
            keep = ~done
            if not np.count_nonzero(keep):
                break
            active, thresh, zw = active[keep], thresh[keep], zw[keep]
            eps_s, eps, ab = eps_s[keep], eps[keep], ab[keep]
        sol = np.linalg.solve(zw - eps, ab)
        alpha, beta, ga, gb = ab[:, :, :n], ab[:, :, n:], sol[:, :, :n], sol[:, :, n:]
        agb = alpha @ gb
        eps_s = eps_s + agb
        eps = eps + agb + beta @ ga
        ab = np.concatenate([alpha @ ga, beta @ gb], axis=2)
    else:
        out[active] = eps_s
    return np.linalg.inv(zeye - out)


def _transverse_modes(h00: Array, h01: Array) -> tuple[Array, Array] | None:
    """Transverse modes (eps, U) of a lead's blocks at each of its k (shape
    (K, n, n)), h00 = U diag(eps) U^dag, when every h01 is exactly
    h01[0, 0] * 1 and n >= 2; else None.

    Such a lead is n independent chains, one per eigenmode of h00, each with
    on-site eps_m and the hopping t = h01[0, 0].  The ``eigh`` here is the
    only diagonalization of h00, and callers run it once per lead and k (per
    sweep, per peak search, per :func:`surface_green` call), never per point
    of a stack.
    """
    n = h00.shape[-1]
    if n < 2 or not np.array_equal(h01, h01[:, :1, :1] * np.eye(n)):
        return None
    return np.linalg.eigh(h00)


def _surface_green_stack(h00: Array, h01: Array, zeye: Array,
                         modes: tuple[Array, Array] | None, max_iter: int) -> Array:
    """Surface Green functions of a stack of points.

    Without ``modes`` this is :func:`_decimation_stack`.  With the transverse
    modes (eps, U) of each point (see :func:`_transverse_modes`), the n mode
    chains of every point go through :func:`_decimation_stack` as one stack
    of 1 x 1 chains, each with its own doubling count, and g = U diag(g_m)
    U^dag.
    """
    if modes is None:
        return _decimation_stack(h00, h01, zeye, max_iter)
    eps, u = modes
    b, n = eps.shape
    z_chains = np.repeat(zeye[:, 0, 0], n)
    gm = _decimation_stack(eps.reshape(b * n, 1, 1),
                           np.repeat(h01[:, :1, :1], n, axis=0), _zeye(z_chains, 1),
                           max_iter).reshape(b, 1, n)
    return (u * gm) @ u.conj().transpose(0, 2, 1)


def _fixed_point_tol(g: Array, res: Array, tol: float) -> tuple[Array, Array]:
    """Residuals with NaN read as infinite, and the tolerance each must meet:
    absolute at order-unity norms, scale-relative next to a self-energy pole,
    where float64 cannot do better than |g| * eps."""
    res = np.fmin(res, np.inf)  # NaN -> inf; residuals are never negative
    return res, tol * _pymax1(np.where(res < np.inf, np.abs(g).max(axis=(1, 2)), 1.0))


def _sigma(g: Array, h00: Array, h01: Array, zeye: Array) -> tuple[Array, Array, Array]:
    """Sigma = h01 g h01^dag, the (z - h00 - Sigma) g = 1 residual and its tolerance."""
    sigma = h01 @ g @ h01.conj().transpose(0, 2, 1)
    res = np.abs((zeye - h00 - sigma) @ g - np.eye(h00.shape[-1])).max(axis=(1, 2))
    return sigma, res, 1e-9 * _pymax1(np.abs(g).max(axis=(1, 2)))


def _anti_hermitian(sigma: Array, vectors: bool) -> tuple[Array, ...]:
    """(Sigma - Sigma^dag)/2i made exactly Hermitian, its eigenvalues, with
    ``vectors`` its eigenvectors (``eigh``; else ``eigvalsh`` and None), its
    largest eigenvalue and the largest one the NSD guard allows.  Sweeps take
    ``eigh``, whose values are the guard and whose pairs are the channels;
    the peak search reads values only.

    eigvalsh and eigh do not propagate NaN (they can return zeros), so only
    finite matrices are diagonalized; a non-finite one gets NaN eigenpairs
    and fails the guard.
    """
    m = (sigma - sigma.conj().transpose(0, 2, 1)) / 2j
    m = (m + m.conj().transpose(0, 2, 1)) / 2.0
    b, n = m.shape[:2]
    w = np.full((b, n), np.nan)
    v = np.full((b, n, n), np.nan, dtype=complex) if vectors else None
    if not n:
        return m, w, v, np.zeros(b), np.full(b, TAU_PSD)
    norm = np.abs(m).max(axis=(1, 2))
    finite = np.isfinite(norm)
    if finite.any():
        if vectors:
            w[finite], v[finite] = np.linalg.eigh(m[finite])
        else:
            w[finite] = np.linalg.eigvalsh(m[finite])
    return m, w, v, w.max(axis=1), np.maximum(TAU_PSD, 1e-12 * norm)


# The gates of the lead core, in the order a point meets them; a failing
# point carries (stage, error) for the first gate it fails.
_FIXED_POINT, _SIGMA_IDENTITY, _NSD_GUARD = range(3)


class _Lead(NamedTuple):
    """The lead core at a stack of points (see :func:`_lead_stack`)."""

    g: Array | None
    sigma: Array
    im: Array
    w: Array
    v: Array | None
    errors: list[tuple[int, DecimationError] | None]


def _doubled(h00: Array, h01: Array, zeye: Array, modes: tuple[Array, Array] | None) -> Array:
    """:func:`_surface_green_stack` at the lead's depth limit.  One singular
    slice fails a stacked LAPACK call, so then each point is doubled alone;
    a point that fails alone gets a NaN g and the rescue."""
    try:
        return _surface_green_stack(h00, h01, zeye, modes, MAX_DOUBLINGS)
    except np.linalg.LinAlgError:
        if len(zeye) == 1:
            return np.full(h00.shape, np.nan, dtype=complex)
        return np.concatenate([
            _doubled(h00[i:i + 1], h01[i:i + 1], zeye[i:i + 1],
                     None if modes is None else (modes[0][i:i + 1], modes[1][i:i + 1]))
            for i in range(len(zeye))])


def _rescue(g: Array, res: float, h00: Array, h01: Array, zeye: Array,
            z: complex) -> tuple[int, DecimationError] | None:
    """Mode matching at one point (g of shape (n, n), blocks and z * 1 of
    shape (1, n, n)) that failed the fixed-point gate.  Its g replaces the
    doubled one in place when its residual is smaller; the error when
    neither meets the tolerance."""
    try:
        g2 = _mode_matching(h00[0], h01[0], z)
    except DecimationError as exc:
        return _FIXED_POINT, exc
    (res2,) = _fixed_point_residual(g2[None], h00, h01, zeye)
    if res2 < res:  # a NaN res2 keeps the decimation result
        g[...], res = g2, res2
    tol = FIXED_POINT_TOL * max(1.0, float(np.abs(g).max()))
    if res <= tol:
        return None
    return _FIXED_POINT, DecimationError(
        f"surface Green function did not converge after {MAX_DOUBLINGS} doublings "
        f"(last residual {res:.3e} > {tol:g})", residual=float(res))


def _nsd_error(top: float) -> DecimationError:
    return DecimationError(f"anti-Hermitian part has positive eigenvalue {top:.3e}; "
                           "the retarded branch was not selected")


def _lead_sigma(h00: Array, h01: Array, z: Array,
                modes: tuple[Array, Array] | None) -> tuple[Array, Array, list]:
    """The lead core up to the Sigma identity: g and Sigma of one lead at a
    stack of points (blocks of shape (B, n, n), complex energies of shape
    (B,), the lead's transverse modes at each point or None), and each
    point's (stage, error) for the first gate it fails, or None.

    A point that fails the fixed-point gate gets the mode-matching fallback
    here.  Every point gives the same bits alone as in a stack, so the
    per-point functions are this core on a stack of one.
    """
    zeye = _zeye(z, h00.shape[-1])
    g = _doubled(h00, h01, zeye, modes)
    res, tol = _fixed_point_tol(g, _fixed_point_residual(g, h00, h01, zeye), FIXED_POINT_TOL)
    errors = [None] * len(z)
    for i in (~(res <= tol)).nonzero()[0]:
        errors[i] = _rescue(g[i], res[i], h00[i:i + 1], h01[i:i + 1], zeye[i:i + 1], z[i])
    sigma, ident, ident_tol = _sigma(g, h00, h01, zeye)
    for i in (~(ident <= ident_tol)).nonzero()[0]:
        errors[i] = errors[i] or (_SIGMA_IDENTITY, DecimationError(
            f"(z - h00 - Sigma) g = 1 violated with residual {ident[i]:.3e}",
            residual=float(ident[i])))
    return g, sigma, errors


def _lead_stack(h00: Array, h01: Array, z: Array, vectors: bool,
                modes: tuple[Array, Array] | None) -> _Lead:
    """The one lead core: :func:`_lead_sigma`, then ImSigma and its
    eigenvalues and eigenvectors (see :func:`_anti_hermitian`) with the NSD
    guard."""
    g, sigma, errors = _lead_sigma(h00, h01, z, modes)
    m, w, v, top, top_tol = _anti_hermitian(sigma, vectors)
    for i in (~(top <= top_tol)).nonzero()[0]:
        errors[i] = errors[i] or (_NSD_GUARD, _nsd_error(top[i]))
    return _Lead(g, sigma, m, w, v, errors)


def _transfer_pencil(h00: Array, h01: Array, z: complex) -> tuple[Array, Array]:
    """Transfer pencil A v = beta B v, A = [[0, 1], [-h01^dag, z - h00]],
    B = [[1, 0], [0, h01]]: beta^2 h01 phi + beta (h00 - z) phi + h01^dag phi
    = 0 linearized in v = (phi, beta phi), for the fallback at complex z and
    the Bloch problem at real E."""
    n = h00.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    return (np.block([[zero, eye], [-h01.conj().T, z * eye - h00]]),
            np.block([[eye, zero], [zero, h01]]))


# Shifts of :func:`_pencil_eig`, tried in order: off the unit circle, where
# propagating Bloch states lie, away from 0, where a rank-deficient h01 puts
# beta = 0, and off the real axis, where real leads put their evanescent beta.
_PENCIL_SHIFTS = tuple(r * np.exp(1j * phase) for r, phase in
                       ((0.63, 0.91), (1.59, 2.27), (0.41, -1.93), (2.37, -0.59)))
# Largest backward error |gamma A v - alpha B v| / (|gamma| |A| + |alpha| |B|)
# an eigenpair (alpha / gamma, v) may have: QZ reaches a few eps, and a shift
# too close to an eigenvalue misses by orders of magnitude.
_PENCIL_BACKWARD_TOL = 1e-12


def _pencil_eig(a: Array, b: Array) -> tuple[Array, Array]:
    """Eigenvalues beta and unit eigenvectors v of the pencil A v = beta B v.

    Shift and invert: the eigenpairs (mu, v) of (A - sB)^-1 B give beta =
    s + 1/mu, and mu = 0 (B v = 0) gives beta = inf.  The shift is the first
    of ``_PENCIL_SHIFTS`` at which A - sB is invertible and every eigenpair
    meets ``_PENCIL_BACKWARD_TOL`` on (A, B) itself.  When none does (a
    singular pencil, such as h01 = 0 at an eigenvalue of h00), every
    eigenpair is NaN, as QZ gives 0/0 there.  So is every eigenpair of a
    pencil whose norm overflows (|z| beyond about 1e154), where the test
    would divide by inf and pass any pair.
    """
    with np.errstate(over="ignore"):
        norm_a, norm_b = np.linalg.norm(a), np.linalg.norm(b)
    for s in _PENCIL_SHIFTS if np.isfinite(norm_a) and np.isfinite(norm_b) else ():
        try:
            mu, v = np.linalg.eig(np.linalg.solve(a - s * b, b))
        except np.linalg.LinAlgError:
            continue
        alpha = 1.0 + s * mu  # beta = alpha / mu
        err = np.linalg.norm(a @ v * mu - b @ v * alpha, axis=0) / (
            np.abs(mu) * norm_a + np.abs(alpha) * norm_b)
        if err.max() <= _PENCIL_BACKWARD_TOL:
            beta = np.full(mu.shape, complex(np.inf))
            nonzero = mu != 0
            beta[nonzero] = s + 1.0 / mu[nonzero]
            return beta, v
    return np.full(len(a), complex(np.nan)), np.full(a.shape, complex(np.nan))


def _mode_matching(h00: Array, h01: Array, z: complex) -> Array:
    """Surface Green function from the decaying modes of the transfer pencil.

    Solves beta^2 h01 phi + beta (h00 - z) phi + h01^dag phi = 0, keeps the n
    solutions smallest in |beta| (those decaying into the lead at Im z > 0),
    and builds g = (z - h00 - h01 F)^-1 with F = Phi diag(beta) Phi^-1.
    Stable at energies where the decimation inner solves become resonant.
    """
    n = h00.shape[0]
    w, v = _pencil_eig(*_transfer_pencil(h00, h01, z))
    finite = np.where(np.isfinite(w))[0]
    if finite.size < n:
        raise DecimationError(
            f"transfer pencil returned only {finite.size} finite modes, need {n}"
        )
    sel = finite[np.argsort(np.abs(w[finite]))][:n]
    phi = v[:n, sel]
    f = phi @ np.diag(w[sel]) @ np.linalg.inv(phi)
    return np.linalg.inv(z * np.eye(n) - h00 - h01 @ f)


def _lead_at(blocks: HamiltonianBlocks, e: float, eta: float, stage: int) -> tuple[Array, Array]:
    """g and Sigma of the lead at one point (see :func:`_lead_sigma`); raises
    the error of a gate up to ``stage``."""
    _check_eta(eta)
    h00, h01 = blocks.h00[None], blocks.h01[None]
    (g,), (sigma,), (error,) = _lead_sigma(h00, h01, np.array([complex(e, eta)]),
                                           _transverse_modes(h00, h01))
    if error is not None and error[0] <= stage:
        raise error[1]
    return g, sigma


def surface_green(blocks: HamiltonianBlocks, e: float, eta: float) -> Array:
    """Retarded surface Green function of a semi-infinite lead.

    Parameters
    ----------
    blocks : HamiltonianBlocks
        Principal-layer blocks of the lead.
    e, eta : float
        Energy and positive imaginary part; eta > 0 selects the retarded
        (outgoing) branch and guarantees convergence.

    Notes
    -----
    Layer doubling, at most ``MAX_DOUBLINGS`` of them, is the primary
    algorithm.  A lead whose h01 is exactly h01[0, 0] * 1 (n >= 2) is doubled
    mode by mode: its n transverse modes are independent chains (see
    :func:`_surface_green_stack`).  When e sits within ~eta of an eigenvalue
    of a partially decimated block the doubling loses digits to
    cancellation; in that case the mode-matching construction from the
    transfer pencil is used instead.  The returned g always satisfies the
    fixed point ``max|g (z - h00 - h01 g h01^dag) - 1|`` within
    ``FIXED_POINT_TOL`` (scale-relative next to a pole) or
    :class:`DecimationError` is raised.
    """
    return _lead_at(blocks, e, eta, _FIXED_POINT)[0]


def embedding_potential(
    blocks: HamiltonianBlocks,
    e: float,
    eta: float = DEFAULT_ETA_POINT,
    side: str = "left",
) -> EmbeddingPotential:
    """Embedding potential Sigma = h01 g h01^dag of one lead.

    The identity (E + i eta - h00 - Sigma) g = 1 holds by construction and is
    re-checked against a 1e-9 residual.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    g, sigma = _lead_at(blocks, e, eta, _SIGMA_IDENTITY)
    return EmbeddingPotential(_readonly(sigma), float(e), float(eta), side, blocks.k, _readonly(g))


def anti_hermitian_part(sig: EmbeddingPotential) -> ImSigma:
    """Anti-Hermitian part (Sigma - Sigma^dag)/2i, stored exactly Hermitian.

    For real lead blocks Sigma is complex symmetric and this reduces to the
    elementwise imaginary part.  The result must be negative semi-definite;
    positive eigenvalues beyond numerical tolerance indicate a broken
    retarded branch and raise.
    """
    (m,), _, _, (top,), (top_tol,) = _anti_hermitian(sig.sigma[None], vectors=False)
    if not top <= top_tol:
        raise _nsd_error(top)
    return ImSigma(
        matrix=_readonly(m), energy=sig.energy, eta=sig.eta, side=sig.side, k=sig.k
    )
