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

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import DecimationError
from .model import Array, HamiltonianBlocks

TAU_PSD = 1e-10
DEFAULT_ETA_POINT = 1e-8
DEFAULT_ETA_SWEEP = 1e-6
FIXED_POINT_TOL = 1e-10


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


def _decimation(h00: Array, h01: Array, z: complex, max_iter: int) -> Array:
    """:func:`_decimation_stack` at one point."""
    return _decimation_stack(h00[None], h01[None], _zeye(np.array([z]), h00.shape[0]),
                             max_iter)[0]


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


def _anti_hermitian(sigma: Array) -> tuple[Array, Array, Array, Array]:
    """(Sigma - Sigma^dag)/2i made exactly Hermitian, its eigenvalues, its
    largest eigenvalue and the largest one the NSD guard allows.

    eigvalsh does not propagate NaN (it can return zeros), so only finite
    matrices are diagonalized; a non-finite one gets NaN eigenvalues and
    fails the guard.
    """
    m = (sigma - sigma.conj().transpose(0, 2, 1)) / 2j
    m = (m + m.conj().transpose(0, 2, 1)) / 2.0
    b, n = m.shape[:2]
    if not n:
        return m, np.zeros((b, 0)), np.zeros(b), np.full(b, TAU_PSD)
    norm = np.abs(m).max(axis=(1, 2))
    finite = np.isfinite(norm)
    if finite.all():
        w = np.linalg.eigvalsh(m)
    else:
        w = np.full((b, n), np.nan)
        if finite.any():
            w[finite] = np.linalg.eigvalsh(m[finite])
    return m, w, w.max(axis=1), np.maximum(TAU_PSD, 1e-12 * norm)


def _lead_stack(h00: Array, h01: Array, z: Array, max_iter: int = 200,
                tol: float = FIXED_POINT_TOL) -> tuple[Array, Array, Array, Array]:
    """Sigma, ImSigma and the ImSigma eigenvalues of one lead at a stack of
    points (blocks of shape (B, n, n), complex energies of shape (B,)), and
    the mask of points that passed every gate of :func:`embedding_potential`
    and :func:`anti_hermitian_part` without the mode-matching fallback.

    Where the mask holds, every value is bitwise equal to the per-point
    functions'.  The other points need the per-point path, which holds the
    fallback and the error text.
    """
    zeye = _zeye(z, h00.shape[-1])
    try:
        g = _decimation_stack(h00, h01, zeye, max_iter)
    except np.linalg.LinAlgError:  # one singular slice fails the whole stack
        nan = np.full(h00.shape, np.nan, dtype=complex)
        return nan, nan, np.full(h00.shape[:2], np.nan), np.zeros(len(z), bool)
    res, tol_eff = _fixed_point_tol(g, _fixed_point_residual(g, h00, h01, zeye), tol)
    sigma, ident, ident_tol = _sigma(g, h00, h01, zeye)
    m, w, top, top_tol = _anti_hermitian(sigma)
    return sigma, m, w, (res <= tol_eff) & (ident <= ident_tol) & (top <= top_tol)


def _mode_matching(h00: Array, h01: Array, z: complex) -> Array:
    """Surface Green function from the decaying modes of the transfer pencil.

    Solves beta^2 h01 phi + beta (h00 - z) phi + h01^dag phi = 0, keeps the n
    solutions smallest in |beta| (those decaying into the lead at Im z > 0),
    and builds g = (z - h00 - h01 F)^-1 with F = Phi diag(beta) Phi^-1.
    Stable at energies where the decimation inner solves become resonant.
    """
    n = h00.shape[0]
    eye = np.eye(n)
    zero = np.zeros((n, n))
    a = np.block([[zero, eye], [-h01.conj().T, z * eye - h00]])
    b = np.block([[eye, zero], [zero, h01]])
    w, v = sla.eig(a, b)
    finite = np.where(np.isfinite(w))[0]
    if finite.size < n:
        raise DecimationError(
            f"transfer pencil returned only {finite.size} finite modes, need {n}"
        )
    sel = finite[np.argsort(np.abs(w[finite]))][:n]
    phi = v[:n, sel]
    f = phi @ np.diag(w[sel]) @ np.linalg.inv(phi)
    return np.linalg.inv(z * eye - h00 - h01 @ f)


def surface_green(
    blocks: HamiltonianBlocks,
    e: float,
    eta: float,
    max_iter: int = 200,
    tol: float = FIXED_POINT_TOL,
) -> Array:
    """Retarded surface Green function of a semi-infinite lead.

    Parameters
    ----------
    blocks : HamiltonianBlocks
        Principal-layer blocks of the lead.
    e, eta : float
        Energy and positive imaginary part; eta > 0 selects the retarded
        (outgoing) branch and guarantees convergence.
    max_iter : int
        Maximum layer doublings before giving up.
    tol : float
        Acceptance threshold for the fixed-point residual
        ``max|g (z - h00 - h01 g h01^dag) - 1|``.

    Notes
    -----
    Layer doubling is the primary algorithm.  When e sits within ~eta of an
    eigenvalue of a partially decimated block the doubling loses digits to
    cancellation; in that case the mode-matching construction from the
    transfer pencil is used instead.  The returned g always satisfies the
    fixed point within ``tol`` or :class:`DecimationError` is raised.
    """
    if eta <= 0.0:
        raise ValueError("eta must be > 0 for a retarded surface Green function")
    z = complex(e, eta)
    h00, h01 = blocks.h00[None], blocks.h01[None]
    zeye = _zeye(np.array([z]), blocks.n)
    try:
        g = _decimation(blocks.h00, blocks.h01, z, max_iter)[None]
        res = _fixed_point_residual(g, h00, h01, zeye)
    except np.linalg.LinAlgError:
        # resonant inner solve blew up; the mode-matching route below is exact
        g = np.full(h00.shape, np.nan, dtype=complex)
        res = np.array([np.inf])
    (res,), (tol_eff,) = _fixed_point_tol(g, res, tol)
    g = g[0]
    if not res <= tol_eff:
        g2 = _mode_matching(blocks.h00, blocks.h01, z)
        (res2,) = _fixed_point_residual(g2[None], h00, h01, zeye)
        if res2 < res:  # a NaN res2 keeps the decimation result
            g, res = g2, res2
        tol_eff = tol * max(1.0, float(np.abs(g).max()))
    if not res <= tol_eff:
        raise DecimationError(
            f"surface Green function did not converge after {max_iter} doublings "
            f"(last residual {res:.3e} > {tol_eff:g})",
            residual=float(res),
        )
    return g


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
    g = surface_green(blocks, e, eta)
    zeye = _zeye(np.array([complex(e, eta)]), blocks.n)
    (sigma,), (res,), (tol,) = _sigma(g[None], blocks.h00[None], blocks.h01[None], zeye)
    if not res <= tol:
        raise DecimationError(
            f"(z - h00 - Sigma) g = 1 violated with residual {res:.3e}", residual=float(res)
        )
    return EmbeddingPotential(
        sigma=_freeze(sigma), energy=float(e), eta=float(eta), side=side, k=blocks.k,
        surface_g=_freeze(g),
    )


def anti_hermitian_part(sig: EmbeddingPotential) -> ImSigma:
    """Anti-Hermitian part (Sigma - Sigma^dag)/2i, stored exactly Hermitian.

    For real lead blocks Sigma is complex symmetric and this reduces to the
    elementwise imaginary part.  The result must be negative semi-definite;
    positive eigenvalues beyond numerical tolerance indicate a broken
    retarded branch and raise.
    """
    (m,), _, (top,), (top_tol,) = _anti_hermitian(sig.sigma[None])
    if not top <= top_tol:
        raise DecimationError(
            f"anti-Hermitian part has positive eigenvalue {top:.3e}; "
            "the retarded branch was not selected"
        )
    return ImSigma(
        matrix=_freeze(m), energy=sig.energy, eta=sig.eta, side=sig.side, k=sig.k
    )


def _freeze(a: Array) -> Array:
    a = np.asarray(a, dtype=complex)
    a.setflags(write=False)
    return a
