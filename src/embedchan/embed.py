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


def _fixed_point_residual(g: Array, h00: Array, h01: Array, z: complex) -> float:
    n = h00.shape[0]
    m = z * np.eye(n) - h00 - h01 @ g @ h01.conj().T
    return float(np.abs(g @ m - np.eye(n)).max())


def _decimation(h00: Array, h01: Array, z: complex, max_iter: int) -> Array:
    """Layer-doubling decimation; each pass doubles the effective lead depth."""
    n = h00.shape[0]
    eye = np.eye(n)
    eps_s = h00.astype(complex).copy()
    eps = h00.astype(complex).copy()
    alpha = h01.astype(complex).copy()
    beta = h01.conj().T.copy()
    scale = max(1.0, float(np.abs(h01).max()))
    for _ in range(max_iter):
        if max(float(np.abs(alpha).max()), float(np.abs(beta).max())) < 1e-15 * scale:
            break
        sol = np.linalg.solve(z * eye - eps, np.hstack([alpha, beta]))
        ga, gb = sol[:, :n], sol[:, n:]
        eps_s = eps_s + alpha @ gb
        eps = eps + alpha @ gb + beta @ ga
        alpha = alpha @ ga
        beta = beta @ gb
    return np.linalg.inv(z * eye - eps_s)


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
    h00, h01 = blocks.h00, blocks.h01
    try:
        g = _decimation(h00, h01, z, max_iter)
        res = _fixed_point_residual(g, h00, h01, z)
        if not np.isfinite(res):
            res = np.inf
    except np.linalg.LinAlgError:
        # resonant inner solve blew up; the mode-matching route below is exact
        g = np.full((blocks.n, blocks.n), np.nan, dtype=complex)
        res = np.inf
    # absolute tolerance at order-unity norms; scale-relative next to a
    # self-energy pole, where float64 cannot do better than |g| * eps
    tol_eff = tol * max(1.0, float(np.abs(g).max()) if np.isfinite(res) else 1.0)
    if not res <= tol_eff:
        g2 = _mode_matching(h00, h01, z)
        res2 = _fixed_point_residual(g2, h00, h01, z)
        if res2 < res:  # a NaN res2 keeps the decimation result
            g, res = g2, res2
        tol_eff = tol * max(1.0, float(np.abs(g).max()))
    if not res <= tol_eff:
        raise DecimationError(
            f"surface Green function did not converge after {max_iter} doublings "
            f"(last residual {res:.3e} > {tol_eff:g})",
            residual=res,
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
    z = complex(e, eta)
    g = surface_green(blocks, e, eta)
    sigma = blocks.h01 @ g @ blocks.h01.conj().T
    ident = (z * np.eye(blocks.n) - blocks.h00 - sigma) @ g - np.eye(blocks.n)
    res = float(np.abs(ident).max())
    if not res <= 1e-9 * max(1.0, float(np.abs(g).max())):
        raise DecimationError(
            f"(z - h00 - Sigma) g = 1 violated with residual {res:.3e}", residual=res
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
    m = (sig.sigma - sig.sigma.conj().T) / 2j
    m = (m + m.conj().T) / 2.0
    norm = float(np.abs(m).max()) if m.size else 0.0
    top = 0.0
    if m.size:
        # eigvalsh does not propagate NaN (it can return zeros), so a
        # non-finite m gets top = nan and fails the gate
        top = float(np.linalg.eigvalsh(m).max()) if math.isfinite(norm) else math.nan
    if not top <= max(TAU_PSD, 1e-12 * norm):
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
