"""Conduction channels: the eigenbasis of the anti-Hermitian embedding potential.

At fixed energy the Hermitian operator S = (Sigma - Sigma^dag)/2i has real,
non-positive eigenvalues.  An eigenvector with strictly negative eigenvalue
lambda carries flux -2 lambda into the lead and is an open channel; eigenvalue
zero means closed.  Open channels rescaled by 1/sqrt(2|lambda|) carry unit
flux.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed import ImSigma, TAU_PSD
from .errors import FluxNormalizationError
from .model import Array


def default_tau_open(eta: float) -> float:
    """Open-channel threshold: must dominate the O(eta) leakage of eigenvalues."""
    return max(1e-10, 100.0 * eta)


def _tau_open(tau_open: float | None, eta: float) -> float:
    """The open-channel threshold in use: ``tau_open``, or the default at eta."""
    return float(default_tau_open(eta) if tau_open is None else tau_open)


def _is_open(lam: Array, tau_open: float) -> Array:
    """The open-channel rule: eigenvalue lambda < -tau_open, elementwise."""
    return lam < -tau_open


def fix_phase(vectors: Array) -> Array:
    """Rotate each column (of a matrix, or of every matrix of a stack) so its
    largest-magnitude component is real positive; a zero column stays as it is.
    The copy keeps the memory layout of ``vectors``."""
    out = np.array(vectors, dtype=complex)
    top = np.argmax(np.abs(out), axis=-2)[..., None, :]
    a = np.take_along_axis(out, top, axis=-2)
    mag = np.hypot(a.real, a.imag)  # abs() of a complex scalar to the bit, which np.abs is not
    turn = mag > 0.0
    np.copyto(out, out * (a.conj() / np.where(turn, mag, 1.0)), where=turn)
    a = np.take_along_axis(out, top, axis=-2)
    # kill rounding in the pinned component
    np.put_along_axis(out, top, np.where(turn, np.hypot(a.real, a.imag), a), axis=-2)
    return out


@dataclass(frozen=True)
class ChannelBasis:
    """Eigen-decomposition of an ImSigma with open/closed classification.

    lambdas ascending (most-open channel first); vectors_unit_norm holds the
    orthonormal eigenvectors as columns; vectors_unit_flux holds unit-flux
    versions of the open columns only.
    """

    lambdas: Array
    vectors_unit_norm: Array
    open_mask: Array
    vectors_unit_flux: Array
    energy: float
    eta: float
    side: str
    k: float | None
    tau_open: float

    @property
    def n(self) -> int:
        return self.lambdas.shape[0]

    @property
    def n_open(self) -> int:
        return int(self.open_mask.sum())

    @property
    def open_lambdas(self) -> Array:
        return self.lambdas[self.open_mask]


def channel_decomposition(im_sigma: ImSigma, tau_open: float | None = None) -> ChannelBasis:
    """Diagonalize ImSigma into channel functions.

    Eigenvalues come out ascending; each eigenvector phase is fixed so the
    largest-magnitude component is real positive, making outputs reproducible.
    Zero open channels is a valid outcome.
    """
    (lam,), (vecs,) = np.linalg.eigh(im_sigma.matrix[None])
    tau_open = _tau_open(tau_open, im_sigma.eta)
    return _basis(lam, fix_phase(vecs), int(_is_open(lam, tau_open).sum()), im_sigma.energy,
                  im_sigma.eta, im_sigma.side, im_sigma.k, tau_open)


def _unit_flux(lam: Array, vecs: Array, n_open: int) -> Array:
    """The unit-flux open channels of a stack of points (eigenvalues of shape
    (B, n), eigenvectors of shape (B, n, n)) with ``n_open`` open channels
    each: ``eigh`` sorts lambda ascending, so they are the first ``n_open``
    eigenvectors, each rescaled by 1/sqrt(2|lambda|).  Boolean indexing lays
    each matrix out column by column, which fixes the BLAS calls of the
    t-matrix and so its bits."""
    first = np.arange(lam.shape[1]) < n_open
    return vecs[:, :, first] / np.sqrt(2.0 * np.abs(lam[:, first]))[:, None, :]


def _basis(lam: Array, vecs: Array, n_open: int, energy: float, eta: float, side: str,
           k: float | None, tau_open: float) -> ChannelBasis:
    """The read-only channel basis of one point from its eigenvalues, its
    phase-fixed eigenvectors and its open-channel count."""
    open_mask = np.arange(len(lam)) < n_open
    u = _unit_flux(lam[None], vecs[None], n_open)[0]
    for a in (lam, vecs, open_mask, u):
        a.setflags(write=False)
    return ChannelBasis(lam, vecs, open_mask, u, energy, eta, side, k, tau_open)


def flux(psi: Array, im_sigma: ImSigma) -> float:
    """Flux -2 psi^dag S psi carried into the lead by a surface state."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape[0] != im_sigma.n:
        raise ValueError(f"state has length {psi.shape[0]}, ImSigma is {im_sigma.n}x{im_sigma.n}")
    return float(np.real(-2.0 * (psi.conj() @ im_sigma.matrix @ psi)))


def bond_current(psi_n: Array, psi_next: Array, h01: Array) -> float:
    """Probability current into the lead across one inter-layer bond.

    psi_n and psi_next are amplitudes on consecutive layers, psi_next one
    layer deeper; h01 is the hopping from layer m to m+1.  Positive values
    mean flow into the lead, matching the sign convention of :func:`flux`.
    """
    psi_n = np.asarray(psi_n, dtype=complex).reshape(-1)
    psi_next = np.asarray(psi_next, dtype=complex).reshape(-1)
    return float(-2.0 * np.imag(psi_n.conj() @ np.asarray(h01, complex) @ psi_next))


def unit_flux(psi: Array, im_sigma: ImSigma) -> Array:
    """Rescale a surface state to carry unit flux.

    Raises FluxNormalizationError for closed (fluxless) states; those keep
    unit-norm normalization by contract.
    """
    f = flux(psi, im_sigma)
    if f <= TAU_PSD:
        raise FluxNormalizationError(
            f"cannot unit-flux normalize a state with flux {f:.3e} <= 0"
        )
    return np.asarray(psi, dtype=complex) / np.sqrt(f)


def reconstruct_im_sigma(basis: ChannelBasis, convention: str = "unit_norm") -> Array:
    """Rebuild ImSigma from its channels.

    convention="unit_norm" sums lambda_i psi_i psi_i^dag over all channels;
    convention="unit_flux_open" sums -2 lambda_i^2 u_i u_i^dag over the open
    subset only.  Both reproduce the input operator since closed channels
    contribute nothing.
    """
    if convention == "unit_norm":
        v = basis.vectors_unit_norm
        return (v * basis.lambdas[None, :]) @ v.conj().T
    if convention == "unit_flux_open":
        u = basis.vectors_unit_flux
        lam2 = basis.open_lambdas ** 2
        return -2.0 * (u * lam2[None, :]) @ u.conj().T
    raise ValueError(f"unknown convention {convention!r}")
