"""Fixed-energy Bloch problem of a lead and the channel/Bloch transformation.

A lead state with cell amplitudes psi_m = beta^m phi (m growing into the
lead) solves (E - h00 - beta h01 - beta^-1 h01^dag) phi = 0.  Propagating
states have |beta| = 1 and group velocity, measured into the lead,

    v = -2 Im(beta phi^dag h01 phi) / (phi^dag phi).

Outgoing states (v > 0) are the lead's open Bloch channels; |beta| < 1 states
decay into the lead, |beta| > 1 grow.  Decaying and growing states pair up as
beta <-> 1/conj(beta) at real energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelBasis, fix_phase, flux
from .embed import ImSigma, _pencil_eig, _transfer_pencil
from .errors import BlochSolveError, ChannelCountMismatchError, FluxNormalizationError
from .model import Array, HamiltonianBlocks

TAU_PROP = 1e-6
_BIG = 1e12


@dataclass(frozen=True)
class BlochState:
    beta: complex
    phi: Array
    propagating: bool
    velocity: float | None
    direction: str
    residual: float

    @property
    def abs_beta(self) -> float:
        return float(abs(self.beta))


@dataclass(frozen=True)
class BlochSpectrum:
    states: tuple[BlochState, ...]
    energy: float
    k: float | None = None
    warnings: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return self.states[0].phi.shape[0] if self.states else 0

    def outgoing(self) -> tuple[BlochState, ...]:
        return tuple(s for s in self.states if s.direction == "outgoing")

    def propagating_states(self) -> tuple[BlochState, ...]:
        return tuple(s for s in self.states if s.propagating)


@dataclass(frozen=True)
class ChannelTransform:
    """Expansion of unit-flux outgoing Bloch states over unit-flux open channels."""

    a: Array
    unitarity_residual: float


def _pencil_residual(beta: complex, phi: Array, h00: Array, h01: Array, e: float) -> float:
    """Residual of the quadratic pencil, scaled to stay finite at beta -> 0, inf."""
    if abs(beta) <= 1.0:
        r = (beta * beta) * (h01 @ phi) + beta * ((h00 - e * np.eye(h00.shape[0])) @ phi) \
            + h01.conj().T @ phi
        return float(np.linalg.norm(r) / max(1.0, abs(beta)))
    g = 1.0 / beta
    r = (g * g) * (h01.conj().T @ phi) + g * ((h00 - e * np.eye(h00.shape[0])) @ phi) \
        + h01 @ phi
    return float(np.linalg.norm(r))


def bloch_states(blocks: HamiltonianBlocks, e: float) -> BlochSpectrum:
    """Solve the lead's fixed-energy Bloch problem (real energy, eta = 0).

    The quadratic problem is linearized as the transfer pencil of the
    surface Green function's fallback (:func:`embedchan.embed._transfer_pencil`)
    at real E, which handles rank-deficient h01 natively: missing inverse
    power shows up as beta = 0 / beta = inf pairs.  All 2n solutions are
    returned, sorted deterministically (outgoing, incoming, decaying, growing).
    """
    h00, h01 = blocks.h00, blocks.h01
    n = blocks.n
    a, b = _transfer_pencil(h00, h01, e)
    w, v = _pencil_eig(a, b)
    if np.any(np.isnan(w)):
        raise BlochSolveError(
            "defective or ill-conditioned Bloch pencil "
            f"(cond A ~ {np.linalg.cond(a):.2e}, cond B ~ {np.linalg.cond(b):.2e})"
        )
    warnings: list[str] = []
    states: list[BlochState] = []
    for i in range(w.shape[0]):
        beta = complex(w[i])
        infinite = not np.isfinite(beta) or abs(beta) > _BIG
        top, bot = v[:n, i], v[n:, i]
        phi = bot if (infinite or abs(beta) >= 1.0) else top
        if np.linalg.norm(phi) < 1e-12:
            phi = top if phi is bot else bot
        phi = phi / np.linalg.norm(phi)
        phi = fix_phase(phi.reshape(-1, 1))[:, 0]
        phi.setflags(write=False)
        if infinite:
            beta = complex(np.inf)
            res = float(np.linalg.norm(h01 @ phi))
            states.append(BlochState(beta, phi, False, None, "growing", res))
            continue
        res = _pencil_residual(beta, phi, h00, h01, e)
        propagating = abs(abs(beta) - 1.0) < TAU_PROP
        if propagating:
            vel = float(-2.0 * np.imag(beta * (phi.conj() @ h01 @ phi)))
            if abs(vel) < 1e-12:
                warnings.append(
                    f"band-edge degeneracy at E={e:g}: |beta|={abs(beta):.9f} "
                    f"with velocity {vel:.2e}"
                )
            direction = "outgoing" if vel > 0 else "incoming"
            states.append(BlochState(beta, phi, True, vel, direction, res))
        else:
            direction = "decaying" if abs(beta) < 1.0 else "growing"
            states.append(BlochState(beta, phi, False, None, direction, res))

    rank = {"outgoing": 0, "incoming": 1, "decaying": 2, "growing": 3}

    def key(s: BlochState):
        ang = 0.0 if not np.isfinite(s.beta) else round(float(np.angle(s.beta)), 12)
        if s.propagating:
            primary = -s.velocity if s.direction == "outgoing" else s.velocity
        else:
            mag = abs(s.beta) if np.isfinite(s.beta) else np.inf
            primary = -mag if s.direction == "decaying" else mag
        return (rank[s.direction], primary, ang)

    states.sort(key=key)
    return BlochSpectrum(states=tuple(states), energy=float(e), k=blocks.k,
                         warnings=tuple(warnings))


def outgoing_unit_flux(spectrum: BlochSpectrum, im_sigma: ImSigma) -> Array:
    """Matrix whose columns are the outgoing Bloch states scaled to unit flux."""
    out = spectrum.outgoing()
    cols = []
    for s in out:
        f = flux(s.phi, im_sigma)
        if f <= 0.0:
            raise FluxNormalizationError(
                f"outgoing Bloch state beta={s.beta:.6f} has non-positive flux {f:.3e}"
            )
        cols.append(s.phi / np.sqrt(f))
    if not cols:
        return np.zeros((im_sigma.n, 0), dtype=complex)
    return np.array(cols, dtype=complex).T


def bloch_flux_matrix(spectrum: BlochSpectrum, im_sigma: ImSigma) -> Array:
    """F_ij = phi_i^dag S phi_j over unit-flux outgoing states.

    Green's theorem makes F diagonal with entries -1/2 for any lead; the
    off-diagonal magnitude is a numerical-consistency probe.
    """
    u = outgoing_unit_flux(spectrum, im_sigma)
    return u.conj().T @ im_sigma.matrix @ u


def surface_overlap(spectrum: BlochSpectrum) -> Array:
    """O_ij = phi_i^dag phi_j of the outgoing states over the surface cell.

    Bloch states are orthogonal over the full cell but generally not over the
    surface alone, so O is Hermitian with nonzero off-diagonals.
    """
    out = spectrum.outgoing()
    u = np.array([s.phi for s in out], dtype=complex).T if out else np.zeros((0, 0))
    o = u.conj().T @ u
    return (o + o.conj().T) / 2.0


def channel_transform(
    spectrum: BlochSpectrum, basis: ChannelBasis, im_sigma: ImSigma
) -> ChannelTransform:
    """Expansion coefficients a[i, m] of outgoing Bloch state i over open channel m.

    Both families are unit-flux normalized; flux projection gives
    a_im = -2 u_m^dag S phi_i, and completeness of the open subspace makes
    the matrix unitary.  Raises when the two open counts disagree.
    """
    phi = outgoing_unit_flux(spectrum, im_sigma)
    n_out = phi.shape[1]
    n_open = basis.n_open
    if n_out != n_open:
        raise ChannelCountMismatchError(
            f"{n_out} outgoing Bloch states but {n_open} open channels at "
            f"E={spectrum.energy:g} (tau_prop={TAU_PROP:g}, tau_open={basis.tau_open:g})"
        )
    u = basis.vectors_unit_flux
    a = -2.0 * (u.conj().T @ im_sigma.matrix @ phi).T
    res = float(np.linalg.norm(a.conj().T @ a - np.eye(n_open)))
    return ChannelTransform(a=a, unitarity_residual=res)
