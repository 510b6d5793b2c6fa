"""Two-terminal transport: device Green function, scattered waves, transmission.

The single embedding convention: a lead's Sigma lives on its virtual layer;
a coupling matrix C (n_lead x N_device) maps device amplitudes into that
space, so the lead contributes C^dag Sigma C to the device Hamiltonian.  With
C a 0/1 selector this attaches the device through a copy of the lead's own
inter-layer bond; scaling a C entry by c rescales that contact bond by c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelBasis
from .embed import EmbeddingPotential, ImSigma
from .errors import SingularSolveError
from .model import Array, DeviceSpec

GREEN_IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class DeviceGreenFunction:
    """Green function of the embedded device and its lead-surface blocks.

    g is N x N over device sites; g_lr = C_l g C_r^dag and g_rl = C_r g C_l^dag
    are its restrictions mapping between the two lead-surface spaces.
    """

    g: Array
    g_lr: Array
    g_rl: Array
    energy: float
    eta: float
    coupling_left: Array
    coupling_right: Array


@dataclass(frozen=True)
class TransmissionResult:
    """Channel-resolved and trace-formula transmission at one energy."""

    t: Array
    t_squared: Array
    total_channel_sum: float
    total_trace: float
    discrepancy: float
    energy: float
    eta: float
    n_open_l: int
    n_open_r: int


def embed_self_energy(coupling: Array, sigma: Array) -> Array:
    """Push a lead self-energy from its surface space into device indices."""
    return coupling.conj().T @ sigma @ coupling


def _cond(a: Array) -> float:
    # the SVD behind np.linalg.cond raises on NaN or infinite entries
    return float(np.linalg.cond(a)) if np.isfinite(a).all() else math.nan


def _device_matrix(device: DeviceSpec, sigma_l: Array, sigma_r: Array, z: Array) -> Array:
    """The stack A_b = z_b - H_C - C_l^dag Sigma_l C_l - C_r^dag Sigma_r C_r for
    self-energies of shape (B, n, n) and complex energies of shape (B,)."""
    a = z[:, None, None] * np.eye(device.n_device)
    a -= device.h_c  # in place: one N x N array per point at a time
    a -= embed_self_energy(device.coupling_left, sigma_l)
    a -= embed_self_energy(device.coupling_right, sigma_r)
    return a


def _device_solve(a: Array) -> tuple[Array, Array]:
    """g = A^-1 for a stack of device matrices, and the Green identity
    residuals max|A g - 1|.  A singular slice raises ``LinAlgError`` for the
    whole stack."""
    g = np.linalg.inv(a)  # the LAPACK solve against the identity, without a copy of it
    r = a @ g
    r -= np.eye(a.shape[-1])
    return g, np.abs(r).max(axis=(1, 2))


def _contact_block(c_out: Array, g: Array, c_in: Array) -> Array:
    """Restriction C_out g C_in^dag of a device Green function (or a stack)
    to two lead-surface spaces."""
    return c_out @ g @ c_in.conj().T


def device_green(
    device: DeviceSpec,
    sig_l: EmbeddingPotential,
    sig_r: EmbeddingPotential,
    e: float,
    eta: float = 0.0,
) -> DeviceGreenFunction:
    """Embedded device Green function g = (E + i eta - H_C - Sigma_l - Sigma_r)^-1.

    eta = 0 is allowed whenever the leads supply an imaginary part through
    their self-energies (both leads open); in gaps a positive eta avoids
    singular solves at bound-state energies.
    """
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    cl, cr = device.coupling_left, device.coupling_right
    a = _device_matrix(device, sig_l.sigma[None], sig_r.sigma[None],
                       np.array([complex(e, eta)]))
    try:
        (g,), (res,) = _device_solve(a)
    except np.linalg.LinAlgError:
        cond = _cond(a[0])
        raise SingularSolveError(
            f"singular device solve at E={e:g}, eta={eta:g} "
            f"(cond ~ {cond:.3e}); typically a bound state in a gap",
            cond=cond,
        ) from None
    if not res <= GREEN_IDENTITY_TOL:
        cond = _cond(a[0])
        raise SingularSolveError(
            f"device Green identity residual {res:.3e} at E={e:g} "
            f"(cond ~ {cond:.3e})",
            cond=cond,
        )
    g_lr = _contact_block(cl, g, cr)
    g_rl = _contact_block(cr, g, cl)
    for m in (g, g_lr, g_rl):
        m.setflags(write=False)
    return DeviceGreenFunction(
        g=g, g_lr=g_lr, g_rl=g_rl, energy=float(e), eta=float(eta),
        coupling_left=cl, coupling_right=cr,
    )


def scattered_wave(
    gdev: DeviceGreenFunction, im_sigma_l: ImSigma, psi_inc: Array
) -> Array:
    """Device wave function driven by an incident left-lead surface state.

    chi = -2i g C_l^dag S_l psi_inc.  psi_inc lives in the left lead-surface
    space (same space as the channel functions); restricting chi to the right
    surface via the right coupling gives the transmitted amplitudes.  The
    sign follows the discrete source identity
    (E - H - Sigma_l - Sigma_r) chi = -2i S_l psi_inc, checked against a
    direct large-lattice solve in the test suite.
    """
    psi_inc = np.asarray(psi_inc, dtype=complex).reshape(-1)
    if psi_inc.shape[0] != im_sigma_l.n:
        raise ValueError(
            f"incident state has length {psi_inc.shape[0]}, left surface is {im_sigma_l.n}"
        )
    src = gdev.coupling_left.conj().T @ (im_sigma_l.matrix @ psi_inc)
    return -2j * (gdev.g @ src)


def right_surface_wave(gdev: DeviceGreenFunction, chi: Array) -> Array:
    """Restrict a device wave to the right lead-surface space."""
    return gdev.coupling_right @ np.asarray(chi, dtype=complex).reshape(-1)


def t_matrix(g_rl: Array, channels_l: ChannelBasis, channels_r: ChannelBasis) -> Array:
    """Channel t-matrix t[i, j]: open left channel i to open right channel j.

    t_ij = 4i lambda_i^l lambda_j^r (u_j^r)^dag g_rl u_i^l with unit-flux
    channel functions; the exit-channel factor is conjugated, which keeps
    T_ij = |t_ij|^2 real and the channel sum equal to the trace formula for
    complex momentum-resolved channels as well.
    """
    ul, ur = channels_l.vectors_unit_flux, channels_r.vectors_unit_flux
    lam_l, lam_r = channels_l.open_lambdas, channels_r.open_lambdas
    core = ur.conj().T @ g_rl @ ul  # shape (n_open_r, n_open_l)
    return 4j * (lam_l[:, None] * lam_r[None, :]) * core.T


def transmission(
    gdev: DeviceGreenFunction,
    im_l: ImSigma,
    im_r: ImSigma,
    channels_l: ChannelBasis,
    channels_r: ChannelBasis,
) -> TransmissionResult:
    """Total transmission by the channel sum and by the trace formula.

    The trace route 4 Tr[S_l g_rl^dag S_r g_rl] never references channels and
    the two totals agree to numerical precision; their difference is reported
    as ``discrepancy``.
    """
    return _transmission(gdev.g_rl, im_l.matrix, im_r.matrix, channels_l, channels_r,
                         gdev.energy, gdev.eta)


def _transmission(g_rl: Array, im_l: Array, im_r: Array, channels_l: ChannelBasis,
                  channels_r: ChannelBasis, energy: float, eta: float) -> TransmissionResult:
    """:func:`transmission` from the arrays it reads."""
    t = t_matrix(g_rl, channels_l, channels_r)
    t_sq = np.abs(t) ** 2
    total_sum = float(t_sq.sum())
    total_trace = float(np.real(4.0 * np.trace(im_l @ g_rl.conj().T @ im_r @ g_rl)))
    for m in (t, t_sq):
        m.setflags(write=False)
    return TransmissionResult(
        t=t,
        t_squared=t_sq,
        total_channel_sum=total_sum,
        total_trace=total_trace,
        discrepancy=abs(total_sum - total_trace),
        energy=energy,
        eta=eta,
        n_open_l=channels_l.n_open,
        n_open_r=channels_r.n_open,
    )
