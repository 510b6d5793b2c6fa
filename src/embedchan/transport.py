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
from typing import NamedTuple

import numpy as np

from .channels import ChannelBasis, _unit_flux
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


def _device_solve(a: Array) -> tuple[Array, Array, Array]:
    """g = A^-1 for a stack of device matrices, the Green identity residuals
    max|A g - 1|, and whether each point is singular.  One singular slice
    fails a stacked LAPACK call, so then each point is solved alone; a point
    singular alone gets a NaN g and residual."""
    try:
        g = np.linalg.inv(a)  # the LAPACK solve against the identity, without a copy of it
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full_like(a, np.nan), np.full(1, np.nan), np.ones(1, bool)
        return tuple(map(np.concatenate, zip(*(_device_solve(a[i:i + 1]) for i in range(len(a))))))
    r = a @ g
    r -= np.eye(a.shape[-1])
    return g, np.abs(r).max(axis=(1, 2)), np.zeros(len(a), bool)


def _contact_block(c_out: Array, g: Array, c_in: Array) -> Array:
    """Restriction C_out g C_in^dag of a device Green function (or a stack)
    to two lead-surface spaces."""
    return c_out @ g @ c_in.conj().T


def _device_stack(device: DeviceSpec, sigma_l: Array, sigma_r: Array,
                  z: Array) -> tuple[Array, Array, list[SingularSolveError | None]]:
    """The one device core at a stack of points (self-energies of shape
    (B, n, n), complex energies of shape (B,)): g = A^-1 for the device
    matrices A = z - H_C - C_l^dag Sigma_l C_l - C_r^dag Sigma_r C_r, its
    g_rl, and each point's error from the Green identity gate, or None.
    Every point gives the same bits alone as in a stack, so
    :func:`device_green` is this core on a stack of one."""
    a = z[:, None, None] * np.eye(device.n_device)
    a -= device.h_c  # in place: one N x N array per point at a time
    a -= embed_self_energy(device.coupling_left, sigma_l)
    a -= embed_self_energy(device.coupling_right, sigma_r)
    del sigma_l, sigma_r  # a sweep passes copies: free them before the solve
    g, res, singular = _device_solve(a)
    errors: list[SingularSolveError | None] = [None] * len(z)
    for i in (~(res <= GREEN_IDENTITY_TOL)).nonzero()[0]:
        # the SVD behind np.linalg.cond raises on NaN or infinite entries
        cond = float(np.linalg.cond(a[i])) if np.isfinite(a[i]).all() else math.nan
        e, eta = z[i].real, z[i].imag
        errors[i] = SingularSolveError(
            f"singular device solve at E={e:g}, eta={eta:g} "
            f"(cond ~ {cond:.3e}); typically a bound state in a gap" if singular[i] else
            f"device Green identity residual {res[i]:.3e} at E={e:g} "
            f"(cond ~ {cond:.3e})",
            cond=cond,
        )
    return g, _contact_block(device.coupling_right, g, device.coupling_left), errors


def _green_function(device: DeviceSpec, g: Array, g_rl: Array, e: float,
                    eta: float) -> DeviceGreenFunction:
    """The read-only :class:`DeviceGreenFunction` of one point's slice of
    :func:`_device_stack`, with its g_rl."""
    cl, cr = device.coupling_left, device.coupling_right
    g_lr = _contact_block(cl, g, cr)
    for m in (g, g_lr, g_rl):
        m.setflags(write=False)
    return DeviceGreenFunction(g, g_lr, g_rl, float(e), float(eta), cl, cr)


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
    if not eta >= 0.0:
        raise ValueError("eta must be >= 0")
    (g,), (g_rl,), (error,) = _device_stack(device, sig_l.sigma[None], sig_r.sigma[None],
                                            np.array([complex(e, eta)]))
    if error is not None:
        raise error
    return _green_function(device, g, g_rl, e, eta)


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
    return _t_stack(g_rl[None], channels_l.vectors_unit_flux[None], channels_l.open_lambdas[None],
                    channels_r.vectors_unit_flux[None], channels_r.open_lambdas[None])[0]


def _t_stack(g_rl: Array, ul: Array, lam_l: Array, ur: Array, lam_r: Array) -> Array:
    """:func:`t_matrix` at a stack of points that share their open-channel
    counts: unit-flux open channels ``ul``, ``ur`` and their lambdas."""
    core = ur.conj().transpose(0, 2, 1) @ g_rl @ ul  # shape (B, n_open_r, n_open_l)
    return 4j * (lam_l[:, :, None] * lam_r[:, None, :]) * core.transpose(0, 2, 1)


class _Transmission(NamedTuple):
    """The transmission core at a stack of points (see :func:`_transmission_stack`)."""

    t: Array  # each point's t in the top left n_open_l x n_open_r corner of zeros (B, n_l, n_r)
    channel_sum: Array
    trace: Array
    discrepancy: Array


def _transmission_stack(g_rl: Array, im_l: Array, im_r: Array, left: tuple,
                        right: tuple) -> _Transmission:
    """The one transmission core at a stack of points: g_rl of shape
    (B, n_r, n_l), ImSigma of each lead, and per lead ``(lambdas,
    phase-fixed eigenvectors, open-channel counts)``.

    A point's open channels are its first n_open eigenpairs (``eigh`` sorts
    lambda ascending), so the points that share (n_open_l, n_open_r) share
    the shapes of their t-matrices and go through :func:`_t_stack` as one
    stack.  Every point gives the same bits alone as in a stack, so
    :func:`transmission` is this core on a stack of one.
    """
    (w_l, v_l, n_open_l), (w_r, v_r, n_open_r) = left, right
    b, n_r, n_l = g_rl.shape
    t, total = np.zeros((b, n_l, n_r), complex), np.zeros(b)
    pair = n_open_l * (n_r + 1) + n_open_r
    for key in set(pair.tolist()):
        grp, (kl, kr) = np.flatnonzero(pair == key), divmod(key, n_r + 1)
        ul, ur = _unit_flux(w_l[grp], v_l[grp], kl), _unit_flux(w_r[grp], v_r[grp], kr)
        t[grp, :kl, :kr] = tg = _t_stack(g_rl[grp], ul, w_l[grp, :kl], ur, w_r[grp, :kr])
        total[grp] = (np.abs(tg) ** 2).reshape(len(grp), -1).sum(axis=1)
    trace = np.real(4.0 * np.trace(im_l @ g_rl.conj().transpose(0, 2, 1) @ im_r @ g_rl,
                                   axis1=1, axis2=2))
    return _Transmission(t, total, trace, np.abs(total - trace))


def _result(tr: _Transmission, p: int, n_open_l: int, n_open_r: int, energy: float,
            eta: float) -> TransmissionResult:
    """The read-only :class:`TransmissionResult` of point ``p`` of a
    :func:`_transmission_stack`."""
    t = tr.t[p, :n_open_l, :n_open_r].copy()
    t_sq = np.abs(t) ** 2
    for m in (t, t_sq):
        m.setflags(write=False)
    return TransmissionResult(t, t_sq, float(tr.channel_sum[p]), float(tr.trace[p]),
                              float(tr.discrepancy[p]), energy, eta, n_open_l, n_open_r)


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
    ch = [(c.lambdas[None], c.vectors_unit_norm[None], np.array([c.n_open]))
          for c in (channels_l, channels_r)]
    tr = _transmission_stack(gdev.g_rl[None], im_l.matrix[None], im_r.matrix[None], *ch)
    return _result(tr, 0, channels_l.n_open, channels_r.n_open, gdev.energy, gdev.eta)
