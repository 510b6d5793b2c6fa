"""Command-line front end.

Commands: channels, bloch, transmit, scatter, fit-edge, peaks, validate.
Exit codes: 0 success, 1 validation error (arguments, model file, schema),
2 numerical failure.  Tabular sweeps go to CSV, single-point structured
results to JSON; floats are serialized with 17 significant digits so repeated
runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from . import __version__
from .bloch import bloch_states
from .errors import EmbedchanError, ModelValidationError
from .model import Model, build_lead_blocks, model_hash, parse_model_file
from .spectra import detect_peaks, device_eta, fit_band_edge, solve_point, sweep
from .transport import device_green, right_surface_wave, scattered_wave

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses exponents, so "--k -1.6e-05" would read
        # "-1.6e-05" as an option; every negative float literal is a value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits with code 2 on bad flags; the contract wants 1.
    def error(self, message):
        raise _UsageError(message)


def _finite_float(text: str) -> float:
    """argparse type for float flags: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _fmt(x: float) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return f"{x:.17g}"


def _fmt_k(k: float | None) -> str:
    return "" if k is None else _fmt(k)


def _cnum(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _cmat(m) -> list:
    return [[_cnum(v) for v in row] for row in np.asarray(m, dtype=complex)]


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _atomic_write(path, text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _add_common(p: argparse.ArgumentParser, sweep_flags: bool = True) -> None:
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=None,
                   help="output format (default depends on command)")
    p.add_argument("--k", action="append", type=_finite_float, default=None,
                   help="transverse momentum, repeatable")
    if sweep_flags:
        p.add_argument("--emin", type=_finite_float, default=-2.5)
        p.add_argument("--emax", type=_finite_float, default=2.5)
        p.add_argument("--npts", type=int, default=200)


def _grid(args) -> list[float]:
    if args.npts < 1:
        raise ModelValidationError("--npts must be >= 1")
    if args.npts > 1 and not args.emax > args.emin:
        raise ModelValidationError("--emax must exceed --emin")
    return list(np.linspace(args.emin, args.emax, args.npts))


def _load(args) -> Model:
    if not os.path.exists(args.model):
        raise ModelValidationError(f"model file not found: {args.model}")
    return parse_model_file(args.model)


def _sweep_metadata(sweep_result) -> dict:
    return dict(sweep_result.metadata)


def _cmd_channels(args) -> int:
    model = _load(args)
    result = sweep(model, _grid(args), eta=args.eta, k_list=args.k)
    side = args.side
    if (args.format or "csv") == "csv":
        lines = ["E,k,index,lambda,open"]
        for r in result.records:
            if not r.ok:
                continue
            lams = r.lambdas_l if side == "left" else r.lambdas_r
            n_open = r.n_open_l if side == "left" else r.n_open_r
            for idx, lam in enumerate(lams):
                is_open = 1 if idx < n_open else 0
                lines.append(f"{_fmt(r.e)},{_fmt_k(r.k)},{idx},{_fmt(lam)},{is_open}")
        _emit(args.out, "\n".join(lines) + "\n")
    else:
        doc = {
            "metadata": _sweep_metadata(result),
            "side": side,
            "records": [
                {
                    "e": r.e, "k": r.k, "status": r.status,
                    "lambdas": list(r.lambdas_l if side == "left" else r.lambdas_r),
                    "n_open": r.n_open_l if side == "left" else r.n_open_r,
                }
                for r in result.records
            ],
        }
        _emit(args.out, _json_text(doc))
    return EXIT_OK


def _cmd_transmit(args) -> int:
    model = _load(args)
    result = sweep(model, _grid(args), eta=args.eta, k_list=args.k)
    if (args.format or "csv") == "csv":
        lines = ["E,k,T_trace,T_channel_sum,discrepancy,n_open_l,n_open_r"]
        for r in result.records:
            if not r.ok:
                continue
            lines.append(
                f"{_fmt(r.e)},{_fmt_k(r.k)},{_fmt(r.t_trace)},{_fmt(r.t_channel_sum)},"
                f"{_fmt(r.discrepancy)},{r.n_open_l},{r.n_open_r}"
            )
        _emit(args.out, "\n".join(lines) + "\n")
    else:
        doc = {
            "metadata": _sweep_metadata(result),
            "records": [
                {
                    "e": r.e, "k": r.k, "status": r.status,
                    "t_trace": r.t_trace, "t_channel_sum": r.t_channel_sum,
                    "discrepancy": r.discrepancy,
                    "n_open_l": r.n_open_l, "n_open_r": r.n_open_r,
                }
                for r in result.records
            ],
        }
        if result.k_summed_trace is not None:
            doc["k_summed_trace"] = list(result.k_summed_trace)
            doc["k_summed_channel"] = list(result.k_summed_channel)
        _emit(args.out, _json_text(doc))
    return EXIT_OK


def _cmd_bloch(args) -> int:
    model = _load(args)
    ks = args.k if args.k else [None]
    if model.requires_momentum and args.k is None:
        raise ModelValidationError("model is transverse-periodic: supply --k")
    rows = []
    for k in ks:
        blocks = build_lead_blocks(
            model.lead_l, k if model.lead_l.requires_momentum else None
        )
        spec = bloch_states(blocks, args.e)
        for idx, s in enumerate(spec.states):
            rows.append((args.e, k, idx, s))
    if (args.format or "csv") == "csv":
        lines = ["E,k,index,beta_re,beta_im,abs_beta,propagating,velocity,direction"]
        for e, k, idx, s in rows:
            beta_re = _fmt(s.beta.real) if np.isfinite(s.beta) else "inf"
            beta_im = _fmt(s.beta.imag) if np.isfinite(s.beta) else "inf"
            absb = _fmt(abs(s.beta)) if np.isfinite(s.beta) else "inf"
            vel = _fmt(s.velocity) if s.velocity is not None else ""
            lines.append(
                f"{_fmt(e)},{_fmt_k(k)},{idx},{beta_re},{beta_im},{absb},"
                f"{1 if s.propagating else 0},{vel},{s.direction}"
            )
        _emit(args.out, "\n".join(lines) + "\n")
    else:
        doc = {
            "energy": args.e,
            "states": [
                {
                    "k": k, "index": idx,
                    "beta": _cnum(s.beta) if np.isfinite(s.beta) else "inf",
                    "abs_beta": abs(s.beta) if np.isfinite(s.beta) else "inf",
                    "propagating": s.propagating,
                    "velocity": s.velocity,
                    "direction": s.direction,
                    "phi": [_cnum(v) for v in s.phi],
                }
                for e, k, idx, s in rows
            ],
        }
        _emit(args.out, _json_text(doc))
    return EXIT_OK


def _cmd_scatter(args) -> int:
    model = _load(args)
    k = args.k[0] if args.k else None
    sol = solve_point(model, args.e, args.eta, k)
    ch = sol.channels_l
    if ch.n_open == 0:
        raise ModelValidationError(
            f"no open left channels at E={args.e:g}; nothing to inject"
        )
    if not (0 <= args.channel < ch.n_open):
        raise ModelValidationError(
            f"--channel {args.channel} out of range (0..{ch.n_open - 1})"
        )
    gdev = device_green(model.device, sol.sig_l, sol.sig_r, args.e,
                        device_eta(ch.n_open, sol.channels_r.n_open, args.eta))
    psi_inc = ch.vectors_unit_flux[:, args.channel]
    chi = scattered_wave(gdev, sol.im_l, psi_inc)
    chi_r = right_surface_wave(gdev, chi)
    t_flux = float(np.real(-2.0 * chi_r.conj() @ sol.im_r.matrix @ chi_r))
    t_row = sol.result.t[args.channel] if sol.result.t.size else np.zeros(0, complex)
    doc = {
        "energy": args.e, "eta": args.eta, "k": k, "channel": args.channel,
        "model_hash": model_hash(model),
        "psi_inc": [_cnum(v) for v in psi_inc],
        "chi": [_cnum(v) for v in chi],
        "chi_right": [_cnum(v) for v in chi_r],
        "transmitted_flux": t_flux,
        "t_row": [_cnum(v) for v in t_row],
        "t_row_sum": float(np.sum(np.abs(t_row) ** 2)),
    }
    _emit(args.out, _json_text(doc))
    return EXIT_OK


def _cmd_fit_edge(args) -> int:
    model = _load(args)
    if args.wmin >= args.wmax:
        raise ModelValidationError("--wmin must be smaller than --wmax")
    offsets = np.logspace(math.log10(args.wmin), math.log10(args.wmax), args.npts)
    sign = 1.0 if args.side == "above" else -1.0
    grid = sorted(args.e0 + sign * d for d in offsets)
    result = sweep(model, grid, eta=args.eta, k_list=args.k)
    fit = fit_band_edge(result, args.e0, (args.wmin, args.wmax), side=args.side)
    doc = {
        "e0": fit.e0, "window": list(fit.window), "side": fit.side,
        "exponent": fit.exponent, "stderr": fit.stderr, "n_points": fit.n_points,
        "eta": args.eta, "model_hash": model_hash(model),
    }
    _emit(args.out, _json_text(doc))
    return EXIT_OK


def _cmd_peaks(args) -> int:
    model = _load(args)
    if not args.eta or len(args.eta) < 2:
        raise ModelValidationError("peaks requires at least two --eta values")
    k = args.k[0] if args.k else None
    report = detect_peaks(model, _grid(args), args.eta, k=k)
    doc = {
        "etas": list(report.etas),
        "model_hash": model_hash(model),
        "peaks": [
            {
                "energy": p.energy, "height": p.height, "width": p.width,
                "eta": p.eta, "transmission": p.transmission,
            }
            for p in report.peaks
        ],
        "scaling_check": [dict(s) for s in report.scaling_check],
    }
    _emit(args.out, _json_text(doc))
    return EXIT_OK


def _cmd_validate(args) -> int:
    model = _load(args)
    energies = list(np.linspace(args.emin, args.emax, 5))
    ks = args.k if args.k else ([0.0] if model.requires_momentum else [None])
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append((name, bool(ok), detail))

    worst_psd = 0.0
    worst_eig = 0.0
    worst_orth = 0.0
    worst_fluxlaw = 0.0
    worst_disc = 0.0
    worst_ident = 0.0
    count_mismatch = 0
    for e in energies:
        for k in ks:
            sol = solve_point(model, float(e), args.eta, k)
            for sig, im, ch in (
                (sol.sig_l, sol.im_l, sol.channels_l),
                (sol.sig_r, sol.im_r, sol.channels_r),
            ):
                z = complex(sig.energy, sig.eta)
                blocks = build_lead_blocks(
                    model.lead_l if sig.side == "left" else model.lead_r,
                    k if (model.lead_l if sig.side == "left" else model.lead_r).requires_momentum else None,
                )
                ident = (z * np.eye(sig.n) - blocks.h00 - sig.sigma) @ sig.surface_g - np.eye(sig.n)
                worst_ident = max(worst_ident, float(np.abs(ident).max()))
                worst_psd = max(worst_psd, float(np.linalg.eigvalsh(im.matrix).max()))
                lam, vecs = ch.lambdas, ch.vectors_unit_norm
                worst_eig = max(worst_eig, float(
                    np.abs(im.matrix @ vecs - vecs * lam[None, :]).max()
                ))
                worst_orth = max(worst_orth, float(
                    np.abs(vecs.conj().T @ vecs - np.eye(ch.n)).max()
                ))
                fl = -2.0 * np.real(np.einsum("ij,jk,ki->i", vecs.conj().T, im.matrix, vecs))
                worst_fluxlaw = max(worst_fluxlaw, float(np.abs(fl + 2.0 * lam).max()))
                if sig.side == "left":
                    spec = bloch_states(blocks, float(e))
                    if len(spec.outgoing()) != ch.n_open:
                        count_mismatch += 1
            worst_disc = max(worst_disc, sol.result.discrepancy)
    record("green identity (z - h00 - Sigma) g = 1", worst_ident <= 1e-9,
           f"max residual {worst_ident:.3e} (tol 1e-9)")
    record("ImSigma negative semi-definite", worst_psd <= 1e-10,
           f"max eigenvalue {worst_psd:.3e} (tol 1e-10)")
    record("channel eigenpairs", worst_eig <= 1e-10,
           f"max eigen residual {worst_eig:.3e} (tol 1e-10)")
    record("channel orthonormality", worst_orth <= 1e-12,
           f"max deviation {worst_orth:.3e} (tol 1e-12)")
    record("flux law flux(psi_i) = -2 lambda_i", worst_fluxlaw <= 1e-10,
           f"max deviation {worst_fluxlaw:.3e} (tol 1e-10)")
    record("open channels = outgoing Bloch states", count_mismatch == 0,
           f"{count_mismatch} mismatching points")
    record("transmission channel-sum vs trace", worst_disc <= 1e-9,
           f"max discrepancy {worst_disc:.3e} (tol 1e-9)")

    lines = [f"validate: {args.model} (hash {model_hash(model)[:12]})",
             f"energies: {', '.join(_fmt(e) for e in energies)}  eta={_fmt(args.eta)}"]
    all_ok = True
    for name, ok, detail in checks:
        all_ok &= ok
        lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    lines.append(f"result: {'all checks passed' if all_ok else 'CHECKS FAILED'}")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        doc = {
            "model_hash": model_hash(model),
            "energies": [float(e) for e in energies],
            "eta": args.eta,
            "checks": [{"name": n, "pass": ok, "detail": d} for n, ok, d in checks],
            "all_passed": all_ok,
        }
        _atomic_write(args.out, _json_text(doc))
    return EXIT_OK if all_ok else EXIT_NUMERICAL


def build_parser() -> _Parser:
    parser = _Parser(prog="embedchan", description=__doc__)
    parser.add_argument("--version", action="version", version=f"embedchan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("channels", help="channel eigenvalue sweep")
    _add_common(p)
    p.add_argument("--eta", type=_finite_float, default=1e-6)
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.set_defaults(func=_cmd_channels)

    p = sub.add_parser("bloch", help="Bloch factors at one energy")
    _add_common(p, sweep_flags=False)
    p.add_argument("--e", type=_finite_float, required=True)
    p.set_defaults(func=_cmd_bloch)

    p = sub.add_parser("transmit", help="transmission sweep, both routes")
    _add_common(p)
    p.add_argument("--eta", type=_finite_float, default=1e-6)
    p.set_defaults(func=_cmd_transmit)

    p = sub.add_parser("scatter", help="scattered wave for one incident channel")
    _add_common(p, sweep_flags=False)
    p.add_argument("--e", type=_finite_float, required=True)
    p.add_argument("--eta", type=_finite_float, default=1e-8)
    p.add_argument("--channel", type=int, default=0)
    p.set_defaults(func=_cmd_scatter)

    p = sub.add_parser("fit-edge", help="band-edge exponent fit")
    _add_common(p, sweep_flags=False)
    p.add_argument("--e0", type=_finite_float, required=True)
    p.add_argument("--wmin", type=_finite_float, default=1e-4)
    p.add_argument("--wmax", type=_finite_float, default=1e-2)
    p.add_argument("--npts", type=int, default=48)
    p.add_argument("--eta", type=_finite_float, default=1e-6)
    p.add_argument("--side", choices=("above", "below"), default="above")
    p.set_defaults(func=_cmd_fit_edge)

    p = sub.add_parser("peaks", help="eigenvalue peak detection vs eta")
    _add_common(p)
    p.add_argument("--eta", action="append", type=_finite_float, default=None,
                   help="imaginary energy, must be given at least twice")
    p.set_defaults(func=_cmd_peaks)

    p = sub.add_parser("validate", help="run invariant checks at sampled energies")
    _add_common(p, sweep_flags=False)
    p.add_argument("--emin", type=_finite_float, default=-2.5)
    p.add_argument("--emax", type=_finite_float, default=2.5)
    p.add_argument("--eta", type=_finite_float, default=1e-8)
    p.set_defaults(func=_cmd_validate)

    return parser


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except ModelValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except EmbedchanError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
