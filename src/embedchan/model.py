"""Lattice models: lead specifications, device blocks, and the JSON config schema.

A model file has three sections::

    {
      "lead_left":  {"preset": "chain", "params": {"t": 1.0}},
      "lead_right": {"h00": [[...]], "h01": [[...]]},
      "device":     {"h": [[...]], "coupling_left": [[...]], "coupling_right": [[...]]}
    }

Matrices are row-major nested lists; a complex entry is a ``[re, im]`` pair and a
bare number means imaginary part zero.  All energies and hoppings are
dimensionless, measured in units of a reference hopping.

Lead orientation convention (used consistently everywhere): layer 0 is the lead
surface and the layer index grows into the lead, so ``h01`` is the hopping block
from a layer to the next layer deeper inside the lead.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

import numpy as np

from .errors import DimensionError, HermiticityError, ModelValidationError

HERMITICITY_TOL = 1e-12

Array = np.ndarray

PRESET_NAMES = ("chain", "dimer_chain", "ladder", "square_strip")

_PRESET_DEFAULTS: dict[str, dict[str, Any]] = {
    "chain": {"t": 1.0, "eps": 0.0},
    "dimer_chain": {"t1": 1.0, "t2": 0.5, "eps": 0.0},
    "ladder": {"t": 1.0, "t_perp": 0.5, "eps": 0.0, "t_diag": 0.0},
    "square_strip": {"t": 1.0, "eps": 0.0, "periodic": False},
}

_PRESET_REQUIRED: dict[str, tuple[str, ...]] = {
    "chain": (),
    "dimer_chain": (),
    "ladder": (),
    "square_strip": ("width",),
}


def fold_momentum(k: float) -> float:
    """Fold a transverse momentum into [-pi, pi)."""
    return float(((k + math.pi) % (2.0 * math.pi)) - math.pi)


def _as_complex(value: Any, path: str) -> complex:
    if isinstance(value, bool):
        raise ModelValidationError(f"{path}: expected a number, got a boolean")
    if isinstance(value, (int, float)):
        return complex(float(value), 0.0)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in value
    ):
        return complex(float(value[0]), float(value[1]))
    raise ModelValidationError(
        f"{path}: complex entries must be a number or a [re, im] pair, got {value!r}"
    )


def _as_matrix(obj: Any, path: str) -> Array:
    if not isinstance(obj, list) or not obj:
        raise ModelValidationError(f"{path}: expected a non-empty list of rows")
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise ModelValidationError(f"{path}[{i}]: expected a non-empty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ModelValidationError(
                f"{path}[{i}]: row length {len(row)} differs from row 0 length {width}"
            )
        rows.append([_as_complex(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows, dtype=complex)


def _check_finite(m: Array, name: str) -> None:
    bad = ~np.isfinite(m)
    if bad.any():
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise ModelValidationError(f"{name} has a non-finite entry {m[i, j]} at ({i}, {j})")


def _check_hermitian(m: Array, name: str, tol: float = HERMITICITY_TOL) -> None:
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the gate
        dev = np.abs(m - m.conj().T)
    worst = float(dev.max()) if dev.size else 0.0
    if not worst <= tol:
        i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        raise HermiticityError(
            f"{name} is not Hermitian within {tol:g}: violation at ({i}, {j}) "
            f"with |H - H^dag| = {worst:.3e}"
        )


def _readonly(a: Array) -> Array:
    a = np.asarray(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Transverse:
    """Transverse extent of a lead: width in sites and whether it wraps."""

    width: int
    periodic: bool


@dataclass(frozen=True)
class LatticeSpec:
    """A lead definition: either a named preset or explicit principal-layer blocks.

    Presets are expanded to blocks lazily by :func:`build_lead_blocks`; the
    spec itself only stores parameters.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    h00: Array | None = None
    h01: Array | None = None
    transverse: Transverse | None = None

    def __post_init__(self) -> None:
        if self.kind == "explicit":
            if self.h00 is None or self.h01 is None:
                raise ModelValidationError("explicit lattice requires h00 and h01")
            h00 = np.asarray(self.h00, dtype=complex)
            h01 = np.asarray(self.h01, dtype=complex)
            if h00.ndim != 2 or h00.shape[0] != h00.shape[1]:
                raise DimensionError(f"h00 must be square, got shape {h00.shape}")
            if h01.shape != h00.shape:
                raise DimensionError(
                    f"h01 shape {h01.shape} must equal h00 shape {h00.shape}"
                )
            _check_finite(h00, "h00")
            _check_finite(h01, "h01")
            _check_hermitian(h00, "h00")
            object.__setattr__(self, "h00", _readonly(h00))
            object.__setattr__(self, "h01", _readonly(h01))
        elif self.kind in PRESET_NAMES:
            params = dict(_PRESET_DEFAULTS[self.kind])
            params.update(self.params)
            _validate_preset_params(self.kind, params)
            object.__setattr__(self, "params", params)
            if self.kind == "square_strip":
                object.__setattr__(
                    self,
                    "transverse",
                    Transverse(int(params["width"]), bool(params["periodic"])),
                )
        else:
            raise ModelValidationError(
                f"unknown lattice kind {self.kind!r}; expected one of "
                f"{PRESET_NAMES} or 'explicit'"
            )

    @property
    def requires_momentum(self) -> bool:
        return self.transverse is not None and self.transverse.periodic

    @property
    def surface_dim(self) -> int:
        """Surface dimension per momentum point (the size of the built blocks)."""
        if self.kind == "explicit":
            return self.h00.shape[0]
        if self.kind == "chain":
            return 1
        if self.kind in ("dimer_chain", "ladder"):
            return 2
        # square_strip: the transverse ring reduces to one site per momentum
        return 1 if self.requires_momentum else int(self.params["width"])


def _validate_preset_params(kind: str, params: dict[str, Any]) -> None:
    known = set(_PRESET_DEFAULTS[kind]) | set(_PRESET_REQUIRED[kind])
    for name in params:
        if name not in known:
            raise ModelValidationError(f"params.{name}: unknown parameter for preset {kind!r}")
    for name in _PRESET_REQUIRED[kind]:
        if name not in params:
            raise ModelValidationError(f"params.{name}: required for preset {kind!r}")
    for name, value in params.items():
        if name == "periodic":
            if not isinstance(value, bool):
                raise ModelValidationError("params.periodic: must be a boolean")
            continue
        if name == "width":
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ModelValidationError("params.width: must be an integer >= 1")
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ModelValidationError(f"params.{name}: must be a real number")
        if not math.isfinite(float(value)):
            raise ModelValidationError(f"params.{name}: must be finite")
    positive = {"chain": ("t",), "dimer_chain": ("t1", "t2"), "ladder": ("t",), "square_strip": ("t",)}
    for name in positive[kind]:
        if float(params[name]) <= 0.0:
            raise ModelValidationError(f"params.{name}: must be > 0 for preset {kind!r}")


@dataclass(frozen=True)
class HamiltonianBlocks:
    """Principal-layer blocks of a semi-infinite periodic lead.

    ``h00`` is the intra-layer block, ``h01`` the hopping from layer m to
    layer m+1 with the layer index growing into the lead (layer 0 is the
    surface).  ``k`` records the transverse momentum the blocks were built at.
    """

    h00: Array
    h01: Array
    n: int = 0
    k: float | None = None

    def __post_init__(self) -> None:
        h00 = np.asarray(self.h00, dtype=complex)
        h01 = np.asarray(self.h01, dtype=complex)
        if h00.ndim != 2 or h00.shape[0] != h00.shape[1]:
            raise DimensionError(f"h00 must be square, got shape {h00.shape}")
        if h01.shape != h00.shape:
            raise DimensionError(f"h01 shape {h01.shape} must equal h00 shape {h00.shape}")
        # a non-finite h00 entry fails the Hermiticity gate (HermiticityError)
        _check_hermitian(h00, "h00")
        _check_finite(h01, "h01")
        object.__setattr__(self, "h00", _readonly(h00))
        object.__setattr__(self, "h01", _readonly(h01))
        object.__setattr__(self, "n", h00.shape[0])


@dataclass(frozen=True)
class DeviceSpec:
    """Finite device region plus the blocks coupling it to each lead surface.

    ``coupling_left``/``coupling_right`` are n_lead x N weight matrices mapping
    device amplitudes into the lead-surface space.  The index sets ``s_l`` and
    ``s_r`` record which device sites carry nonzero coupling weight.
    """

    h_c: Array
    coupling_left: Array
    coupling_right: Array
    s_l: tuple[int, ...] = ()
    s_r: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        h = np.asarray(self.h_c, dtype=complex)
        cl = np.asarray(self.coupling_left, dtype=complex)
        cr = np.asarray(self.coupling_right, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionError(f"device h must be square, got shape {h.shape}")
        _check_finite(h, "device h")
        _check_hermitian(h, "device h")
        n_dev = h.shape[0]
        for name, c in (("coupling_left", cl), ("coupling_right", cr)):
            if c.ndim != 2 or c.shape[1] != n_dev:
                raise DimensionError(
                    f"{name} shape {c.shape} incompatible with device h shape {h.shape}"
                )
            _check_finite(c, name)
        s_l = tuple(int(j) for j in np.where(np.abs(cl).sum(axis=0) > 0)[0])
        s_r = tuple(int(j) for j in np.where(np.abs(cr).sum(axis=0) > 0)[0])
        if n_dev > 1 and set(s_l) & set(s_r):
            raise ModelValidationError(
                f"surface index sets overlap: S_l={s_l}, S_r={s_r} "
                "(only a single-site device may share a surface site)"
            )
        object.__setattr__(self, "h_c", _readonly(h))
        object.__setattr__(self, "coupling_left", _readonly(cl))
        object.__setattr__(self, "coupling_right", _readonly(cr))
        object.__setattr__(self, "s_l", s_l)
        object.__setattr__(self, "s_r", s_r)

    @property
    def n_device(self) -> int:
        return self.h_c.shape[0]


@dataclass(frozen=True)
class Model:
    """A parsed two-terminal model: two leads and the device between them."""

    lead_l: LatticeSpec
    lead_r: LatticeSpec
    device: DeviceSpec

    def __post_init__(self) -> None:
        for side, lead, c in (
            ("left", self.lead_l, self.device.coupling_left),
            ("right", self.lead_r, self.device.coupling_right),
        ):
            if c.shape[0] != lead.surface_dim:
                raise DimensionError(
                    f"coupling_{side} has {c.shape[0]} lead rows but lead_{side} "
                    f"has surface dimension {lead.surface_dim}"
                )

    @property
    def requires_momentum(self) -> bool:
        return self.lead_l.requires_momentum or self.lead_r.requires_momentum


def _build_preset_blocks(spec: LatticeSpec, k: float | None) -> tuple[Array, Array]:
    p = spec.params
    if spec.kind == "chain":
        t, eps = float(p["t"]), float(p["eps"])
        return np.array([[eps]], complex), np.array([[-t]], complex)
    if spec.kind == "dimer_chain":
        t1, t2, eps = float(p["t1"]), float(p["t2"]), float(p["eps"])
        h00 = np.array([[eps, -t1], [-t1, eps]], complex)
        h01 = np.array([[0.0, 0.0], [-t2, 0.0]], complex)
        return h00, h01
    if spec.kind == "ladder":
        t, tp, eps, td = (float(p["t"]), float(p["t_perp"]), float(p["eps"]), float(p["t_diag"]))
        h00 = np.array([[eps, -tp], [-tp, eps]], complex)
        h01 = np.array([[-t, -td], [0.0, -t]], complex)
        return h00, h01
    # square_strip
    t, eps, width = float(p["t"]), float(p["eps"]), int(p["width"])
    if spec.requires_momentum:
        # transverse Bloch reduction: one effective site with on-site eps - 2t cos k
        h00 = np.array([[eps - 2.0 * t * math.cos(k)]], complex)
        return h00, np.array([[-t]], complex)
    h00 = np.zeros((width, width), complex)
    h00 += eps * np.eye(width)
    for i in range(width - 1):
        h00[i, i + 1] = h00[i + 1, i] = -t
    return h00, -t * np.eye(width, dtype=complex)


def build_lead_blocks(spec: LatticeSpec, k: float | None = None) -> HamiltonianBlocks:
    """Expand a lead specification into principal-layer blocks.

    Parameters
    ----------
    spec : LatticeSpec
        Lead definition (preset or explicit).
    k : float, optional
        Transverse momentum, required iff the lead is transverse-periodic.
        Values outside [-pi, pi) are folded, not rejected.
    """
    if spec.requires_momentum:
        if k is None:
            raise ModelValidationError(
                f"preset {spec.kind!r} is transverse-periodic: a momentum k is required"
            )
        k = fold_momentum(float(k))
    elif k is not None:
        raise ModelValidationError("momentum k supplied for a non-periodic lead")
    if spec.kind == "explicit":
        return HamiltonianBlocks(h00=spec.h00, h01=spec.h01, k=None)
    h00, h01 = _build_preset_blocks(spec, k)
    return HamiltonianBlocks(h00=h00, h01=h01, k=k)


def _parse_lead(obj: Any, path: str) -> LatticeSpec:
    if not isinstance(obj, dict):
        raise ModelValidationError(f"{path}: expected an object")
    if "preset" in obj:
        extra = set(obj) - {"preset", "params"}
        if extra:
            raise ModelValidationError(f"{path}: unexpected fields {sorted(extra)}")
        name = obj["preset"]
        if not isinstance(name, str):
            raise ModelValidationError(f"{path}.preset: expected a string")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise ModelValidationError(f"{path}.params: expected an object")
        try:
            return LatticeSpec(kind=name, params=params)
        except ModelValidationError as exc:
            raise ModelValidationError(f"{path}.{exc}") from None
    if "h00" in obj or "h01" in obj:
        extra = set(obj) - {"h00", "h01"}
        if extra:
            raise ModelValidationError(f"{path}: unexpected fields {sorted(extra)}")
        h00 = _as_matrix(obj.get("h00"), f"{path}.h00")
        h01 = _as_matrix(obj.get("h01"), f"{path}.h01")
        try:
            return LatticeSpec(kind="explicit", h00=h00, h01=h01)
        except ModelValidationError as exc:
            raise ModelValidationError(f"{path}.{exc}") from None
    raise ModelValidationError(f"{path}: lead must contain 'preset' or 'h00'/'h01'")


def _parse_device(obj: Any, path: str) -> DeviceSpec:
    if not isinstance(obj, dict):
        raise ModelValidationError(f"{path}: expected an object")
    extra = set(obj) - {"h", "coupling_left", "coupling_right"}
    if extra:
        raise ModelValidationError(f"{path}: unexpected fields {sorted(extra)}")
    for key in ("h", "coupling_left", "coupling_right"):
        if key not in obj:
            raise ModelValidationError(f"{path}.{key}: missing required field")
    h = _as_matrix(obj["h"], f"{path}.h")
    cl = _as_matrix(obj["coupling_left"], f"{path}.coupling_left")
    cr = _as_matrix(obj["coupling_right"], f"{path}.coupling_right")
    try:
        return DeviceSpec(h_c=h, coupling_left=cl, coupling_right=cr)
    except ModelValidationError as exc:
        raise ModelValidationError(f"{path}: {exc}") from None


def parse_model_dict(data: Any) -> Model:
    """Build a :class:`Model` from an already-decoded config document."""
    if not isinstance(data, dict):
        raise ModelValidationError("top level: expected an object")
    extra = set(data) - {"lead_left", "lead_right", "device"}
    if extra:
        raise ModelValidationError(f"top level: unexpected fields {sorted(extra)}")
    for key in ("lead_left", "lead_right", "device"):
        if key not in data:
            raise ModelValidationError(f"top level: missing required field {key!r}")
    lead_l = _parse_lead(data["lead_left"], "lead_left")
    lead_r = _parse_lead(data["lead_right"], "lead_right")
    device = _parse_device(data["device"], "device")
    return Model(lead_l=lead_l, lead_r=lead_r, device=device)


def parse_model(text: str) -> Model:
    """Parse a JSON model document; errors carry a line/field path."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelValidationError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return parse_model_dict(data)


def parse_model_file(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


# Every matrix of the canonical document sits at nesting depth 2: in
# ``device`` and in an explicit lead's object.
_MATRIX_LEVEL = 2
# json.dumps text of the placeholder string "\0<n>" that stands for matrix n
_MATRIX_SLOT = re.compile(r'"\\u0000(\d+)"')


def _matrix_parts(m: Array) -> Iterator[str]:
    """``json.dumps(..., indent=2)`` text of a complex matrix as rows of [re, im]
    pairs at nesting depth ``_MATRIX_LEVEL``, one piece per matrix row.

    One ``%r`` template per row formats the row's Python floats (``tolist``,
    not numpy scalars, whose repr differs); ``float.__repr__`` is what
    ``json`` writes for a float, so the text is the one ``json.dumps`` would
    produce.  The model classes reject NaN and infinities, which ``json``
    would spell differently.
    """
    m = np.ascontiguousarray(m, dtype=complex)
    rows, cols = m.shape
    if not rows:
        yield "[]"
        return
    ind = ["\n" + "  " * (_MATRIX_LEVEL + d) for d in range(4)]
    pair = f"[{ind[3]}%r,{ind[3]}%r{ind[2]}]"
    row = f"[{ind[2]}" + f",{ind[2]}".join([pair] * cols) + f"{ind[1]}]" if cols else "[]"
    re_im = m.view(np.float64)  # each row interleaves re, im
    yield f"[{ind[1]}"
    for r in range(rows):
        yield row % tuple(re_im[r].tolist()) + (f",{ind[1]}" if r + 1 < rows else f"{ind[0]}]")


def _model_parts(model: Model) -> Iterator[str]:
    """The canonical text of a model in pieces no larger than a matrix row.

    ``json.dumps`` writes the document with a placeholder string for each
    matrix; the placeholders are then replaced by ``_matrix_parts`` text.
    Preset names and parameters are validated identifiers and numbers, so no
    other string in the document can look like a placeholder.
    """
    matrices: list[Array] = []

    def slot(m: Array) -> str:
        matrices.append(m)
        return f"\0{len(matrices) - 1}"

    def lead(spec: LatticeSpec) -> dict[str, Any]:
        if spec.kind == "explicit":
            return {"h00": slot(spec.h00), "h01": slot(spec.h01)}
        return {"preset": spec.kind, "params": dict(spec.params)}

    dev = model.device
    doc = {
        "lead_left": lead(model.lead_l),
        "lead_right": lead(model.lead_r),
        "device": {
            "h": slot(dev.h_c),
            "coupling_left": slot(dev.coupling_left),
            "coupling_right": slot(dev.coupling_right),
        },
    }
    pieces = _MATRIX_SLOT.split(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    for n, piece in enumerate(pieces):  # text, matrix index, text, ..., text
        if n % 2:
            yield from _matrix_parts(matrices[int(piece)])
        else:
            yield piece


def serialize_model(model: Model) -> str:
    """Canonical JSON for a model; re-parsing reproduces identical blocks.

    The text is ``json.dumps(doc, sort_keys=True, indent=2)`` of the document
    with every matrix entry written as a ``[re, im]`` pair; the matrices are
    formatted directly, so the cost is linear in their size.
    """
    return "".join(_model_parts(model))


def model_hash(model: Model) -> str:
    """Stable hash of the canonical serialized form, fed to sha256 piece by piece."""
    h = hashlib.sha256()
    for part in _model_parts(model):
        h.update(part.encode("utf-8"))
    return h.hexdigest()
