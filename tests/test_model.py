import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embedchan import (
    DeviceSpec,
    DimensionError,
    HamiltonianBlocks,
    HermiticityError,
    LatticeSpec,
    Model,
    ModelValidationError,
    build_lead_blocks,
    model_hash,
    parse_model,
    parse_model_dict,
    serialize_model,
)

from helpers import impurity_chain_model


def test_chain_preset_blocks():
    spec = LatticeSpec(kind="chain", params={"t": 1.0, "eps": 0.0})
    blocks = build_lead_blocks(spec)
    assert np.array_equal(blocks.h00, np.array([[0.0]]))
    assert np.array_equal(blocks.h01, np.array([[-1.0]]))


def test_ladder_preset_blocks():
    spec = LatticeSpec(kind="ladder", params={"t": 1.0, "t_perp": 0.5})
    blocks = build_lead_blocks(spec)
    assert np.array_equal(blocks.h00, np.array([[0.0, -0.5], [-0.5, 0.0]]))
    assert np.array_equal(blocks.h01, np.array([[-1.0, 0.0], [0.0, -1.0]]))


def test_dimer_preset_blocks():
    spec = LatticeSpec(kind="dimer_chain", params={"t1": 1.5, "t2": 0.5})
    blocks = build_lead_blocks(spec)
    assert np.array_equal(blocks.h00, np.array([[0.0, -1.5], [-1.5, 0.0]]))
    assert np.array_equal(blocks.h01, np.array([[0.0, 0.0], [-0.5, 0.0]]))


def test_explicit_hermiticity_violation_names_entry():
    with pytest.raises(HermiticityError, match=r"\(0, 1\)"):
        LatticeSpec(kind="explicit",
                    h00=np.array([[0.0, 1j], [1j, 0.0]]),
                    h01=np.eye(2))


def test_square_strip_momentum_reduction():
    spec = LatticeSpec(kind="square_strip", params={"t": 1.0, "width": 2, "periodic": True})
    b0 = build_lead_blocks(spec, k=0.0)
    assert b0.n == 1
    # transverse Bloch diagonalization by hand: on-site eps - 2 t cos(K)
    assert b0.h00[0, 0] == pytest.approx(-2.0, abs=1e-15)
    bpi = build_lead_blocks(spec, k=math.pi)
    assert bpi.h00[0, 0] == pytest.approx(2.0, abs=1e-15)
    assert np.array_equal(b0.h01, np.array([[-1.0]]))


def test_chain_ignores_missing_momentum():
    spec = LatticeSpec(kind="chain", params={})
    blocks = build_lead_blocks(spec)  # no k needed
    assert blocks.k is None
    with pytest.raises(ModelValidationError, match="non-periodic"):
        build_lead_blocks(spec, k=0.3)


def test_periodic_strip_requires_momentum():
    spec = LatticeSpec(kind="square_strip", params={"width": 2, "periodic": True})
    with pytest.raises(ModelValidationError, match="momentum"):
        build_lead_blocks(spec)


@given(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_momentum_folding_period(k):
    spec = LatticeSpec(kind="square_strip", params={"width": 3, "periodic": True})
    b1 = build_lead_blocks(spec, k=k)
    b2 = build_lead_blocks(spec, k=k + 2 * math.pi)
    # folding is exact up to the rounding of the k + 2 pi float addition
    assert np.abs(b1.h00 - b2.h00).max() <= 1e-14
    assert -math.pi <= b1.k < math.pi


def test_momentum_conjugation_symmetry():
    spec = LatticeSpec(kind="square_strip", params={"width": 4, "periodic": True})
    for k in (0.3, 1.1, 2.9):
        bp = build_lead_blocks(spec, k=k)
        bm = build_lead_blocks(spec, k=-k)
        assert np.abs(bm.h00 - bp.h00.conj()).max() <= 1e-14


def test_parse_example_document():
    text = json.dumps({
        "lead_left": {"preset": "chain", "params": {"t": 1.0, "eps": 0.0}},
        "lead_right": {"h00": [[0.0]], "h01": [[[-1.0, 0.0]]]},
        "device": {"h": [[1.0]], "coupling_left": [[1.0]], "coupling_right": [[1.0]]},
    })
    model = parse_model(text)
    assert model.lead_l.kind == "chain"
    assert model.lead_r.kind == "explicit"
    assert np.array_equal(model.lead_r.h01, np.array([[-1.0]]))
    assert model.device.s_l == (0,)
    assert model.device.s_r == (0,)  # single shared site is the allowed degenerate case


def test_parse_error_reports_location():
    with pytest.raises(ModelValidationError, match="line"):
        parse_model("{ not json }")


def test_parse_error_reports_field_path():
    with pytest.raises(ModelValidationError, match="device.coupling_left"):
        parse_model_dict({
            "lead_left": {"preset": "chain"},
            "lead_right": {"preset": "chain"},
            "device": {"h": [[0.0]], "coupling_left": [["x"]], "coupling_right": [[1.0]]},
        })


def test_unknown_preset_rejected():
    with pytest.raises(ModelValidationError, match="unknown lattice kind"):
        LatticeSpec(kind="hexagon", params={})


def test_width_positivity_rule():
    with pytest.raises(ModelValidationError, match="width"):
        LatticeSpec(kind="square_strip", params={"width": 0})


def test_unknown_parameter_rejected():
    with pytest.raises(ModelValidationError, match="unknown parameter"):
        LatticeSpec(kind="chain", params={"tt": 1.0})


def test_dimension_mismatch_names_blocks():
    with pytest.raises(DimensionError, match="h01"):
        LatticeSpec(kind="explicit", h00=np.zeros((2, 2)), h01=np.zeros((3, 3)))


def test_coupling_lead_dimension_checked():
    with pytest.raises(DimensionError, match="coupling_left"):
        parse_model_dict({
            "lead_left": {"preset": "ladder"},
            "lead_right": {"preset": "chain"},
            "device": {"h": [[0.0]], "coupling_left": [[1.0]], "coupling_right": [[1.0]]},
        })


def test_overlapping_surfaces_rejected():
    with pytest.raises(ModelValidationError, match="overlap"):
        parse_model_dict({
            "lead_left": {"preset": "chain"},
            "lead_right": {"preset": "chain"},
            "device": {"h": [[0.0, 0.0], [0.0, 0.0]],
                       "coupling_left": [[1.0, 0.0]],
                       "coupling_right": [[1.0, 0.0]]},
        })


_params = st.fixed_dictionaries({
    "t": st.floats(min_value=0.2, max_value=3.0),
    "eps": st.floats(min_value=-2.0, max_value=2.0),
})


@given(_params)
@settings(max_examples=50, deadline=None)
def test_preset_blocks_hermitian(params):
    for kind in ("chain", "ladder"):
        blocks = build_lead_blocks(LatticeSpec(kind=kind, params=params))
        assert np.abs(blocks.h00 - blocks.h00.conj().T).max() <= 1e-12


def test_serialize_roundtrip_identical_blocks():
    rng = np.random.default_rng(11)
    for _ in range(20):
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = (h + h.conj().T) / 2
        h01 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        model = parse_model_dict({
            "lead_left": {"h00": [[[v.real, v.imag] for v in row] for row in h],
                          "h01": [[[v.real, v.imag] for v in row] for row in h01]},
            "lead_right": {"preset": "dimer_chain",
                           "params": {"t1": float(rng.uniform(0.3, 2)),
                                      "t2": float(rng.uniform(0.3, 2))}},
            "device": {"h": [[0.0, 0.0], [0.0, float(rng.normal())]],
                       "coupling_left": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                       "coupling_right": [[0.0, 0.0], [0.0, 1.0]]},
        })
        again = parse_model(serialize_model(model))
        b1 = build_lead_blocks(model.lead_l)
        b2 = build_lead_blocks(again.lead_l)
        assert np.array_equal(b1.h00, b2.h00) and np.array_equal(b1.h01, b2.h01)
        c1 = build_lead_blocks(model.lead_r)
        c2 = build_lead_blocks(again.lead_r)
        assert np.array_equal(c1.h00, c2.h00) and np.array_equal(c1.h01, c2.h01)
        assert np.array_equal(model.device.h_c, again.device.h_c)
        assert serialize_model(model) == serialize_model(again)


def test_blocks_are_readonly():
    model = impurity_chain_model()
    blocks = build_lead_blocks(model.lead_l)
    with pytest.raises(ValueError):
        blocks.h00[0, 0] = 5.0


# ---------------------------------------------------------------------------
# canonical serialization and model_hash


def _reference_text(model) -> str:
    """The canonical text as json.dumps writes it: matrices as [re, im] pairs."""

    def mat(m):
        return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, complex)]

    def lead(spec):
        if spec.kind == "explicit":
            return {"h00": mat(spec.h00), "h01": mat(spec.h01)}
        return {"preset": spec.kind, "params": dict(spec.params)}

    doc = {
        "lead_left": lead(model.lead_l),
        "lead_right": lead(model.lead_r),
        "device": {
            "h": mat(model.device.h_c),
            "coupling_left": mat(model.device.coupling_left),
            "coupling_right": mat(model.device.coupling_right),
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# values whose text is easy to get wrong: signed zero, subnormals, huge, tiny
_AWKWARD = (-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300, 1.0 / 3.0, 0.1)


def _random_model(rng, n_dev: int, n_lead: int):
    def awkward(shape):
        m = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 6, size=shape)
        mask = rng.random(shape) < 0.3
        m[mask] = rng.choice(_AWKWARD, size=int(mask.sum()))
        return m

    h00 = awkward((n_lead, n_lead)) + 1j * awkward((n_lead, n_lead))
    h00 = np.triu(h00, 1) + np.triu(h00, 1).conj().T + np.diag(awkward(n_lead))
    h01 = awkward((n_lead, n_lead)) + 1j * awkward((n_lead, n_lead))
    h = awkward((n_dev, n_dev))
    h = np.triu(h, 1) + np.triu(h, 1).T + np.diag(awkward(n_dev))
    cl = np.zeros((n_lead, n_dev), complex)
    cr = np.zeros((1, n_dev), complex)
    cl[:, 0] = awkward(n_lead) + 1j * awkward(n_lead)
    cr[0, n_dev - 1] = 1.0
    lead_l = LatticeSpec(kind="explicit", h00=h00, h01=h01)
    lead_r = LatticeSpec(kind="chain", params={"t": float(rng.uniform(0.5, 2.0)), "eps": -0.0})
    device = DeviceSpec(h_c=h, coupling_left=cl, coupling_right=cr)
    return Model(lead_l=lead_l, lead_r=lead_r, device=device)


@pytest.mark.parametrize("n_dev", [1, 2, 3, 7, 16, 64])
def test_serialize_model_matches_json_dumps(n_dev):
    rng = np.random.default_rng(n_dev)
    for n_lead in (1, 2, 5):
        model = _random_model(rng, n_dev, n_lead)
        reference = _reference_text(model)
        assert serialize_model(model) == reference
        assert model_hash(model) == hashlib.sha256(reference.encode("utf-8")).hexdigest()


def test_serialize_model_matches_json_dumps_presets():
    for model in (impurity_chain_model(), impurity_chain_model(eps_imp=-0.0, t=2)):
        assert serialize_model(model) == _reference_text(model)
    model = parse_model_dict({
        "lead_left": {"preset": "square_strip", "params": {"t": 1, "width": 4, "periodic": True}},
        "lead_right": {"preset": "ladder", "params": {"t_perp": 0.25, "t_diag": 1e-300}},
        "device": {"h": [[0.0, -1.0], [-1.0, 0.0]],
                   "coupling_left": [[1.0, 0.0]],
                   "coupling_right": [[0.0, 1.0], [0.0, 5e-324]]},
    })
    assert serialize_model(model) == _reference_text(model)


# model_hash values of the canonical text, recorded when serialize_model was
# json.dumps of the whole document; they are pure Python and platform-free.
_GOLDEN_HASHES = {
    "9562bf1a77d449f4cf80e9a78f32244e7ebfe3f35561d0371a2331586d82abc0": {
        "lead_left": {"preset": "chain", "params": {"t": 1.0}},
        "lead_right": {"preset": "chain", "params": {"t": 1.0}},
        "device": {"h": [[1.0]], "coupling_left": [[1.0]], "coupling_right": [[1.0]]},
    },
    "ad3f779c075ae162eafd02a17df16aa2136ded4bddd81d261b1911114ae3146e": {
        "lead_left": {"preset": "ladder", "params": {"t": 1.0, "t_perp": 0.5}},
        "lead_right": {"h00": [[0.0]], "h01": [[[-1.0, 0.0]]]},
        "device": {"h": [[0.0, -0.25], [-0.25, 0.5]],
                   "coupling_left": [[1.0, 0.0], [0.0, 0.0]],
                   "coupling_right": [[0.0, 1.0]]},
    },
    "19f5caa1733b72de08fe749739b6b243a69a6f1a33245bc8793ab5a154fab79d": {
        "lead_left": {"preset": "square_strip",
                      "params": {"t": 1, "width": 32, "periodic": True}},
        "lead_right": {"preset": "square_strip",
                       "params": {"t": 1.0, "width": 32, "periodic": True, "eps": -0.0}},
        "device": {"h": [[0.1, -1.0], [-1.0, -0.2]],
                   "coupling_left": [[1.0, 0.0]], "coupling_right": [[0.0, 1.0]]},
    },
    "40046de9a202896ba673689040deb592560166824ef64bafad982ef02c52c6d1": {
        "lead_left": {"h00": [[1e300, [0.5, -0.25]], [[0.5, 0.25], -5e-324]],
                      "h01": [[[0.1, 1e-310], -0.0], [[0.0, -0.0], [1.0, 2.0]]]},
        "lead_right": {"preset": "dimer_chain",
                       "params": {"t1": 0.3, "t2": 1.7, "eps": 0.05}},
        "device": {"h": [[0.0, [0.0, 1.0 / 3.0]], [[0.0, -1.0 / 3.0], 2.5]],
                   "coupling_left": [[1.0, 0.0], [0.0, 0.0]],
                   "coupling_right": [[0.0, 1.0], [0.0, 0.0]]},
    },
}


def test_serialize_model_matches_json_dumps_empty_device():
    chain = LatticeSpec(kind="chain")
    device = DeviceSpec(h_c=np.zeros((0, 0)), coupling_left=np.zeros((1, 0)),
                        coupling_right=np.zeros((1, 0)))
    model = Model(lead_l=chain, lead_r=chain, device=device)
    assert serialize_model(model) == _reference_text(model)


@pytest.mark.parametrize("digest", sorted(_GOLDEN_HASHES))
def test_model_hash_golden(digest):
    assert model_hash(parse_model_dict(_GOLDEN_HASHES[digest])) == digest


# ---------------------------------------------------------------------------
# non-finite model matrices


def _chain_doc(**device):
    doc = {"lead_left": {"preset": "chain"}, "lead_right": {"preset": "chain"},
           "device": {"h": [[0.0]], "coupling_left": [[1.0]], "coupling_right": [[1.0]]}}
    doc["device"].update(device)
    return doc


@pytest.mark.parametrize("field", ["h", "coupling_left", "coupling_right"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, [0.0, math.nan]])
def test_device_matrix_non_finite_rejected(field, bad):
    with pytest.raises(ModelValidationError, match=f"{field}.*non-finite"):
        parse_model_dict(_chain_doc(**{field: [[bad]]}))


@pytest.mark.parametrize("block", ["h00", "h01"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, [1.0, -math.inf]])
def test_explicit_lead_non_finite_rejected(block, bad):
    lead = {"h00": [[0.0]], "h01": [[-1.0]]}
    lead[block] = [[bad]]
    doc = _chain_doc()
    doc["lead_right"] = lead
    with pytest.raises(ModelValidationError, match=f"lead_right.{block}.*non-finite"):
        parse_model_dict(doc)


def test_non_finite_rejected_from_json_text():
    # json accepts the NaN and Infinity literals, so the text route must reject them too
    with pytest.raises(ModelValidationError, match="non-finite"):
        parse_model(json.dumps(_chain_doc(h=[[math.nan]])))


def test_hermiticity_gate_rejects_nan():
    with pytest.raises(HermiticityError):
        HamiltonianBlocks(h00=np.array([[math.nan]]), h01=np.array([[-1.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
def test_lead_blocks_non_finite_h01_rejected(bad):
    with pytest.raises(ModelValidationError, match="h01 has a non-finite entry"):
        HamiltonianBlocks(h00=np.array([[0.0]]), h01=np.array([[bad]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_lead_blocks_non_finite_h00_rejected(bad):
    with pytest.raises(ModelValidationError):
        HamiltonianBlocks(h00=np.array([[bad]]), h01=np.array([[-1.0]]))
