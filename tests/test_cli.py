import json

import numpy as np
import pytest

from embedchan.cli import run_cli
from embedchan import serialize_model

from helpers import (
    chain_lead,
    dimer_model,
    impurity_chain_model,
    parse_model_dict,
    periodic_strip_model,
)


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(serialize_model(impurity_chain_model()))
    return str(path)


def run(argv):
    return run_cli(argv)


def test_channels_csv_contract(chain_file, tmp_path, capsys):
    out = tmp_path / "ch.csv"
    code = run(["channels", "--model", chain_file, "--emin", "-2.5", "--emax", "2.5",
                "--npts", "50", "--eta", "1e-6", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "E,k,index,lambda,open"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert float(first[0]) == -2.5
    assert first[1] == ""          # non-periodic model: empty k column
    assert first[4] in ("0", "1")


def test_channels_csv_deterministic(chain_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["channels", "--model", chain_file, "--emin", "-2.0", "--emax", "2.0",
            "--npts", "37", "--eta", "1e-6"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_transmit_csv_contract(chain_file, tmp_path):
    out = tmp_path / "t.csv"
    code = run(["transmit", "--model", chain_file, "--emin", "-2.5", "--emax", "2.5",
                "--npts", "40", "--eta", "1e-9", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "E,k,T_trace,T_channel_sum,discrepancy,n_open_l,n_open_r"
    row = lines[1].split(",")
    assert len(row) == 7
    # 17 significant digits serialization
    mid = lines[len(lines) // 2].split(",")
    assert len(mid[2]) >= 6


def test_transmit_json_format(chain_file, tmp_path):
    out = tmp_path / "t.json"
    code = run(["transmit", "--model", chain_file, "--emin", "-1.0", "--emax", "1.0",
                "--npts", "5", "--eta", "1e-9", "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["records"]) == 5
    assert {"e", "k", "status", "t_trace", "t_channel_sum", "discrepancy",
            "n_open_l", "n_open_r"} <= set(doc["records"][0])


def test_bloch_command(chain_file, tmp_path):
    out = tmp_path / "b.csv"
    code = run(["bloch", "--model", chain_file, "--e", "0.0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "E,k,index,beta_re,beta_im,abs_beta,propagating,velocity,direction"
    assert len(lines) == 3
    assert "outgoing" in lines[1]


def test_scatter_command(chain_file, tmp_path):
    out = tmp_path / "s.json"
    code = run(["scatter", "--model", chain_file, "--e", "0.0", "--eta", "1e-12",
                "--channel", "0", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["transmitted_flux"] == pytest.approx(0.8, abs=1e-9)
    assert doc["t_row_sum"] == pytest.approx(0.8, abs=1e-9)
    assert len(doc["chi"]) == 1 and len(doc["chi"][0]) == 2


def test_fit_edge_command(chain_file, tmp_path):
    out = tmp_path / "f.json"
    code = run(["fit-edge", "--model", chain_file, "--e0", "-2.0", "--side", "above",
                "--eta", "1e-8", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["exponent"] == pytest.approx(0.5, abs=0.02)
    assert doc["side"] == "above"


def test_peaks_command(tmp_path):
    model_path = tmp_path / "dimer.json"
    model_path.write_text(serialize_model(dimer_model(0.5, 1.5)))
    out = tmp_path / "p.json"
    code = run(["peaks", "--model", str(model_path), "--emin", "-0.5", "--emax", "0.5",
                "--npts", "201", "--eta", "1e-7", "--eta", "1e-6", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["peaks"], "expected at least one detected peak"
    assert doc["scaling_check"][0]["height_ratio"] == pytest.approx(10.0, abs=1.0)


def test_validate_command(chain_file, capsys):
    code = run(["validate", "--model", chain_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out
    assert "all checks passed" in out


def test_unknown_flag_exit_code(chain_file, capsys):
    assert run(["channels", "--model", chain_file, "--frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_command_exit_code(capsys):
    assert run(["explode"]) == 1


def test_missing_model_file(tmp_path, capsys):
    assert run(["channels", "--model", str(tmp_path / "nope.json"), "--out",
                str(tmp_path / "x.csv")]) == 1
    assert "not found" in capsys.readouterr().err


def test_schema_violation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"lead_left": {"preset": "chain"}, "lead_right": {"preset": "chain"}}')
    assert run(["channels", "--model", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
    assert "device" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, capsys):
    model = parse_model_dict({
        "lead_left": chain_lead(),
        "lead_right": chain_lead(),
        "device": {
            "h": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.5]],
            "coupling_left": [[1.0, 0.0, 0.0]],
            "coupling_right": [[0.0, 1.0, 0.0]],
        },
    })
    path = tmp_path / "singular.json"
    path.write_text(serialize_model(model))
    code = run(["scatter", "--model", str(path), "--e", "1.5", "--eta", "1e-10",
                "--out", str(tmp_path / "s.json")])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_stdout_output(chain_file, capsys):
    code = run(["transmit", "--model", chain_file, "--emin", "0.0", "--emax", "1.0",
                "--npts", "3", "--eta", "1e-9"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("E,k,T_trace")


# every float flag of every command that has it; the other flags are valid
_FLOAT_FLAGS = [
    ("transmit", "--eta", []),
    ("transmit", "--emin", []),
    ("transmit", "--emax", []),
    ("transmit", "--k", []),
    ("channels", "--eta", []),
    ("peaks", "--eta", ["--eta=1e-6"]),
    ("bloch", "--e", []),
    ("scatter", "--e", []),
    ("scatter", "--eta", ["--e=0.1"]),
    ("fit-edge", "--e0", []),
    ("fit-edge", "--wmin", ["--e0=2.0"]),
    ("fit-edge", "--wmax", ["--e0=2.0"]),
    ("fit-edge", "--eta", ["--e0=2.0"]),
    ("validate", "--emin", []),
    ("validate", "--emax", []),
    ("validate", "--eta", []),
]


@pytest.mark.parametrize("value", ["nan", "-inf", "1e999"])
@pytest.mark.parametrize("command, flag, extra", _FLOAT_FLAGS)
def test_non_finite_float_flag_exit_code(chain_file, tmp_path, capsys, command, flag, extra,
                                         value):
    out = tmp_path / "x"
    assert run([command, "--model", chain_file, "--out", str(out), *extra, f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: argument {flag}: must be a finite number")
    assert not out.exists()


def test_non_numeric_float_flag_message(chain_file, capsys):
    assert run(["transmit", "--model", chain_file, "--eta", "abc"]) == 1
    assert capsys.readouterr().err == "error: argument --eta: invalid float value: 'abc'\n"


# ---------------------------------------------------------------------------
# a non-positive eta is a validation error in every command that takes one

_ETA_CASES = [
    ("scatter", ["--e=0.1", "--eta=0"]),
    ("scatter", ["--e=0.1", "--eta=-1e-8"]),
    ("validate", ["--eta=0"]),
    ("validate", ["--eta=-1e-8"]),
    ("peaks", ["--eta=0", "--eta=1e-6"]),
    ("peaks", ["--eta=-1e-7", "--eta=1e-6"]),
    ("transmit", ["--eta=0"]),
    ("channels", ["--eta=-1e-6"]),
    ("fit-edge", ["--e0=2.0", "--eta=0"]),
]


@pytest.mark.parametrize("command, extra", _ETA_CASES)
def test_non_positive_eta_exit_code(chain_file, tmp_path, capsys, command, extra):
    out = tmp_path / "x"
    assert run([command, "--model", chain_file, "--out", str(out), *extra]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: eta must be > 0")
    assert not out.exists()


# ---------------------------------------------------------------------------
# negative numbers in scientific notation are values, not options


@pytest.fixture()
def strip_file(tmp_path):
    path = tmp_path / "strip.json"
    path.write_text(serialize_model(periodic_strip_model(width=4)))
    return str(path)


@pytest.mark.parametrize("k", ["-1.6e-05", "-2E+0", "-.5e-1", "-3."])
def test_negative_exponent_k_is_a_value(strip_file, tmp_path, k):
    out = tmp_path / "t.csv"
    assert run(["transmit", "--model", strip_file, "--k", k, "--npts", "3",
                "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 3
    assert {float(r.split(",")[1]) for r in rows} == {float(k)}


def test_negative_exponent_e_is_a_value(chain_file, tmp_path):
    out = tmp_path / "b.csv"
    assert run(["bloch", "--model", chain_file, "--e", "-1e-3", "--out", str(out)]) == 0
    assert float(out.read_text().splitlines()[1].split(",")[0]) == -1e-3


def test_negative_exponent_emin_is_a_value(chain_file, tmp_path):
    out = tmp_path / "c.csv"
    assert run(["channels", "--model", chain_file, "--emin", "-1e-3", "--emax", "1e-3",
                "--npts", "3", "--out", str(out)]) == 0
    assert float(out.read_text().splitlines()[1].split(",")[0]) == -1e-3


def test_non_number_after_flag_still_an_option(chain_file, capsys):
    assert run(["bloch", "--model", chain_file, "--e", "-x"]) == 1
    assert "expected one argument" in capsys.readouterr().err
