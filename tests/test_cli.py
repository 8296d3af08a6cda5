import json
import os

import pytest

from qcap import cli, qcore


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_channel(tmp_path, obj, name="chan.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def write_state(tmp_path, diag, name="state.json"):
    matrix = [
        [[diag[i] if i == j else 0.0, 0.0] for j in range(len(diag))]
        for i in range(len(diag))
    ]
    path = tmp_path / name
    path.write_text(json.dumps({"layout": [len(diag)], "matrix": matrix}))
    return str(path)


def write_ensemble(tmp_path, name="ens.json"):
    state0 = {"layout": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}
    state1 = {"layout": [2], "matrix": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}
    path = tmp_path / name
    path.write_text(
        json.dumps({"items": [{"p": "1/2", "state": state0}, {"p": "1/2", "state": state1}]})
    )
    return str(path)


def test_bounds_theorem_csv_golden(capsys):
    code, out, _ = run(capsys, "bounds", "theorem", "--n", "2", "--format", "csv")
    assert code == 0
    assert out == "n,k,U1,U2,U3,L,D1,D2,D3,pass\n2,1,4,4,16,52,48,48,36,true\n"


def test_bounds_theorem_json(capsys):
    code, out, _ = run(capsys, "bounds", "theorem", "--n", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    assert obj["params"]["log2d"] == "432"
    assert [row["k"] for row in obj["rows"]] == [1, 2]


def test_bounds_theorem_usage_error(capsys):
    code, out, err = run(capsys, "bounds", "theorem", "--n", "1")
    assert code == 64
    assert out == ""
    assert "error" in err


def test_bounds_conjecture_golden(capsys):
    code, out, _ = run(capsys, "bounds", "conjecture", "--p", "11/24", "--n", "13")
    assert code == 0
    assert out == '{"epsilon_threshold":"13/132"}\n'


def test_bounds_locking_json(capsys):
    code, out, _ = run(capsys, "bounds", "locking", "--p", "1/2", "--d", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["unit"] == "bits"
    assert obj["value"] == pytest.approx(0.360674, abs=1e-6)


def test_info_coherent(capsys, tmp_path):
    chan = write_channel(tmp_path, {"kind": "erasure", "p": "1/4", "d": 2})
    state = write_state(tmp_path, [0.5, 0.5])
    code, out, _ = run(capsys, "info", "coherent", "--channel", chan, "--state", state)
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(0.5, abs=1e-9)
    assert obj["unit"] == "bits"
    assert set(obj["components"]) == {"H(B)", "H(E)"}


def test_info_private_computational(capsys, tmp_path):
    chan = write_channel(tmp_path, {"kind": "erasure", "p": "1/2", "d": 2})
    ens = write_ensemble(tmp_path)
    code, out, _ = run(capsys, "info", "private", "--channel", chan, "--ensemble", ens)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.0, abs=1e-9)


def test_info_requires_matching_flags(capsys, tmp_path):
    chan = write_channel(tmp_path, {"kind": "erasure", "p": "1/4", "d": 2})
    code, _, err = run(capsys, "info", "coherent", "--channel", chan)
    assert code == 64
    code, _, err = run(capsys, "info", "holevo", "--channel", chan)
    assert code == 64


def test_info_malformed_channel(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken", encoding="utf-8")
    state = write_state(tmp_path, [0.5, 0.5])
    code, out, err = run(capsys, "info", "coherent", "--channel", str(path), "--state", state)
    assert code == 65
    assert out == ""


def test_info_bad_state_matrix(capsys, tmp_path):
    chan = write_channel(tmp_path, {"kind": "erasure", "p": "1/4", "d": 2})
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"layout": [2], "matrix": [[[1, 0], [0, 0]]]}))
    code, _, _ = run(capsys, "info", "coherent", "--channel", chan, "--state", str(path))
    assert code == 65
    # trace != 1 is a data error too
    bad = write_state(tmp_path, [0.9, 0.9], name="s2.json")
    code, _, _ = run(capsys, "info", "coherent", "--channel", chan, "--state", bad)
    assert code == 65


def test_info_dimension_cap(capsys, tmp_path):
    chan = write_channel(tmp_path, {"kind": "erasure", "p": "1/4", "d": 9000})
    state = write_state(tmp_path, [0.5, 0.5])
    code, _, err = run(capsys, "info", "coherent", "--channel", chan, "--state", state)
    assert code == 70
    assert "cap" in err


def test_dim_cap_flag_overrides_environment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QCAP_DIM_CAP", "10")
    chan = write_channel(tmp_path, {"kind": "erasure", "p": "1/4", "d": 20})
    state = write_state(tmp_path, [1.0 / 20] * 20)
    code, _, _ = run(capsys, "info", "coherent", "--channel", chan, "--state", state)
    assert code == 70
    code, out, _ = run(
        capsys, "--dim-cap", "100", "info", "coherent", "--channel", chan, "--state", state
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(
        0.5 * __import__("math").log2(20), rel=1e-6
    )


def test_dim_cap_flag_does_not_leak_into_the_process(capsys, monkeypatch):
    # setenv then delenv, so monkeypatch restores an absent variable
    monkeypatch.setenv("QCAP_DIM_CAP", "50")
    monkeypatch.delenv("QCAP_DIM_CAP")
    code, _, _ = run(capsys, "--dim-cap", "100", "bounds", "theorem", "--n", "2")
    assert code == 0
    assert "QCAP_DIM_CAP" not in os.environ
    assert qcore.dim_cap() == qcore.DEFAULT_DIM_CAP
    monkeypatch.setenv("QCAP_DIM_CAP", "50")
    code, _, _ = run(capsys, "--dim-cap", "100", "bounds", "theorem", "--n", "2")
    assert code == 0
    assert os.environ["QCAP_DIM_CAP"] == "50"


def test_verify_lower_bound(capsys):
    code, out, _ = run(
        capsys, "verify", "lower-bound", "--n", "1", "--d", "2", "--p", "1/4", "--uses", "2"
    )
    assert code == 0
    assert "PASS lower-bound.witness-rate" in out
    assert "rate=0.375" in out
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["pass"] is True


def test_verify_unknown_suite(capsys):
    code, _, _ = run(capsys, "verify", "nosuch")
    assert code == 64


def test_verify_reports_failures_with_exit_2(capsys, monkeypatch):
    from qcap import verify as vf

    fake = [vf.SuiteResult("lemma1", (vf.Check("broken", False, "detail"),))]
    monkeypatch.setattr(vf, "run_suite", lambda *a, **k: fake)
    code, out, _ = run(capsys, "verify", "lemma1")
    assert code == 2
    assert "FAIL lemma1.broken" in out
    assert json.loads(out.strip().split("\n")[-1])["failures"] == 1


def test_verify_lemma3_seeded(capsys):
    code, out, _ = run(capsys, "verify", "lemma3", "--seed", "7", "--samples", "25")
    assert code == 0
    assert "violations=0" in out
    code2, out2, _ = run(capsys, "verify", "lemma3", "--seed", "7", "--samples", "25")
    assert out2 == out


def test_sweep_locking(capsys):
    code, out, _ = run(capsys, "sweep", "locking", "--p", "1/2", "--d", "2:4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,d,upper_bits"
    assert len(lines) == 4
    assert lines[1].startswith("1/2,2,0.36067376")


def test_sweep_empty_range(capsys):
    code, out, _ = run(capsys, "sweep", "locking", "--p", "1/2", "--d", "5:4")
    assert code == 0
    assert out == "p,d,upper_bits\n"


def test_sweep_bounds_mirrors_report(capsys):
    code, out, _ = run(capsys, "sweep", "bounds", "--n", "3", "--k", "1:2")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert lines[2] == "3,2,3,120,36,156,153,36,120,true"


def test_bad_fraction_flag(capsys):
    code, _, _ = run(capsys, "bounds", "conjecture", "--p", "eleven", "--n", "3")
    assert code == 64


def test_float_formatting_is_9_digits(capsys, tmp_path):
    chan = write_channel(tmp_path, {"kind": "erasure", "p": "1/3", "d": 2})
    state = write_state(tmp_path, [0.5, 0.5])
    code, out, _ = run(capsys, "info", "coherent", "--channel", chan, "--state", state)
    obj = json.loads(out)
    # 1/3 of a bit at 9 significant digits
    assert obj["value"] == pytest.approx(1 / 3, abs=1e-8)
    assert len(repr(obj["value"]).replace("-", "").replace(".", "").lstrip("0")) <= 9
