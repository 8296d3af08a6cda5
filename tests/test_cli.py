import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    nan = write_state(tmp_path, [1.0, math.nan], name="s3.json")
    code, _, _ = run(capsys, "info", "coherent", "--channel", chan, "--state", nan)
    assert code == 65


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "erasure", "p": "1/4", "d": "x"},
        {"kind": "erasure", "p": "1/4", "d": math.inf},
        {"kind": "switch", "components": 5},
        {"kind": "tensor", "factors": []},
        {"kind": "kraus", "matrices": 5},
        {"kind": "kraus", "matrices": [[[]]]},
        # NaN passes every tolerance comparison, the CPTP check included
        {"kind": "kraus", "matrices": [[[[1, 0], [0, 0]], [[0, 0], [math.nan, 0]]]]},
        {"kind": "identity", "d": 3},  # a valid channel on the wrong input dimension
        # a fractional d is rejected, not truncated to the 2 the state has
        {"kind": "identity", "d": 2.7},
        {"kind": "identity", "d": "2.5"},
        # a document whose value is a string holding JSON is not decoded twice
        json.dumps({"kind": "identity", "d": 2}),
        b"{not json",  # bytes are the file's raw contents
        # deeper than the JSON decoder's recursion allows
        b'{"kind":"tensor","factors":[' * 1000 + b'{"kind":"identity","d":2}' + b"]}" * 1000,
    ],
    ids=["d-not-int", "d-infinite", "components-not-list", "no-factors", "matrices-not-list",
         "empty-matrix", "nan-entry", "dimension-mismatch", "d-fraction", "d-fraction-string",
         "document-is-a-string", "not-json", "nested-too-deep"],
)
def test_malformed_channel_spec_exits_65(capsys, tmp_path, spec):
    if isinstance(spec, bytes):
        (tmp_path / "chan.json").write_bytes(spec)
        chan = str(tmp_path / "chan.json")
    else:
        chan = write_channel(tmp_path, spec)
    state = write_state(tmp_path, [0.5, 0.5])
    code, out, err = run(capsys, "info", "coherent", "--channel", chan, "--state", state)
    assert code == 65
    assert out == ""
    assert err.startswith("qcap: error: ") and "Traceback" not in err


_ONE = {"layout": [1], "matrix": [[[1, 0]]]}
_HALF = {"layout": [2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}


# each of these once ran: a dimension read with int() (2.7 as 2, true as 1),
# a JSON true read as the number 1
@pytest.mark.parametrize(
    "channel, state",
    [
        ({"kind": "identity", "d": 2}, dict(_HALF, layout=[2.7])),
        ({"kind": "identity", "d": 2}, dict(_HALF, layout=[True, 2])),
        ({"kind": "erasure", "p": True, "d": 2}, _HALF),
        ({"kind": "identity", "d": True}, _ONE),
    ],
    ids=["layout-fraction", "layout-true", "p-true", "d-true"],
)
def test_non_integer_dimension_or_boolean_field_exits_65(capsys, tmp_path, channel, state):
    chan = write_channel(tmp_path, channel)
    (tmp_path / "state.json").write_text(json.dumps(state))
    code, out, err = run(capsys, "info", "coherent", "--channel", chan,
                         "--state", str(tmp_path / "state.json"))
    assert code == 65
    assert out == ""
    assert err.startswith("qcap: error: ") and "Traceback" not in err


def _diag(layout, diag):
    n = len(diag)
    return {"layout": layout, "matrix": [[[diag[i] if i == j else 0.0, 0.0] for j in range(n)]
                                         for i in range(n)]}


_QUARTER = [0.25] * 4


# the boundary checks of an ensemble file: at least one member, one layout
# shared by every member (here [4] and [2, 2], of equal total), weights
# >= 0 summing to 1 within 1e-9, and each member's eigenvalue floor
@pytest.mark.parametrize("quantity", ["holevo", "private"])
@pytest.mark.parametrize(
    "items",
    [
        [],
        [{"p": "1/2", "state": _diag([4], _QUARTER)},
         {"p": "1/2", "state": _diag([2, 2], _QUARTER)}],
        [{"p": -0.1, "state": _diag([4], _QUARTER)}, {"p": 1.1, "state": _diag([4], _QUARTER)}],
        [{"p": 0.5, "state": _diag([4], _QUARTER)}, {"p": 0.500001, "state": _diag([4], _QUARTER)}],
        [{"p": 1, "state": _diag([4], [0.5 + 1e-6, 0.5, 0.0, -1e-6])}],
    ],
    ids=["empty", "two-layouts", "negative-weight", "weights-over-1", "negative-eigenvalue"],
)
def test_malformed_ensemble_exits_65(capsys, tmp_path, quantity, items):
    chan = write_channel(tmp_path, {"kind": "identity", "d": 4})
    (tmp_path / "ens.json").write_text(json.dumps({"items": items}))
    code, out, err = run(capsys, "info", quantity, "--channel", chan,
                         "--ensemble", str(tmp_path / "ens.json"))
    assert code == 65
    assert out == ""
    assert err.startswith("qcap: error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_deeply_nested_tensor_loads(capsys, tmp_path):
    # a single-factor tensor is its factor, so the nest is the identity on C^2
    spec = {"kind": "identity", "d": 2}
    for _ in range(200):
        spec = {"kind": "tensor", "factors": [spec]}
    chan = write_channel(tmp_path, spec)
    state = write_state(tmp_path, [0.5, 0.5])
    code, out, err = run(capsys, "info", "coherent", "--channel", chan, "--state", state)
    assert code == 0 and err == ""
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("cap", ["abc", "1"])
def test_bad_dim_cap_environment_exits_64(capsys, tmp_path, monkeypatch, cap):
    monkeypatch.setenv("QCAP_DIM_CAP", cap)
    chan = write_channel(tmp_path, {"kind": "erasure", "p": "1/4", "d": 2})
    state = write_state(tmp_path, [0.5, 0.5])
    code, out, err = run(capsys, "info", "coherent", "--channel", chan, "--state", state)
    assert code == 64
    assert out == ""
    assert err == f"qcap: error: QCAP_DIM_CAP must be an integer >= 2, got {cap!r}\n"


# Fuzzed input files: wrong field types, missing fields, empty lists and
# non-objects, next to valid files that reach the numerics. Every d is at
# most 3 (or far above any cap) and the run passes --dim-cap 64: the cap
# bounds layout totals, not the elements a builder allocates (a Pauli rocket
# at d=4 is a 256 MiB stack under the default cap).
_junk = st.sampled_from([None, True, -1, 0.5, math.nan, math.inf, 10**400, "", "a/", [], {}])
_entry = st.one_of(st.lists(st.floats(-1, 1), min_size=2, max_size=2), _junk)
_matrix = st.one_of(st.lists(st.lists(_entry, max_size=3), max_size=3), _junk)
_dim = st.one_of(st.integers(-1, 3), st.floats(-1, 3.9), _junk)
_valid_channels = st.sampled_from(
    [
        {"kind": "erasure", "p": "1/4", "d": 2},
        {"kind": "identity", "d": 2},
        {"kind": "rocket", "d": 2, "ensemble": "identity"},
    ]
)
_channels = st.deferred(
    lambda: st.one_of(
        _junk,
        _valid_channels,
        st.fixed_dictionaries(
            {
                "kind": st.sampled_from(
                    ["erasure", "full_erasure", "rocket", "identity", "switch", "tensor", "kraus", 5]
                )
            },
            optional={
                "p": st.one_of(st.sampled_from(["1/4", "1", "2", "1/0", "eleven"]), _junk),
                "d": _dim,
                "ensemble": st.one_of(st.sampled_from(["pauli", "identity"]), _junk),
                "components": st.one_of(st.lists(_channels, max_size=3), _junk),
                "factors": st.one_of(st.lists(_channels, max_size=2), _junk),
                "matrices": st.one_of(st.lists(_matrix, max_size=2), _junk),
            },
        ),
    )
)


def _max_mixed_json(d):
    return {"layout": [d], "matrix": [[[1 / d if i == j else 0, 0] for j in range(d)] for i in range(d)]}


_states = st.one_of(
    _junk,
    st.sampled_from([2, 4]).map(_max_mixed_json),
    st.fixed_dictionaries(
        {}, optional={"layout": st.one_of(st.lists(_dim, max_size=3), _junk), "matrix": _matrix}
    ),
)
_ensembles = st.one_of(
    _junk,
    st.sampled_from([2, 4]).map(
        lambda d: {"items": [{"p": "1/2", "state": _max_mixed_json(d)}] * 2}
    ),
    st.fixed_dictionaries(
        {},
        optional={
            "items": st.one_of(
                st.lists(
                    st.fixed_dictionaries(
                        {},
                        optional={
                            "p": st.one_of(st.sampled_from(["1/2", "1", "-1", "1e400"]), _junk),
                            "state": _states,
                        },
                    ),
                    max_size=3,
                ),
                _junk,
            )
        },
    ),
)


@settings(max_examples=300, database=None, deadline=None)
@given(
    quantity=st.sampled_from(["coherent", "holevo", "private"]),
    channel=_channels,
    state=_states,
    ensemble=_ensembles,
)
def test_info_on_fuzzed_input_files_exits_cleanly(quantity, channel, state, ensemble):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["--dim-cap", "64", "info", quantity]
        for flag, obj in (("--channel", channel), ("--state", state), ("--ensemble", ensemble)):
            path = os.path.join(tmp, flag[2:] + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            argv += [flag, path]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    assert code in (0, 65, 70)


def _subprocess_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "QCAP_DIM_CAP"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


def _loaded_modules_after_each(argvs):
    """Run cli.main on each argv in turn in one fresh interpreter; return,
    per call, its exit code and the numpy, scipy and mpmath modules loaded
    so far."""
    script = (
        "import contextlib, io, json, sys\n"
        "from qcap import cli\n"
        "seen = []\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    seen.append((code, sorted(m for m in sys.modules\n"
        "                              if m.split('.')[0] in ('numpy', 'scipy', 'mpmath'))))\n"
        "print(json.dumps(seen))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_subprocess_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_exact_lane_imports_no_numeric_module():
    # bounds locking and sweep locking are left out: they import infoquant
    # (and numpy with it) for gamma_d until gamma_d moves to bounds
    seen = _loaded_modules_after_each(
        [["bounds", "theorem", "--n", "3"], ["bounds", "conjecture", "--p", "11/24", "--n", "13"],
         ["sweep", "bounds", "--n", "3", "--k", "1:2"]]
    )
    assert seen == [[0, []]] * 3


def test_no_command_loads_scipy_or_mpmath(tmp_path):
    chan = write_channel(tmp_path, {"kind": "erasure", "p": "1/4", "d": 2})
    state = write_state(tmp_path, [0.5, 0.5])
    argvs = [["bounds", "locking", "--p", "1/4", "--d", "5"],
             ["sweep", "locking", "--p", "1/2", "--d", "2:64"],
             ["info", "coherent", "--channel", chan, "--state", state],
             ["verify", "lower-bound", "--n", "1", "--d", "2", "--uses", "2"],
             ["verify", "lemma1"],
             ["verify", "all", "--seed", "0"]]
    seen = _loaded_modules_after_each(argvs)
    assert [code for code, _ in seen] == [0] * len(argvs)
    roots = [{m.split(".")[0] for m in modules} for _, modules in seen]
    assert roots[1] == {"numpy"}  # the locking commands, for gamma_d
    # the gradient searches of verify lemma1 and verify all are in-house,
    # and so is the subentropy of degenerate spectra in verify all
    assert [r for r in roots if "scipy" in r or "mpmath" in r] == []


def test_one_parser_serves_every_call_in_a_process(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("QCAP_DIM_CAP", raising=False)
    chan = write_channel(tmp_path, {"kind": "erasure", "p": "1/4", "d": 65})
    state = write_state(tmp_path, [1.0 / 65] * 65)
    coherent = ["info", "coherent", "--channel", chan, "--state", state]
    argvs = [
        ["bounds", "locking", "--p", "1/3", "--d", "5", "--format", "csv"],
        ["bounds", "locking", "--p", "1/3", "--d", "5"],
        ["verify", "lower-bound", "--p", "1/3", "--uses", "3"],
        ["verify", "lower-bound"],
        ["bounds", "locking", "--p", "1/3"],
        ["bounds", "theorem", "--n", "3"],
        ["--dim-cap", "64", *coherent],
        coherent,
    ]
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "qcap", *argv], capture_output=True, text=True,
            env=_subprocess_env(), timeout=120,
        )
        for argv in argvs
    ]
    assert [p.returncode for p in fresh] == [0, 0, 0, 0, 64, 0, 70, 0]
    assert json.loads(fresh[1].stdout)["d"] == 5  # JSON, the default format
    assert "p=1/4 uses=2:" in fresh[3].stdout  # the defaults, not the previous call's flags
    for argv, proc in zip(argvs, fresh):
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (proc.returncode, proc.stdout), argv
    assert cli.build_parser() is cli.build_parser()


def test_info_dimension_cap(capsys, tmp_path):
    state = write_state(tmp_path, [0.5, 0.5])
    for spec in (
        {"kind": "erasure", "p": "1/4", "d": 9000},
        {"kind": "identity", "d": 10**32},
        {"kind": "rocket", "d": 10**32},
    ):
        chan = write_channel(tmp_path, spec)
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


@pytest.mark.parametrize("suite", ["all", "lemma1", "lower-bound"])
def test_verify_negative_seed_exits_64(capsys, suite):
    # a SeedSequence takes only non-negative integers
    code, out, err = run(capsys, "verify", suite, "--seed", "-1")
    assert code == 64
    assert out == ""
    assert "--seed must be non-negative" in err


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
