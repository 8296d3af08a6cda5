"""The benchmark's checks accept qcap's real outputs and reject each output
with one reported value perturbed, so that no check is vacuous.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import pytest

import checks
import run
import tracing

sys.path.insert(0, str(run.SRC))


def qcap(*argv) -> str:
    rc, out = run.run_in_process(tuple(str(a) for a in argv))
    assert rc == 0
    return out


def bump9(x: float) -> str:
    """x moved by one unit in its ninth significant digit, as qcap prints it."""
    return "%.9g" % (x + 10.0 ** (math.floor(math.log10(abs(x))) - 8))


def test_close9_tolerates_rounding_only():
    assert checks.close9(0.36067376, checks.locking_exact(Fraction(1, 2), 2))
    assert not checks.close9(float(bump9(0.36067376)), checks.locking_exact(Fraction(1, 2), 2))
    assert checks.close9(float("%.9g" % (2 / 3)), Fraction(2, 3))
    assert not checks.close9(0.666666668, Fraction(2, 3))


def test_theorem_rows_recomputed():
    out = qcap("bounds", "theorem", "--n", 5, "--format", "csv")
    assert checks.check_theorem_csv(out, 5) == []
    header, *rows = out.splitlines()
    for r in range(len(rows)):
        for c in range(2, 10):
            cells = rows[r].split(",")
            cells[c] = "false" if c == 9 else str(Fraction(cells[c]) + Fraction(1, 7))
            bad = [header] + rows[:r] + [",".join(cells)] + rows[r + 1:]
            assert checks.check_theorem_csv("\n".join(bad) + "\n", 5), (r, c)
    assert checks.check_theorem_csv("\n".join([header] + rows[:-1]) + "\n", 5)
    assert checks.check_theorem_csv(out.replace("5,", "6,", 1), 5)


def test_sweep_bounds_rows_recomputed():
    out = qcap("sweep", "bounds", "--n", 8, "--k", "2:5")
    assert checks.check_theorem_csv(out, 8, range(2, 6)) == []
    assert checks.check_theorem_csv(out, 8, range(2, 7))


def test_locking_values_recomputed():
    p = Fraction(5, 24)
    out = qcap("sweep", "locking", "--p", p, "--d", "2:40")
    assert checks.check_locking_csv(out, p, 2, 40) == []
    header, *rows = out.splitlines()
    for r in (0, 17, len(rows) - 1):
        pc, dc, value = rows[r].split(",")
        bad = rows[:r] + [f"{pc},{dc},{bump9(float(value))}"] + rows[r + 1:]
        assert checks.check_locking_csv("\n".join([header] + bad), p, 2, 40)
    assert checks.check_locking_csv(out, Fraction(1, 2), 2, 40)
    assert checks.check_locking_csv("\n".join([header] + rows[1:]), p, 2, 40)

    obj = json.loads(qcap("bounds", "locking", "--p", "1/2", "--d", 7))
    assert checks.check_locking_json(json.dumps(obj), Fraction(1, 2), 7) == []
    obj["value"] = float(bump9(obj["value"]))
    assert checks.check_locking_json(json.dumps(obj), Fraction(1, 2), 7)


def test_conjecture_exact():
    out = qcap("bounds", "conjecture", "--p", "11/24", "--n", 13)
    assert checks.check_conjecture(out, Fraction(11, 24), 13) == []
    assert checks.check_conjecture(out, Fraction(11, 24), 12)
    assert checks.check_conjecture('{"epsilon_threshold":"13/131"}', Fraction(11, 24), 13)


@pytest.fixture(scope="module")
def verify_all():
    return qcap("verify", "all", "--seed", 0)


def test_verify_report_pinned_values(verify_all):
    assert checks.check_verify_report(verify_all, "all", 0, 14) == []
    assert checks.check_verify_report(verify_all, "all", 1, 14)
    assert checks.check_verify_report(verify_all, "all", 0, 15)
    perturbed = [
        ("pinned-ensemble-value: value=0.8 ", "pinned-ensemble-value: value=0.800000001 "),
        ("gamma-2: value=0.193147181 ", "gamma-2: value=0.193147182 "),
        ("uses=2: rate=0.375 ", "uses=2: rate=0.375000001 "),
        ("uses=3: rate=0.5 ", "uses=3: rate=0.500000001 "),
        ("PASS lemma3", "FAIL lemma3"),
        ('"pass":true', '"pass":false'),
    ]
    for old, new in perturbed:
        assert old in verify_all, old
        assert checks.check_verify_report(verify_all.replace(old, new), "all", 0, 14), new


def test_verify_lower_bound_rate():
    out = qcap("verify", "lower-bound", "--n", 2, "--d", 2, "--p", "5/24", "--uses", 3)
    assert checks.check_verify_report(out, "lower-bound", 0, 2) == []
    rate = "%.9g" % (2 / 3 * 19 / 24)
    assert f"rate={rate} " in out
    bad = out.replace(f"rate={rate} ", f"rate={bump9(float(rate))} ")
    assert checks.check_verify_report(bad, "lower-bound", 0, 2)
    assert checks.check_verify_report(out.replace("p=5/24", "p=7/24"), "lower-bound", 0, 2)


def coherent_json(value: float, hb: float, he: float) -> str:
    return json.dumps({"quantity": "coherent", "value": float("%.9g" % value), "unit": "bits",
                       "components": {"H(B)": float("%.9g" % hb), "H(E)": float("%.9g" % he)},
                       "seed": 0})


def test_coherent_values():
    exact = 0.5 * math.log2(3)
    assert checks.check_coherent(coherent_json(exact, 2.0, 2.0 - exact), exact) == []
    assert checks.check_coherent(coherent_json(exact + 2e-8, 2.0, 2.0 - exact - 2e-8), exact)
    assert checks.check_coherent(coherent_json(exact, 2.0, 2.1 - exact), exact)
    assert checks.check_coherent(coherent_json(4.4e-15, 4.72452385, 4.72452385), 0) == []
    assert checks.check_coherent(coherent_json(1e-6, 4.72452485, 4.72452385), 0)
    assert checks.check_coherent(coherent_json(4.4e-15, 4.72452385, 4.72452395), 0)


def test_tally_counts_failures_and_flags_changed_output():
    w = run.Workload(0)
    w.add(("bounds", "conjecture"), lambda out: [] if out == "ok" else ["bad"])
    for passes, want in (
        ([[(0, "ok")], [(0, "ok")]], (2, 0, 0)),
        ([[(0, "ok")], [(70, "")]], (2, 1, 0)),
        ([[(0, "ok")], [(0, "ok2")]], (2, 0, 2)),
    ):
        tally = run.Tally(w)
        for results in passes:
            tally.add(results)
        assert (tally.attempted, tally.failed, len(tally.errors())) == want


def test_tally_flags_changed_output_between_rounds_of_one_pass():
    check = lambda out: [] if out == "ok" else ["bad"]
    w = run.Workload(0)
    w.add(("bounds", "conjecture"), check)
    w.add(("bounds", "conjecture"), check)
    tally = run.Tally(w)
    tally.add([(0, "ok"), (0, "ok2")])
    assert (tally.attempted, tally.failed, len(tally.errors())) == (2, 0, 2)


def test_tracer_counts_recursive_calls_once():
    class Mod:
        @staticmethod
        def f(k):
            return 0 if k == 0 else Mod.f(k - 1)

    tr = tracing.Tracer()
    tr.workload = "w"
    tr.wrap(Mod, "f", "f", lambda args, result: args[0])
    Mod.f(3)
    tr.uninstall()
    assert len(tr.spans) == 4
    assert [s[6] for s in tr.outermost("f", "w")] == [3]
    Mod.f(2)
    assert len(tr.spans) == 4
