import json
import math
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcap import infoquant as iq
from qcap.bounds import (
    BoundParams,
    _cell,
    _theorem_rows,
    classical_add_upper,
    conjecture_threshold,
    erasure_capacity_formulas,
    locking_upper,
    p1_upper,
    q_lower,
    theorem_params,
    theorem_report,
)

SPEC_N2 = BoundParams(n=2, p=Fraction(11, 24), log2d=Fraction(192))


def test_bound_params_validation():
    BoundParams(1, Fraction(1, 2), Fraction(1))
    with pytest.raises(ValueError):
        BoundParams(0, Fraction(1, 4), Fraction(1))
    with pytest.raises(ValueError):
        BoundParams(2, Fraction(2, 3), Fraction(1))
    with pytest.raises(ValueError):
        BoundParams(2, Fraction(1, 4), Fraction(0))
    assert BoundParams(2, "11/24", "192").p == Fraction(11, 24)


def test_erasure_capacity_formulas():
    q, p, c = erasure_capacity_formulas(Fraction(1, 4), 1)
    assert (q, p, c) == (Fraction(1, 2), Fraction(1, 2), Fraction(3, 4))
    q, p, c = erasure_capacity_formulas(Fraction(1, 2), 7)
    assert q == p == 0
    q, p, c = erasure_capacity_formulas(Fraction(3, 5), Fraction(5))
    assert q == p == 0  # clamped below the symmetric point
    assert c == Fraction(2, 5) * 5
    with pytest.raises(ValueError):
        erasure_capacity_formulas(Fraction(6, 5), 1)


def test_locking_upper_values():
    assert locking_upper(0, 16) == pytest.approx(4.0, abs=1e-12)
    assert locking_upper(Fraction(1, 2), 1) == 0.0
    # 1/2 - 1/2 (ln 2 - 1/2) log2 e
    expect = 0.5 - 0.5 * (math.log(2) - 0.5) * math.log2(math.e)
    got = locking_upper(Fraction(1, 2), 2)
    assert got == pytest.approx(expect, abs=1e-12)
    assert got == pytest.approx(0.360674, abs=1e-6)
    with pytest.raises(ValueError):
        locking_upper(Fraction(3, 5), 2)


@pytest.mark.parametrize("p", [Fraction(-1, 4), -3, "-1/1000000", -0.5])
def test_locking_upper_rejects_negative_p(p):
    # a negative p would read more than log2 d bits: 1.3197 at p = -1/4, d = 2
    with pytest.raises(ValueError, match="0 <= p <= 1/2"):
        locking_upper(p, 2)


def test_locking_upper_is_bit_identical_to_the_float_expression():
    # d descending makes every step restart gamma_d's harmonic sum; each p
    # at the same d then reuses it
    ps = [Fraction(k, 24) for k in range(13)]
    for ds in (range(1, 3001), range(3000, 0, -1)):
        for d in ds:
            for p in ps:
                old = (1 - float(p)) * math.log2(d) - float(p) * iq.gamma_d(d) * math.log2(math.e)
                assert locking_upper(p, d).hex() == old.hex(), (p, d)


def test_classical_add_upper():
    assert classical_add_upper(2, 1, Fraction(1, 4), 1) == Fraction(11, 4)
    assert classical_add_upper(0, 5, 1, Fraction(100)) == 0
    # chaining the bound one erasure factor at a time rebuilds the mixed
    # branch 2n(k-i) + i(1-p)log2d used by p1_upper
    params = SPEC_N2
    k, i = 3, 2
    acc = Fraction(2 * params.n * (k - i))
    for _ in range(i):
        acc = classical_add_upper(acc, 1, params.p, params.log2d)
    assert acc == 2 * params.n * (k - i) + i * (1 - params.p) * params.log2d
    val, _ = p1_upper(params, k)
    assert acc <= val * k  # one branch of the max


def test_p1_upper_branches():
    val, label = p1_upper(SPEC_N2, 1)
    assert val == 16 and label == "erasure"
    # the erasure branch is exactly the erasure private capacity
    _, priv, _ = erasure_capacity_formulas(SPEC_N2.p, SPEC_N2.log2d)
    assert val == priv
    val, label = p1_upper(SPEC_N2, 2)
    assert val == 54 and label == "mixed(i=1)"
    # at p = 1/2 the erasure branch is dead and the classical route (2n
    # per rocket use, regularized away) wins
    half = BoundParams(2, Fraction(1, 2), Fraction(192))
    val, label = p1_upper(half, 1)
    assert label == "classical" and val == 2 * half.n
    with pytest.raises(ValueError):
        p1_upper(SPEC_N2, 0)


def _branches_by_loop(params, k):
    """Every split of the k uses, i of them on the erasure branch."""
    n, p, log2d = params.n, params.p, params.log2d
    out = [(Fraction(2 * k * n), "classical")]
    for i in range(1, k):
        out.append((2 * n * (k - i) + i * (1 - p) * log2d, f"mixed(i={i})"))
    out.append(((1 - 2 * p) * k * log2d, "erasure"))
    return out


def _p1_upper_by_loop(params, k):
    best_val, best_label = None, None
    for val, label in _branches_by_loop(params, k):
        if best_val is None or val > best_val:  # the first strict maximum wins
            best_val, best_label = val, label
    return best_val / k, best_label


def test_p1_upper_equals_loop_over_every_split():
    ties = 0
    for n in range(1, 7):
        for num in range(1, 13):
            p = Fraction(num, 24)
            tie = 2 * n / (1 - p)  # (1-p) log2d == 2n: every mixed split ties
            log2ds = (Fraction(1), Fraction(7, 3), tie, tie + Fraction(1, 97), Fraction(48 * n * n))
            for log2d in log2ds:
                params = BoundParams(n, p, log2d)
                for k in range(1, 10):
                    assert p1_upper(params, k) == _p1_upper_by_loop(params, k)
                    ties += log2d == tie and k > 1
    assert ties > 0


Row = namedtuple("Row", "k u1 u2 u3 lower d1 d2 d3 ok")


def _values(rows):
    """The rows with their cells read back as Fractions; every cell must be
    the text str(Fraction) prints for its value."""
    out = []
    for r in rows:
        values = [Fraction(c) for c in r.cells]
        assert [str(v) for v in values] == list(r.cells)
        out.append(Row(r.k, *values, r.ok))
    return tuple(out)


def _theorem_rows_by_fractions(params):
    """The report's rows from Fraction expressions: L = q_lower(k+1) against
    2n/k, the best non-erasure split over k, and (1-2p) log2d."""
    rows = []
    for k in range(1, params.n):
        lower = q_lower(params, k + 1)
        u1 = Fraction(2 * params.n, k)
        u2 = max(v for v, label in _branches_by_loop(params, k) if label != "erasure") / k
        u3 = (1 - 2 * params.p) * params.log2d
        d1, d2, d3 = lower - u1, lower - u2, lower - u3
        rows.append(Row(k, u1, u2, u3, lower, d1, d2, d3, min(d1, d2, d3) > 0))
    return tuple(rows)


@settings(max_examples=500, database=None, deadline=None)
@given(
    num=st.one_of(st.integers(-12, 12), st.integers(-(2**70), 2**70)),
    den=st.one_of(st.just(1), st.integers(1, 5000), st.integers(1, 2**70)),
    common=st.one_of(st.just(1), st.integers(1, 2**35)),
)
@example(num=0, den=7, common=1)
@example(num=-6, den=1, common=1)
@example(num=-6, den=4, common=1)
@example(num=63 * 63 * 26 * 64 * 64, den=63 * 64, common=1)  # L at n = 64, k = 63
def test_cell_is_the_fraction_text(num, den, common):
    # a common factor makes the gcd do work; the numerators of the n = 64
    # rows stay below 2**30
    num, den = num * common, den * common
    assert _cell(num, den) == str(Fraction(num, den))


@settings(max_examples=200, database=None, deadline=None)
@given(
    n=st.integers(2, 12),
    p=st.fractions(0, Fraction(1, 2), max_denominator=48),
    log2d=st.fractions(Fraction(1, 8), 64, max_denominator=24),
)
def test_theorem_rows_equal_fraction_expressions(n, p, log2d):
    params = BoundParams(n, p, log2d)
    rows = _values(_theorem_rows(params))
    assert rows == _theorem_rows_by_fractions(params)
    assert all(r.d1 >= r.d2 for r in rows)  # U1 = 2n/k <= 2n <= U2


def test_theorem_rows_at_the_mixed_tie_and_at_half():
    for n in range(2, 9):
        for num in (0, 1, 8, 11, 12):
            p = Fraction(num, 24)
            tie = 2 * n / (1 - p)  # (1-p) log2d == 2n: classical and mixed(i=k-1) tie
            for log2d in (tie, tie - Fraction(1, 97), tie + Fraction(1, 97)):
                params = BoundParams(n, p, log2d)
                rows = _values(_theorem_rows(params))
                assert rows == _theorem_rows_by_fractions(params)
                if log2d == tie:
                    assert all(r.u2 == 2 * n and not r.ok for r in rows)
        half = BoundParams(n, Fraction(1, 2), Fraction(48 * n * n))
        rows = _values(_theorem_rows(half))
        assert rows == _theorem_rows_by_fractions(half)
        assert all(r.u3 == 0 and r.d3 == r.lower for r in rows)


def test_theorem_rows_fail_on_a_zero_difference():
    # the edges of the passing region: D3 = 0 at k = 1 when p = 1/3, and
    # D2 = 0 at k = n-1 when log2d = 2n^2/(1-p)
    for n in range(2, 9):
        edge_p = _values(_theorem_rows(BoundParams(n, Fraction(1, 3), Fraction(48 * n * n))))
        assert edge_p[0].d3 == 0 and not edge_p[0].ok
        p = Fraction(11, 24)
        edge_d = _values(_theorem_rows(BoundParams(n, p, 2 * n * n / (1 - p))))
        assert edge_d[-1].d2 == 0 and not edge_d[-1].ok


def test_theorem_u2_equals_loop_over_every_split():
    for n in range(2, 65):
        report = theorem_report(n)
        for row in _values(report.rows):
            branches = _branches_by_loop(report.params, row.k)
            assert row.u2 == max(v for v, label in branches if label != "erasure") / row.k


@settings(max_examples=200, database=None, deadline=None)
@given(
    n=st.integers(1, 8),
    p=st.fractions(0, Fraction(1, 2), max_denominator=48),
    log2d=st.fractions(Fraction(1, 8), 64, max_denominator=24),
    k=st.integers(1, 12),
)
def test_p1_upper_equals_loop_for_random_rationals(n, p, log2d, k):
    params = BoundParams(n, p, log2d)
    assert p1_upper(params, k) == _p1_upper_by_loop(params, k)


def test_q_lower():
    assert q_lower(SPEC_N2, 1) == 0
    assert q_lower(BoundParams(1, Fraction(1, 4), 1), 2) == Fraction(3, 8)
    assert q_lower(SPEC_N2, 2) == 52
    # rates grow monotonically toward (1-p) log2d
    prev = q_lower(SPEC_N2, 2)
    for j in range(3, 40):
        cur = q_lower(SPEC_N2, j)
        assert prev < cur < (1 - SPEC_N2.p) * SPEC_N2.log2d
        prev = cur
    with pytest.raises(ValueError):
        q_lower(SPEC_N2, 0)


def test_theorem_report_n2():
    rep = theorem_report(2)
    assert rep.params.p == Fraction(11, 24)
    assert rep.params.log2d == 192
    assert len(rep.rows) == 1
    (r,) = _values(rep.rows)
    assert (r.u1, r.u2, r.u3, r.lower) == (4, 4, 16, 52)
    assert (r.d1, r.d2, r.d3) == (48, 48, 36)
    assert r.ok and rep.passed


def test_theorem_report_n3():
    rep = theorem_report(3)
    row2 = _values(rep.rows)[1]
    assert row2.k == 2
    assert row2.u2 == 120
    assert row2.lower == 156
    assert row2.d2 == 36


def test_theorem_difference_identities():
    for n in (2, 3, 5, 8, 13, 21, 64):
        rep = theorem_report(n)
        for r in _values(rep.rows):
            k = r.k
            assert r.d1 == Fraction(26 * k * n * n, k + 1) - Fraction(2 * n, k)
            assert r.d2 == Fraction(-2 * n * (k - 13 * n + 1), k * (k + 1))
            assert r.d3 == Fraction(2 * (11 * k - 2) * n * n, k + 1)
            assert r.d1 == r.lower - r.u1
            assert r.d2 == r.lower - r.u2
            assert r.d3 == r.lower - r.u3


def test_theorem_passes_through_64():
    for n in range(2, 65):
        assert theorem_report(n).passed


def test_theorem_report_needs_n2():
    with pytest.raises(ValueError):
        theorem_report(1)
    with pytest.raises(ValueError):
        theorem_params(0)


def test_report_csv_and_json():
    rep = theorem_report(2)
    csv = rep.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "n,k,U1,U2,U3,L,D1,D2,D3,pass"
    assert lines[1] == "2,1,4,4,16,52,48,48,36,true"
    obj = rep.to_json_obj()
    assert obj["pass"] is True
    assert obj["unit"] == "rational-bits"
    assert obj["rows"][0]["L"] == "52"
    json.dumps(obj)  # serializable


def test_conjecture_threshold():
    assert conjecture_threshold(Fraction(11, 24), 13) == Fraction(13, 132)
    assert conjecture_threshold(Fraction(1, 2), 2) == 1
    prev = conjecture_threshold(Fraction(1, 4), 2)
    for n in range(3, 51):
        cur = conjecture_threshold(Fraction(1, 4), n)
        assert cur < prev
        prev = cur
    with pytest.raises(ValueError):
        conjecture_threshold(Fraction(1, 4), 1)
    with pytest.raises(ValueError):
        conjecture_threshold(0, 5)


def test_rationality_is_exact():
    rep = theorem_report(7)
    for r in _values(rep.rows):
        for v in (r.u1, r.u2, r.u3, r.lower, r.d1, r.d2, r.d3):
            assert isinstance(v, Fraction)
