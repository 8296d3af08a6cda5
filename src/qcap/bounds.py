"""Exact-rational capacity bounds for the interleaved switch construction.

Everything here works with log2(d) as a rational number of bits, never with
d itself: the interesting dimension is 2^(48 n^2), far beyond any matrix,
while every bound is linear in log d. Only the standard library is needed,
so the checks stay fast even at n = 64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import as_fraction

_LOG2E = math.log2(math.e)


@dataclass(frozen=True)
class BoundParams:
    """Parameters (n, p, log2d) of one interleaved channel family member."""

    n: int
    p: Fraction
    log2d: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", as_fraction(self.p))
        object.__setattr__(self, "log2d", as_fraction(self.log2d))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.p <= Fraction(1, 2):
            raise ValueError(f"p must lie in [0, 1/2], got {self.p}")
        if self.log2d <= 0:
            raise ValueError(f"log2d must be positive, got {self.log2d}")


_CELLS = ("U1", "U2", "U3", "L", "D1", "D2", "D3")


def _cell(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, reduced with one gcd."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


@dataclass(frozen=True)
class TheoremRow:
    """Row k: U1, U2, U3, L, D1, D2, D3 as reduced rationals in text, and
    whether every difference is positive."""

    k: int
    cells: tuple[str, ...]
    ok: bool


@dataclass(frozen=True)
class TheoremReport:
    params: BoundParams
    rows: tuple[TheoremRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_csv(self) -> str:
        n = self.params.n
        lines = [",".join(("n", "k", *_CELLS, "pass"))]
        for r in self.rows:
            lines.append(f"{n},{r.k},{','.join(r.cells)},{'true' if r.ok else 'false'}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        n = self.params.n
        return {
            "params": {"n": n, "p": str(self.params.p), "log2d": str(self.params.log2d)},
            "unit": "rational-bits",
            "rows": [
                {"n": n, "k": r.k, **dict(zip(_CELLS, r.cells)), "pass": r.ok}
                for r in self.rows
            ],
            "pass": self.passed,
        }


def erasure_capacity_formulas(p, log2d) -> tuple[Fraction, Fraction, Fraction]:
    """(Q, P, C) of the d-dimensional erasure channel, exactly.

    Q = P = max(0, (1-2p) log2d) by degradability; C = (1-p) log2d.
    """
    p = as_fraction(p)
    log2d = as_fraction(log2d)
    if not 0 <= p <= 1:
        raise ValueError(f"erasure probability must lie in [0, 1], got {p}")
    q = max(Fraction(0), (1 - 2 * p) * log2d)
    return q, q, (1 - p) * log2d


def locking_upper(p, d: int) -> float:
    """Upper bound (1-p) log2(d) - p gamma_d log2(e) on the key rate that
    survives when the adversary's side information is measured."""
    p = as_fraction(p)
    num, den = p.numerator, p.denominator  # den > 0, so 0 <= p <= 1/2 on integers
    if not 0 <= 2 * num <= den:
        raise ValueError(f"locking bound needs 0 <= p <= 1/2, got {p}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    from .infoquant import gamma_d  # deferred: it pulls in numpy; bounds stays light

    pf = num / den  # what float(p) computes, bit for bit
    return (1.0 - pf) * math.log2(d) - pf * gamma_d(d) * _LOG2E


def classical_add_upper(c1_of_n, n: int, p, log2d) -> Fraction:
    """Classical capacity bound for N tensor (n erasure factors):
    C(N) + n (1-p) log2d."""
    return as_fraction(c1_of_n) + n * (1 - as_fraction(p)) * as_fraction(log2d)


def _branches(params: BoundParams, k: int) -> list[tuple[Fraction, str]]:
    """The k-use totals that can win, with their labels, in tie-break order.

    Sending i of the k uses through the erasure branch is bounded by
    2n(k-i) + i(1-p)log2d, which is linear in i and equals the classical
    route at i = 0. So over 0 <= i < k its maximum lies at i = 0 or at
    i = k-1, and no split in between can win outright.
    """
    n, p, log2d = params.n, params.p, params.log2d
    out: list[tuple[Fraction, str]] = [(Fraction(2 * k * n), "classical")]
    if k > 1:
        out.append((2 * n + (k - 1) * (1 - p) * log2d, f"mixed(i={k - 1})"))
    out.append(((1 - 2 * p) * k * log2d, "erasure"))
    return out


def p1_upper(params: BoundParams, k: int) -> tuple[Fraction, str]:
    """Regularized private-information upper bound over k uses.

    Over k uses the sender may split them between the rocket bank (bounded
    through its classical capacity, at most 2 bits per rocket) and the
    erasure branch (bounded by its private capacity); crossing splits pay
    the classical additivity bound. The result is (1/k) times the largest
    branch, with the label of the first branch that attains it.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    best_val, best_label = max(_branches(params, k), key=lambda branch: branch[0])
    return best_val / k, best_label


def q_lower(params: BoundParams, j: int) -> Fraction:
    """Achievable coherent-information rate (j-1)(1-p)/j * log2d over j uses."""
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    return Fraction(j - 1, j) * (1 - params.p) * params.log2d


def theorem_params(n: int) -> BoundParams:
    if n < 2:
        raise ValueError(f"the interleaving argument needs n >= 2, got {n}")
    return BoundParams(n=n, p=Fraction(11, 24), log2d=Fraction(48) * n * n)


def theorem_report(n: int) -> TheoremReport:
    """Exact evaluation of the k-use upper bounds against the (k+1)-use
    lower bound at p = 11/24, log2d = 48 n^2, for every 1 <= k < n.

    U1 is the pure classical-capacity route 2n/k, U2 the best mixed branch
    (i < k) of p1_upper, U3 the pure erasure branch (which equals 4 n^2
    regardless of k). The row passes iff all three differences against
    L = q_lower(k+1) are strictly positive.

    The rows are a closed form over one integer denominator per row. With
    a = (1-p) log2d = an/ad and U3 = (1-2p) log2d = bn/bd in lowest terms,
    every cell of row k is a multiple of 1/D, D = k(k+1) ad bd:

        L  = k a / (k+1)                  = k^2 an bd / D
        U1 = 2n / k                       = 2n (k+1) ad bd / D
        U2 = max(2kn, 2n + (k-1) a) / k   = (k+1) bd max(2nk ad, 2n ad + (k-1) an) / D
        U3 = (1-2p) log2d                 = k (k+1) ad bn / D

    U2 is the larger of the classical and mixed(i=k-1) totals of _branches
    (at k = 1 both are 2n). Writing L = l/D and U_i = v_i/D, the difference
    D_i is (l - v_i)/D, and since D > 0 the row passes iff
    min(l - v1, l - v2, l - v3) > 0, decided on integers. D1 never decides
    a row: the classical total alone gives U2 >= 2kn/k = 2n >= 2n/k = U1,
    so D1 >= D2. Each printed cell is its numerator over D (U3 over bd)
    reduced once by a gcd, the text str(Fraction) would print; the row
    keeps only that text.
    """
    params = theorem_params(n)
    return TheoremReport(params=params, rows=_theorem_rows(params))


def _theorem_rows(params: BoundParams) -> tuple[TheoremRow, ...]:
    """The rows k = 1..n-1 of the theorem report at any (n, p, log2d), by
    the closed form derived in theorem_report."""
    n = params.n
    a = (1 - params.p) * params.log2d
    b = (1 - 2 * params.p) * params.log2d
    an, ad = a.numerator, a.denominator
    bn, bd = b.numerator, b.denominator
    u3 = _cell(bn, bd)
    rows = []
    for k in range(1, n):
        den = k * (k + 1) * ad * bd
        low = k * k * an * bd
        v1 = 2 * n * (k + 1) * ad * bd
        v2 = (k + 1) * bd * max(2 * n * k * ad, 2 * n * ad + (k - 1) * an)
        v3 = k * (k + 1) * ad * bn
        diff1, diff2, diff3 = low - v1, low - v2, low - v3
        cells = (_cell(v1, den), _cell(v2, den), u3, _cell(low, den),
                 _cell(diff1, den), _cell(diff2, den), _cell(diff3, den))
        rows.append(TheoremRow(k, cells, min(diff1, diff2, diff3) > 0))
    return tuple(rows)


def conjecture_threshold(p, n: int) -> Fraction:
    """Smallest epsilon for which the conjectured sharper bound would bite:
    (1-p) / (p (n-1))."""
    p = as_fraction(p)
    if n < 2:
        raise ValueError(f"threshold needs n >= 2, got {n}")
    if not 0 < p <= Fraction(1, 2):
        raise ValueError(f"threshold needs 0 < p <= 1/2, got {p}")
    return (1 - p) / (p * (n - 1))
