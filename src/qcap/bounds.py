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


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as a rational")


@dataclass(frozen=True)
class BoundParams:
    """Parameters (n, p, log2d) of one interleaved channel family member."""

    n: int
    p: Fraction
    log2d: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", _frac(self.p))
        object.__setattr__(self, "log2d", _frac(self.log2d))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.p <= Fraction(1, 2):
            raise ValueError(f"p must lie in [0, 1/2], got {self.p}")
        if self.log2d <= 0:
            raise ValueError(f"log2d must be positive, got {self.log2d}")


@dataclass(frozen=True)
class TheoremRow:
    k: int
    u1: Fraction
    u2: Fraction
    u3: Fraction
    lower: Fraction
    d1: Fraction
    d2: Fraction
    d3: Fraction
    ok: bool


@dataclass(frozen=True)
class TheoremReport:
    params: BoundParams
    rows: tuple[TheoremRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_csv(self) -> str:
        lines = ["n,k,U1,U2,U3,L,D1,D2,D3,pass"]
        for r in self.rows:
            cells = [
                str(self.params.n),
                str(r.k),
                str(r.u1),
                str(r.u2),
                str(r.u3),
                str(r.lower),
                str(r.d1),
                str(r.d2),
                str(r.d3),
                "true" if r.ok else "false",
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "params": {
                "n": self.params.n,
                "p": str(self.params.p),
                "log2d": str(self.params.log2d),
            },
            "unit": "rational-bits",
            "rows": [
                {
                    "n": self.params.n,
                    "k": r.k,
                    "U1": str(r.u1),
                    "U2": str(r.u2),
                    "U3": str(r.u3),
                    "L": str(r.lower),
                    "D1": str(r.d1),
                    "D2": str(r.d2),
                    "D3": str(r.d3),
                    "pass": r.ok,
                }
                for r in self.rows
            ],
            "pass": self.passed,
        }


def erasure_capacity_formulas(p, log2d) -> tuple[Fraction, Fraction, Fraction]:
    """(Q, P, C) of the d-dimensional erasure channel, exactly.

    Q = P = max(0, (1-2p) log2d) by degradability; C = (1-p) log2d.
    """
    p = _frac(p)
    log2d = _frac(log2d)
    if not 0 <= p <= 1:
        raise ValueError(f"erasure probability must lie in [0, 1], got {p}")
    q = max(Fraction(0), (1 - 2 * p) * log2d)
    return q, q, (1 - p) * log2d


def locking_upper(p, d: int) -> float:
    """Upper bound (1-p) log2(d) - p gamma_d log2(e) on the key rate that
    survives when the adversary's side information is measured."""
    p = _frac(p)
    if p > Fraction(1, 2):
        raise ValueError(f"locking bound needs p <= 1/2, got {p}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    from .infoquant import gamma_d  # heavy import deferred; bounds stays light

    return (1.0 - float(p)) * math.log2(d) - float(p) * gamma_d(d) * math.log2(math.e)


def classical_add_upper(c1_of_n, n: int, p, log2d) -> Fraction:
    """Classical capacity bound for N tensor (n erasure factors):
    C(N) + n (1-p) log2d."""
    return _frac(c1_of_n) + n * (1 - _frac(p)) * _frac(log2d)


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
    """
    params = theorem_params(n)
    rows = []
    for k in range(1, n):
        u1 = Fraction(2 * n, k)
        u2 = max(val for val, label in _branches(params, k) if label != "erasure") / k
        u3 = (1 - 2 * params.p) * params.log2d
        lower = q_lower(params, k + 1)
        d1, d2, d3 = lower - u1, lower - u2, lower - u3
        rows.append(
            TheoremRow(
                k=k,
                u1=u1,
                u2=u2,
                u3=u3,
                lower=lower,
                d1=d1,
                d2=d2,
                d3=d3,
                ok=min(d1, d2, d3) > 0,
            )
        )
    return TheoremReport(params=params, rows=tuple(rows))


def conjecture_threshold(p, n: int) -> Fraction:
    """Smallest epsilon for which the conjectured sharper bound would bite:
    (1-p) / (p (n-1))."""
    p = _frac(p)
    if n < 2:
        raise ValueError(f"threshold needs n >= 2, got {n}")
    if not 0 < p <= Fraction(1, 2):
        raise ValueError(f"threshold needs 0 < p <= 1/2, got {p}")
    return (1 - p) / (p * (n - 1))
