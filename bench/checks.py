"""Independent checks of qcap's command-line outputs.

Every expected value here is computed apart from the program: the theorem
rows from their closed forms in exact fractions, the locking bound through
mpmath's digamma, the verify figures from the formulas the suites claim,
and the dense coherent informations from the erasure channel's closed form
or the purity of the input. Each function returns a list of error strings;
an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import mpmath

THEOREM_P = Fraction(11, 24)
THEOREM_HEADER = "n,k,U1,U2,U3,L,D1,D2,D3,pass"
LOCKING_HEADER = "p,d,upper_bits"


def theorem_row(n: int, k: int) -> dict[str, Fraction]:
    """U1, U2, U3, L and their differences for row k of bounds theorem --n n."""
    p, log2d = THEOREM_P, Fraction(48 * n * n)
    u1 = Fraction(2 * n, k)
    u2 = max(Fraction(2 * n * k), 2 * n + (k - 1) * (1 - p) * log2d) / k
    u3 = (1 - 2 * p) * log2d
    low = Fraction(k, k + 1) * (1 - p) * log2d
    return {"U1": u1, "U2": u2, "U3": u3, "L": low, "D1": low - u1, "D2": low - u2, "D3": low - u3}


def locking_exact(p: Fraction, d: int) -> mpmath.mpf:
    """(1-p) log2 d - p (ln d - (psi(d+1) + EulerGamma - 1)) log2 e."""
    with mpmath.workdps(30):
        pm = mpmath.mpf(p.numerator) / p.denominator
        gamma_d = mpmath.log(d) - (mpmath.digamma(d + 1) + mpmath.euler - 1)
        return (1 - pm) * mpmath.log(d, 2) - pm * gamma_d / mpmath.log(2)


def close9(printed: float, exact) -> bool:
    """True when `printed` is `exact` rounded to 9 significant digits.

    Allows half a unit in the ninth digit plus float round-off, so a change
    of one unit in the ninth printed digit fails.
    """
    exact = float(exact)
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(exact))) - 8)
    return abs(printed - exact) <= half_unit + 1e-12 * abs(exact)


def check_theorem_csv(text: str, n: int, ks: range | None = None) -> list[str]:
    """Rows of `bounds theorem --format csv` or `sweep bounds`, recomputed."""
    ks = range(1, n) if ks is None else ks
    lines = text.splitlines()
    if not lines or lines[0] != THEOREM_HEADER:
        return [f"theorem n={n}: bad header {lines[:1]}"]
    errors = []
    seen = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 10:
            errors.append(f"theorem n={n}: bad row {line!r}")
            continue
        row_n, k = int(cells[0]), int(cells[1])
        seen.append(k)
        want = theorem_row(n, k)
        for name, cell in zip(THEOREM_HEADER.split(",")[2:9], cells[2:9]):
            if Fraction(cell) != want[name]:
                errors.append(f"theorem n={n} k={k}: {name}={cell}, expected {want[name]}")
        if row_n != n:
            errors.append(f"theorem n={n} k={k}: row carries n={row_n}")
        if min(want["D1"], want["D2"], want["D3"]) <= 0 or cells[9] != "true":
            errors.append(f"theorem n={n} k={k}: pass={cells[9]}, needs every D > 0")
    if seen != [k for k in ks if 1 <= k < n]:
        errors.append(f"theorem n={n}: rows k={seen}, expected {list(ks)}")
    return errors


def check_locking_csv(text: str, p: Fraction, lo: int, hi: int) -> list[str]:
    """`sweep locking` rows, or the `bounds locking --format csv` row."""
    lines = text.splitlines()
    if not lines or lines[0] != LOCKING_HEADER:
        return [f"locking p={p}: bad header {lines[:1]}"]
    errors = []
    ds = []
    for line in lines[1:]:
        p_cell, d_cell, value = line.split(",")
        d = int(d_cell)
        ds.append(d)
        if Fraction(p_cell) != p:
            errors.append(f"locking d={d}: p={p_cell}, expected {p}")
        if not close9(float(value), locking_exact(p, d)):
            errors.append(f"locking p={p} d={d}: {value}, expected {locking_exact(p, d)}")
    if ds != list(range(lo, hi + 1)):
        errors.append(f"locking p={p}: d values {ds[:3]}..., expected {lo}..{hi}")
    return errors


def check_locking_json(text: str, p: Fraction, d: int) -> list[str]:
    obj = json.loads(text)
    want = locking_exact(p, d)
    if (Fraction(obj["p"]), obj["d"], obj["unit"]) != (p, d, "bits"):
        return [f"bounds locking: echoed {obj}, expected p={p} d={d} unit=bits"]
    if not close9(obj["value"], want):
        return [f"bounds locking p={p} d={d}: {obj['value']}, expected {want}"]
    return []


def check_conjecture(text: str, p: Fraction, n: int) -> list[str]:
    got = Fraction(json.loads(text)["epsilon_threshold"])
    want = (1 - p) / (p * (n - 1))
    return [] if got == want else [f"conjecture p={p} n={n}: {got}, expected {want}"]


_VALUE = r"(-?[0-9.e+-]+)"


def _field(text: str, pattern: str) -> list[re.Match]:
    return list(re.finditer(pattern, text, re.MULTILINE))


def check_verify_report(text: str, suite: str, seed: int, n_checks: int) -> list[str]:
    """A `verify` report: summary line, PASS lines, and the pinned figures
    (lemma1's 1 - 2/10, gamma_2 = ln 2 - 1/2, witness rates
    min(n, j-1)/j (1-p) log2 d) recomputed here."""
    lines = text.splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"verify {suite}: no JSON summary line"]
    errors = []
    want = {"suite": suite, "seed": seed, "checks": n_checks, "failures": 0, "pass": True}
    if summary != want:
        errors.append(f"verify {suite}: summary {summary}, expected {want}")
    verdicts = [ln.split(" ", 1)[0] for ln in lines if ln.startswith(("PASS ", "FAIL "))]
    if verdicts != ["PASS"] * n_checks:
        errors.append(f"verify {suite}: verdicts {verdicts}, expected {n_checks} PASS")

    pinned = []
    if suite in ("all", "lemma1"):
        pinned.append((r"^PASS lemma1\.pinned-ensemble-value: value=" + _VALUE, 1 - 2 * Fraction(1, 10)))
    if suite in ("all", "lemma2-appendix"):
        pinned.append((r"^PASS lemma2-appendix\.gamma-2: value=" + _VALUE, mpmath.log(2) - 0.5))
    for pattern, exact in pinned:
        found = _field(text, pattern)
        if len(found) != 1 or not close9(float(found[0].group(1)), exact):
            errors.append(f"verify {suite}: {pattern!r} gave {[m.group(1) for m in found]}, expected {exact}")

    rates = _field(
        text,
        r"^PASS lower-bound\.witness-rate: n=(\d+) d=(\d+) p=([0-9/]+) uses=(\d+): rate=" + _VALUE,
    )
    if suite in ("all", "lower-bound") and not rates:
        errors.append(f"verify {suite}: no witness-rate line")
    for m in rates:
        n, d, p, j = int(m.group(1)), int(m.group(2)), Fraction(m.group(3)), int(m.group(4))
        exact = Fraction(min(n, j - 1), j) * (1 - p) * mpmath.log(d, 2)
        if not close9(float(m.group(5)), exact):
            errors.append(f"verify witness n={n} d={d} p={p} j={j}: rate={m.group(5)}, expected {exact}")
    return errors


def check_coherent(text: str, exact) -> list[str]:
    """`info coherent` JSON: value equals `exact` and H(B) - H(E) to 9 digits."""
    obj = json.loads(text)
    errors = []
    if (obj.get("quantity"), obj.get("unit")) != ("coherent", "bits"):
        errors.append(f"info coherent: quantity/unit {obj.get('quantity')}/{obj.get('unit')}")
    hb, he, value = obj["components"]["H(B)"], obj["components"]["H(E)"], obj["value"]
    # a zero value has no ninth digit; it is the difference of two entropies
    # of a few bits, each computed from a spectrum in double precision
    ok = abs(value) <= 1e-9 if exact == 0 else close9(value, exact)
    if not ok:
        errors.append(f"info coherent: value {value}, expected {exact}")
    # hb and he are each rounded to 9 digits, so their difference carries
    # at most one rounding unit of the larger one
    if abs((hb - he) - value) > 1e-8 * max(abs(hb), abs(he), 1.0):
        errors.append(f"info coherent: H(B)-H(E)={hb - he}, value {value}")
    return errors
