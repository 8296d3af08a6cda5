"""End-to-end acceptance checks, one test per shipped guarantee.

Each test carries its stated tolerance and, where promised, its runtime
budget. The terminal summary (see conftest) prints one verdict line per
check.
"""

import functools
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from dense_oracle import random_density, von_neumann_entropy
from qcap import infoquant as iq
from qcap import qcore, verify
from qcap.bounds import locking_upper, theorem_report
from qcap.channels import erasure_channel, switch_channel
from qcap.qcore import LOG2E


def test_a1_interleaving_bounds_exact():
    start = time.perf_counter()
    for n in range(2, 65):
        rep = theorem_report(n)
        assert rep.passed, f"difference not positive at n={n}"
        for row in rep.rows:
            assert all(str(Fraction(c)) == c for c in row.cells)  # exact, reduced
            assert min(map(Fraction, row.cells[4:])) > 0  # D1, D2, D3
    elapsed = time.perf_counter() - start
    row = theorem_report(2).rows[0]
    assert row.cells[:4] == ("4", "4", "16", "52")  # U1, U2, U3, L
    assert row.cells[4:] == ("48", "48", "36")
    assert elapsed < 1.0, f"exact sweep took {elapsed:.2f}s"


def test_a2_witness_rate_closed_form():
    start = time.perf_counter()
    rate2 = iq.witness_coherent_info(1, Fraction(1, 4), 2, 2).diagnostics["rate_per_use"]
    assert rate2 == pytest.approx(0.375, abs=1e-6)
    # three uses in the regime with enough rockets to pair every later use
    rate3 = iq.witness_coherent_info(2, Fraction(1, 4), 2, 3).diagnostics["rate_per_use"]
    assert rate3 == pytest.approx(0.5, abs=1e-6)
    # with a single rocket the third use stays unpaired: min(n, j-1) pairs
    rate3_single = iq.witness_coherent_info(1, Fraction(1, 4), 2, 3).diagnostics[
        "rate_per_use"
    ]
    assert rate3_single == pytest.approx(min(1, 2) * 0.75 / 3, abs=1e-6)
    assert time.perf_counter() - start < 60.0


@pytest.mark.xfail(
    strict=True,
    reason="a single rocket cannot pair two later uses; the attainable rate "
    "at n=1, j=3 is 0.25, while the full-pairing formula (j-1)(1-p)/j gives 0.5",
)
def test_witness_three_uses_single_rocket_reaches_formula():
    rate = iq.witness_coherent_info(1, Fraction(1, 4), 2, 3).diagnostics["rate_per_use"]
    assert rate == pytest.approx(0.5, abs=1e-6)


def test_a3_erasure_closed_forms_via_search():
    start = time.perf_counter()
    cfg = iq.OptimizerConfig(restarts=6, iterations=400, seed=0)
    for p in (Fraction(1, 10), Fraction(1, 4), Fraction(3, 10), Fraction(1, 2)):
        val, _ = iq.brute_force_p1(erasure_channel(p, 2), cfg)
        assert val == pytest.approx(max(0.0, 1 - 2 * float(p)), abs=1e-3), f"p={p}"
    c1, _ = iq.brute_force_c1(erasure_channel(Fraction(1, 4), 2), cfg)
    assert c1 == pytest.approx(0.75, abs=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"searches took {elapsed:.1f}s"


def test_a4_switch_private_value_flag_pinned():
    sw = switch_channel(
        [erasure_channel(Fraction(1, 10), 2), erasure_channel(Fraction(2, 5), 2)]
    )
    val, ens = iq.brute_force_p1(sw, iq.OptimizerConfig(restarts=10, iterations=500, seed=0))
    assert val == pytest.approx(0.8, abs=2e-2)
    mass = sum(
        p * float(qcore.partial_trace(qcore.DensityOperator(ens.layout, m), [0]).matrix[0, 0].real)
        for p, m in zip(ens.probs, ens.states)
    )
    assert mass >= 0.95, f"best ensemble leaks off the pinned flag: {mass:.3f}"


def test_a5_locking_value_and_entropy_gap():
    assert locking_upper(Fraction(1, 2), 2) == pytest.approx(0.360674, abs=1e-6)
    rng = np.random.default_rng(0)
    violations = 0
    for i in range(200):
        d = 2 + (i % 3)
        rho = random_density((d,), rng)
        gap = von_neumann_entropy(rho) - iq.subentropy(rho)
        if gap > float(iq.harmonic(d)) * LOG2E + 1e-9:
            violations += 1
    assert violations == 0


def test_a6_additive_classical_bound_sampled():
    res = verify.run_lemma3(seed=0, samples=200)
    assert res.passed, res.checks[0].detail


@functools.lru_cache(maxsize=1)
def _lemma2_report_text() -> str:
    results = verify.run_suite("lemma2-appendix", seed=0, samples=5000)
    assert all(r.passed for r in results)
    return verify.render_report(results, "lemma2-appendix", 0)


def test_a7_measured_entropy_cross_check():
    mean, se = iq.haar_measured_entropy(qcore.basis_state(2, 0), 200000, seed=0)
    assert se > 0
    assert abs(mean - LOG2E / 2) <= 3 * se, f"mean={mean} se={se}"
    assert mean == pytest.approx(0.72135, abs=3 * se)
    # the additive-constant resolution must be stated in the report output
    text = _lemma2_report_text()
    assert "(H_d - 1) log2(e)" in text
    assert "pins the constant" in text


def test_a8_gamma_values_and_finding():
    assert iq.gamma_d(2) == pytest.approx(math.log(2) - 0.5, abs=1e-9)
    assert iq.gamma_d(2) == pytest.approx(0.193147, abs=1e-6)
    assert iq.gamma_d(10000) == pytest.approx(0.422834, abs=1e-4)
    # the limit is 1 - EulerGamma, not EulerGamma; the report must say so
    assert iq.gamma_d(10000) == pytest.approx(1 - np.euler_gamma, abs=1e-4)
    text = _lemma2_report_text()
    assert "not toward EulerGamma = 0.577216" in text


def test_a9_verify_all_byte_identical():
    cmd = [sys.executable, "-m", "qcap", "verify", "all", "--seed", "0"]
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert b'"pass":true' in first.stdout
