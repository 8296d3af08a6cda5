import math
from fractions import Fraction

import numpy as np
import pytest

from qcap import infoquant as iq
from qcap import qcore
from qcap.channels import CqEnsemble, erasure_channel, switch_channel, tensor_channels
from qcap.qcore import LOG2E, basis_state, max_mixed

H = lambda p: -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _computational_ensemble(d=2):
    return CqEnsemble(
        tuple((1.0 / d, basis_state(d, x).to_density()) for x in range(d))
    )


def test_coherent_information_erasure_closed_form():
    # degradable channel: I/2 input attains Q1 = (1-2p) log2 d
    for p in (Fraction(0), Fraction(1, 4), Fraction(2, 5)):
        res = iq.coherent_information(erasure_channel(p, 2), max_mixed(2))
        assert res.value == pytest.approx(float(1 - 2 * p), abs=1e-9)
        assert res.value == pytest.approx(
            res.components["H(B)"] - res.components["H(E)"], abs=1e-12
        )


def test_coherent_information_components():
    res = iq.coherent_information(erasure_channel(Fraction(1, 4), 2), max_mixed(2))
    assert res.components["H(B)"] == pytest.approx(H(0.25) + 0.75, abs=1e-9)
    assert res.components["H(E)"] == pytest.approx(H(0.25) + 0.25, abs=1e-9)
    assert res.diagnostics["max_trace_residual"] < 1e-9


def test_holevo_and_private_erasure():
    ch = erasure_channel(Fraction(1, 4), 2)
    ens = _computational_ensemble()
    assert iq.holevo_bob(ch, ens).value == pytest.approx(0.75, abs=1e-9)
    assert iq.holevo_eve(ch, ens).value == pytest.approx(0.25, abs=1e-9)
    priv = iq.private_value(ch, ens)
    assert priv.value == pytest.approx(0.5, abs=1e-9)
    assert priv.value == pytest.approx(
        priv.components["I(X;B)"] - priv.components["I(X;E)"], abs=1e-12
    )


def test_private_value_vanishes_at_half():
    ch = erasure_channel(Fraction(1, 2), 2)
    assert iq.private_value(ch, _computational_ensemble()).value == pytest.approx(
        0.0, abs=1e-9
    )


def test_brute_force_deterministic():
    ch = erasure_channel(Fraction(1, 4), 2)
    cfg = iq.OptimizerConfig(restarts=3, iterations=150, seed=5)
    v1, e1 = iq.brute_force_p1(ch, cfg)
    v2, e2 = iq.brute_force_p1(ch, cfg)
    assert v1 == v2
    for (p1, r1), (p2, r2) in zip(e1.items, e2.items):
        assert p1 == p2
        np.testing.assert_array_equal(r1.matrix, r2.matrix)


def test_brute_force_c1_erasure():
    v, ens = iq.brute_force_c1(
        erasure_channel(Fraction(1, 4), 2), iq.OptimizerConfig(restarts=4, iterations=300)
    )
    assert v == pytest.approx(0.75, abs=1e-3)
    assert ens.layout.dims == (2,)


def test_brute_force_rejects_large_inputs():
    ch = erasure_channel(Fraction(1, 4), 9)
    with pytest.raises(ValueError):
        iq.brute_force_p1(ch)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        iq.OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        iq.OptimizerConfig(iterations=0)


def test_subentropy_values():
    # Q(I/d) = log2 d - (H_d - 1) log2 e, from the mean measured entropy
    for d in (2, 3, 4):
        expect = math.log2(d) - (float(iq.harmonic(d)) - 1.0) * LOG2E
        assert iq.subentropy(max_mixed(d)) == pytest.approx(expect, abs=1e-6)
    assert iq.subentropy(basis_state(4, 2).to_density()) == 0.0


def test_subentropy_distinct_spectrum():
    rho = qcore.DensityOperator(
        qcore.SystemLayout((3,)), np.diag([0.5, 0.3, 0.2]).astype(complex)
    )
    lam = [0.5, 0.3, 0.2]
    expect = -sum(
        lam[k] ** 3
        / math.prod(lam[k] - lam[j] for j in range(3) if j != k)
        * math.log2(lam[k])
        for k in range(3)
    )
    assert iq.subentropy(rho) == pytest.approx(expect, abs=1e-12)


def test_subentropy_zero_padding_invariance():
    padded = qcore.DensityOperator(
        qcore.SystemLayout((3,)), np.diag([0.5, 0.5, 0.0]).astype(complex)
    )
    assert iq.subentropy(padded) == pytest.approx(
        iq.subentropy(max_mixed(2)), abs=1e-6
    )


def test_subentropy_below_entropy():
    rng = np.random.default_rng(17)
    for _ in range(25):
        rho = qcore.random_density((3,), rng)
        q = iq.subentropy(rho)
        assert -1e-9 <= q <= qcore.von_neumann_entropy(rho) + 1e-9


def test_harmonic_and_gamma():
    assert iq.harmonic(1) == 1
    assert iq.harmonic(4) == Fraction(25, 12)
    assert iq.gamma_d(1) == 0.0
    assert iq.gamma_d(2) == pytest.approx(math.log(2) - 0.5, abs=1e-15)
    # grows toward 1 - EulerGamma, not EulerGamma
    assert iq.gamma_d(10000) == pytest.approx(1 - np.euler_gamma, abs=1e-4)
    with pytest.raises(ValueError):
        iq.gamma_d(0)


def test_haar_measured_entropy_pure_qubit():
    mean, se = iq.haar_measured_entropy(basis_state(2, 0).to_density(), 40000, 3)
    assert se > 0
    assert abs(mean - LOG2E / 2) < 4 * se


def test_haar_measured_entropy_max_mixed_exact():
    mean, se = iq.haar_measured_entropy(max_mixed(2), 50, 0)
    assert mean == pytest.approx(1.0, abs=1e-12)
    assert se < 1e-12


def test_haar_measured_entropy_seeded():
    rho = max_mixed(3)
    a = iq.haar_measured_entropy(rho, 100, 9)
    b = iq.haar_measured_entropy(rho, 100, 9)
    assert a == b


def test_measured_entropy_subentropy_constant():
    # <H(measured)> - Q = (H_d - 1) log2 e; exact at the maximally mixed
    # state where every basis gives entropy log2 d
    for d in (2, 3):
        gap = math.log2(d) - iq.subentropy(max_mixed(d))
        assert gap == pytest.approx((float(iq.harmonic(d)) - 1.0) * LOG2E, abs=1e-6)


def test_accessible_info_orthogonal_pair():
    ens = CqEnsemble(
        ((0.5, basis_state(2, 0).to_density()), (0.5, basis_state(2, 1).to_density()))
    )
    val, povm = iq.accessible_info_search(ens, iq.OptimizerConfig(restarts=3, iterations=300))
    assert val == pytest.approx(1.0, abs=1e-6)
    total = sum(povm)
    np.testing.assert_allclose(total, np.eye(2), atol=1e-8)


def test_accessible_info_bb84_sandwich():
    lay = qcore.SystemLayout((2,))
    plus = qcore.PureState(lay, np.array([1, 1]) / math.sqrt(2)).to_density()
    minus = qcore.PureState(lay, np.array([1, -1]) / math.sqrt(2)).to_density()
    ens = CqEnsemble(
        (
            (0.25, basis_state(2, 0).to_density()),
            (0.25, basis_state(2, 1).to_density()),
            (0.25, plus),
            (0.25, minus),
        )
    )
    val, _ = iq.accessible_info_search(ens, iq.OptimizerConfig(restarts=6, iterations=400))
    avg = max_mixed(2)
    assert iq.subentropy(avg) - 1e-6 <= val <= 1.0 + 1e-9


def test_accessible_info_rejects_large_dims():
    ens = CqEnsemble(((1.0, max_mixed(5)),))
    with pytest.raises(ValueError):
        iq.accessible_info_search(ens)
