"""The j-use witness input and its factored coherent-information evaluation.

The factored route (flags pinned, entropies added over independent register
groups) is the only one that scales, so its equivalence with a full
materialized evaluation is pinned here at the largest size that fits.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dense_oracle import random_density, tensor_all, von_neumann_entropy, witness_state
from qcap import infoquant as iq
from qcap import qcore
from qcap.channels import main_channel, rocket_channel, tensor_power
from qcap.qcore import partial_trace

P = Fraction(1, 4)


def test_witness_state_registers():
    rho, doc = witness_state(1, 2, 2)
    assert rho.layout.dims == (2, 2, 2, 2, 2, 2)
    assert [name for name, _ in doc.registers] == [
        "use1.flag",
        "use1.rocket1.a1",
        "use1.rocket1.a2",
        "use2.flag",
        "use2.data",
        "use2.pad",
    ]
    assert doc.pinned_flags == (0, 1)
    assert doc.paired_rockets == 1
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-10


def test_witness_state_marginals():
    rho, _ = witness_state(1, 2, 2)
    # flags are pinned deterministically
    np.testing.assert_allclose(
        partial_trace(rho, [0]).matrix, np.diag([1.0, 0.0]), atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace(rho, [3]).matrix, np.diag([0.0, 1.0]), atol=1e-12
    )
    # the paired rocket input and the partnered data register are each
    # maximally mixed, and jointly a maximally entangled (pure) state
    np.testing.assert_allclose(partial_trace(rho, [1]).matrix, np.eye(2) / 2, atol=1e-12)
    np.testing.assert_allclose(partial_trace(rho, [2]).matrix, np.eye(2) / 2, atol=1e-12)
    np.testing.assert_allclose(partial_trace(rho, [4]).matrix, np.eye(2) / 2, atol=1e-12)
    pair = partial_trace(rho, [2, 4])
    assert von_neumann_entropy(pair) == pytest.approx(0.0, abs=1e-9)
    # pad register is the fixed pure state
    np.testing.assert_allclose(partial_trace(rho, [5]).matrix, np.diag([1.0, 0.0]), atol=1e-12)


def test_witness_state_unpaired_inputs_are_pure():
    rho, doc = witness_state(1, 2, 3)
    assert doc.paired_rockets == 1
    names = [name for name, _ in doc.registers]
    idx = names.index("use3.data")
    marg = partial_trace(rho, [idx])
    np.testing.assert_allclose(marg.matrix, np.diag([1.0, 0.0]), atol=1e-12)


def test_witness_state_validates_arguments():
    with pytest.raises(ValueError):
        witness_state(0, 2, 2)
    with pytest.raises(ValueError):
        witness_state(1, 2, 1)
    with pytest.raises(qcore.DimensionCapError):
        witness_state(2, 2, 3)  # (2 * 2^4)^3 = 32768 exceeds the cap


@pytest.mark.parametrize("ensemble", ["identity", "pauli"])
def test_factored_matches_dense_two_uses(ensemble):
    # two whole uses of the switch, no flag pinned by the evaluation; the
    # Pauli case has 4096-dimensional outputs and 324 blocks
    dense_ch = tensor_power(main_channel(1, P, 2, ensemble=ensemble), 2)
    rho, _ = witness_state(1, 2, 2)
    dense = iq.coherent_information(dense_ch, rho)
    fact = iq.witness_coherent_info(1, P, 2, 2, ensemble=ensemble)
    assert fact.value == pytest.approx(dense.value, abs=1e-9)
    assert fact.components["H(B)"] == pytest.approx(dense.components["H(B)"], abs=1e-9)
    assert fact.components["H(E)"] == pytest.approx(dense.components["H(E)"], abs=1e-9)


def test_factored_value_is_ensemble_independent():
    a = iq.witness_coherent_info(1, P, 2, 2, ensemble="identity")
    b = iq.witness_coherent_info(1, P, 2, 2, ensemble="pauli")
    assert a.value == pytest.approx(b.value, abs=1e-9)


def test_pinned_switch_equals_bare_component():
    # with the flag pinned, the full switch and the selected component give
    # identical output/environment entropies (up to the deterministic flag)
    ch = main_channel(1, P, 2)
    rng = np.random.default_rng(23)
    data = random_density((2, 2), rng)
    pinned = qcore.tensor(qcore.basis_state(2, 0), data)
    full = iq.coherent_information(ch, pinned)
    bare = iq.coherent_information(rocket_channel(2), data)
    assert full.value == pytest.approx(bare.value, abs=1e-9)


def test_main_channel_with_two_rockets_at_desk_scale():
    # main_channel(2, 1/4, 2) has 32 inputs, 2048 outputs and 1048 Kraus
    # operators; flag |1>, data I/2 and pad |0> gets the erasure's rate
    ch = main_channel(2, P, 2)
    assert (ch.in_dim, ch.out_dim, ch.n_kraus) == (32, 2048, 1048)
    rho = tensor_all(
        qcore.basis_state(2, 1),
        qcore.max_mixed(2),
        qcore.basis_state((2, 2, 2), 0),
    )
    res = iq.coherent_information(ch, rho)
    assert res.value == pytest.approx(float(1 - 2 * P) * math.log2(2), abs=1e-9)


def test_d4_witness_keeps_outputs_as_blocks():
    # the paired group's 5120-dimensional outputs, held dense, were two
    # 400 MiB arrays and put the peak at 1.27 GiB
    tracemalloc.start()
    try:
        res = iq.witness_coherent_info(2, P, 4, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.diagnostics["rate_per_use"] == pytest.approx(1.0, abs=1e-9)
    assert peak < 256 * 2**20


def test_witness_rates():
    assert iq.witness_coherent_info(1, P, 2, 2).diagnostics[
        "rate_per_use"
    ] == pytest.approx(0.375, abs=1e-9)
    assert iq.witness_coherent_info(1, P, 2, 3).diagnostics[
        "rate_per_use"
    ] == pytest.approx(0.25, abs=1e-9)
    assert iq.witness_coherent_info(2, P, 2, 3).diagnostics[
        "rate_per_use"
    ] == pytest.approx(0.5, abs=1e-9)


def test_witness_total_scales_with_pairs():
    # each paired rocket contributes exactly (1-p) log2 d
    for n, j in ((1, 2), (1, 3), (2, 3), (3, 4)):
        res = iq.witness_coherent_info(n, P, 2, j)
        pairs = min(n, j - 1)
        assert res.value == pytest.approx(pairs * 0.75, abs=1e-9)
        assert res.diagnostics["paired_rockets"] == pairs


def test_witness_rate_with_erasure_probability():
    for p in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)):
        res = iq.witness_coherent_info(1, p, 2, 2)
        assert res.value == pytest.approx(float(1 - p), abs=1e-9)


def test_witness_rate_qutrit():
    res = iq.witness_coherent_info(1, P, 3, 2, ensemble="identity")
    assert res.value == pytest.approx(0.75 * math.log2(3), abs=1e-9)


def test_unpaired_groups_contribute_nothing():
    # pure product inputs through any channel add equal amounts to both
    # output and environment entropy; j=3 at n=1 must equal j=2 in total
    a = iq.witness_coherent_info(1, P, 2, 2)
    b = iq.witness_coherent_info(1, P, 2, 3)
    assert b.value == pytest.approx(a.value, abs=1e-9)
