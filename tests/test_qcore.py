import math

import numpy as np
import pytest

from qcap import qcore
from qcap.qcore import (
    DensityOperator,
    DimensionCapError,
    PureState,
    SystemLayout,
    basis_state,
    check_dim,
    hermitian_eigh,
    max_entangled,
    max_mixed,
    partial_trace,
    permute_systems,
    purify,
    shannon_entropy,
    tensor,
    tensor_all,
    von_neumann_entropy,
)


def test_layout_total_and_concat():
    a = SystemLayout((2, 3))
    b = SystemLayout((4,))
    assert a.total == 6
    assert len(a) == 2
    assert a.concat(b).dims == (2, 3, 4)


def test_layout_rejects_bad_dims():
    with pytest.raises(ValueError):
        SystemLayout((2, 0))
    with pytest.raises(ValueError):
        SystemLayout((2, 2), labels=("x", "x"))


def test_pure_state_normalization_enforced():
    lay = SystemLayout((2,))
    PureState(lay, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        PureState(lay, np.array([1.0, 1.0]))


def test_pure_state_error_reports_the_norm_deviation():
    # the check tests |norm - 1|; a norm of 1.1 deviates by 0.1, not by
    # the 0.21 of the squared norm
    with pytest.raises(ValueError, match=r"^norm deviates from 1 by 1\.000e-01$"):
        PureState(SystemLayout((2,)), np.array([1.1, 0.0]))


def test_density_validation():
    lay = SystemLayout((2,))
    with pytest.raises(ValueError):
        DensityOperator(lay, np.array([[0.5, 0.3], [0.2, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(lay, np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityOperator(lay, np.diag([1.5, -0.5]).astype(complex))  # not PSD


def test_basis_and_max_mixed():
    e1 = basis_state(3, 1)
    assert e1.amplitudes[1] == 1.0
    rho = max_mixed((2, 2))
    assert rho.dim == 4
    np.testing.assert_allclose(rho.matrix, np.eye(4) / 4)


def test_tensor_and_partial_trace_inverse():
    rng = np.random.default_rng(11)
    a = qcore.random_density((2,), rng)
    b = qcore.random_density((3,), rng)
    ab = tensor(a, b)
    assert ab.layout.dims == (2, 3)
    np.testing.assert_allclose(partial_trace(ab, [0]).matrix, a.matrix, atol=1e-12)
    np.testing.assert_allclose(partial_trace(ab, [1]).matrix, b.matrix, atol=1e-12)


def test_partial_trace_keeps_original_order():
    rng = np.random.default_rng(5)
    parts = [qcore.random_density((d,), rng) for d in (2, 3, 2)]
    rho = tensor_all(*parts)
    # keep indices are a set; kept subsystems stay in original order
    kept = partial_trace(rho, [2, 0])
    np.testing.assert_allclose(
        kept.matrix, tensor(parts[0], parts[2]).matrix, atol=1e-12
    )
    assert kept.layout.dims == (2, 2)
    with pytest.raises(IndexError):
        partial_trace(rho, [3])


def test_permute_systems_roundtrip():
    rng = np.random.default_rng(7)
    rho = qcore.random_density((2, 3, 4), rng)
    perm = [2, 0, 1]
    moved = permute_systems(rho, perm)
    assert moved.layout.dims == (4, 2, 3)
    # subsystem marginals travel with the permutation
    np.testing.assert_allclose(
        partial_trace(moved, [1]).matrix, partial_trace(rho, [0]).matrix, atol=1e-12
    )
    inverse = [perm.index(i) for i in range(3)]
    np.testing.assert_allclose(
        permute_systems(moved, inverse).matrix, rho.matrix, atol=1e-12
    )
    with pytest.raises(ValueError):
        permute_systems(rho, [0, 0, 1])


def test_entropies():
    assert von_neumann_entropy(max_mixed(4)) == pytest.approx(2.0, abs=1e-12)
    assert von_neumann_entropy(basis_state(5, 2).to_density()) == pytest.approx(
        0.0, abs=1e-12
    )
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)
    assert shannon_entropy([1.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        shannon_entropy([0.7, 0.7])


def test_hermitian_eigh_validates():
    w, v = hermitian_eigh(np.diag([1.0, 2.0]).astype(complex))
    np.testing.assert_allclose(w, [1.0, 2.0])
    with pytest.raises(ValueError):
        hermitian_eigh(np.array([[0, 1], [0, 0]], dtype=complex))


def test_purify_traces_back():
    rng = np.random.default_rng(3)
    rho = qcore.random_density((2, 3), rng)
    psi = purify(rho)
    assert psi.layout.dims == (2, 3, 6)
    back = partial_trace(psi.to_density(), [0, 1])
    np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-10)


def test_purify_pure_state_adds_trivial_reference():
    rho = basis_state(3, 1).to_density()
    psi = purify(rho)
    ref = partial_trace(psi.to_density(), [1])
    assert von_neumann_entropy(ref) == pytest.approx(0.0, abs=1e-10)


def test_max_entangled_marginal():
    phi = max_entangled(3)
    marg = partial_trace(phi.to_density(), [0])
    np.testing.assert_allclose(marg.matrix, np.eye(3) / 3, atol=1e-12)


def test_haar_unitaries_are_unitary_and_seeded():
    rng = np.random.default_rng(42)
    u = qcore.haar_unitaries(3, 5, rng)
    assert u.shape == (5, 3, 3)
    for mat in u:
        np.testing.assert_allclose(mat @ mat.conj().T, np.eye(3), atol=1e-12)
    again = qcore.haar_unitaries(3, 5, np.random.default_rng(42))
    np.testing.assert_array_equal(u, again)


def test_random_density_rank_control():
    rng = np.random.default_rng(9)
    rho = qcore.random_density((4,), rng, rank=2)
    w = np.linalg.eigvalsh(rho.matrix)
    assert np.sum(w > 1e-10) == 2


def test_dim_cap_env_override(monkeypatch):
    monkeypatch.setenv("QCAP_DIM_CAP", "16")
    with pytest.raises(DimensionCapError):
        check_dim(17)
    check_dim(16)
    monkeypatch.delenv("QCAP_DIM_CAP")
    check_dim(8192)
    with pytest.raises(DimensionCapError):
        check_dim(8193)


def test_tensor_respects_cap(monkeypatch):
    monkeypatch.setenv("QCAP_DIM_CAP", "8")
    a = max_mixed(4)
    with pytest.raises(DimensionCapError):
        tensor(a, a)
