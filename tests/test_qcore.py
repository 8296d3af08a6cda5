import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import permute_systems, random_density, tensor_all, von_neumann_entropy
from qcap import qcore
from qcap.qcore import (
    DensityOperator,
    DimensionCapError,
    SystemLayout,
    basis_state,
    check_dim,
    max_entangled,
    max_mixed,
    partial_trace,
    pure_state,
    tensor,
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


def test_pure_state_normalization_enforced():
    lay = SystemLayout((2,))
    v = np.array([0.6, 0.8j])
    rho = pure_state(lay, v)
    # the rank-one DensityOperator |v><v|, bit for bit the outer product
    assert isinstance(rho, DensityOperator) and rho.layout == lay
    assert rho.matrix.tobytes() == np.outer(v, v.conj()).tobytes()
    assert not rho.matrix.flags.writeable
    with pytest.raises(ValueError):
        pure_state(lay, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="^amplitude count 3 does not match layout total 2$"):
        pure_state(lay, np.array([1.0, 0.0, 0.0]))


def test_pure_state_error_reports_the_norm_deviation():
    # the check tests |norm - 1|; a norm of 1.1 deviates by 0.1, not by
    # the 0.21 of the squared norm
    with pytest.raises(ValueError, match=r"^norm deviates from 1 by 1\.000e-01$"):
        pure_state(SystemLayout((2,)), np.array([1.1, 0.0]))
    # the same check on a stack: the worst vector is reported
    with pytest.raises(ValueError, match=r"^norm deviates from 1 by 1\.000e-01$"):
        qcore.check_unit_norm(np.array([[1.0, 0.0], [0.0, 0.9]]))
    qcore.check_unit_norm(np.array([[1.0, 0.0], [0.6, 0.8]]))


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
    np.testing.assert_array_equal(e1.matrix, np.diag([0.0, 1.0, 0.0]))
    rho = max_mixed((2, 2))
    assert rho.dim == 4
    np.testing.assert_allclose(rho.matrix, np.eye(4) / 4)


def test_tensor_and_partial_trace_inverse():
    rng = np.random.default_rng(11)
    a = random_density((2,), rng)
    b = random_density((3,), rng)
    ab = tensor(a, b)
    assert ab.layout.dims == (2, 3)
    np.testing.assert_allclose(partial_trace(ab, [0]).matrix, a.matrix, atol=1e-12)
    np.testing.assert_allclose(partial_trace(ab, [1]).matrix, b.matrix, atol=1e-12)


def test_partial_trace_keeps_original_order():
    rng = np.random.default_rng(5)
    parts = [random_density((d,), rng) for d in (2, 3, 2)]
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
    rho = random_density((2, 3, 4), rng)
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


_dims = st.lists(st.integers(1, 3), min_size=1, max_size=4)


@settings(max_examples=50, database=None, deadline=None)
@given(dims=_dims, seed=st.integers(0, 2**32 - 1), data=st.data())
def test_inverse_permutation_restores_the_matrix_exactly(dims, seed, data):
    perm = data.draw(st.permutations(range(len(dims))))
    rho = random_density(tuple(dims), np.random.default_rng(seed))
    moved = permute_systems(rho, perm)
    back = permute_systems(moved, [perm.index(i) for i in range(len(dims))])
    assert back.layout.dims == rho.layout.dims
    np.testing.assert_array_equal(back.matrix, rho.matrix)


@settings(max_examples=50, database=None, deadline=None)
@given(dims=_dims, seed=st.integers(0, 2**32 - 1))
def test_partial_trace_of_a_product_returns_each_factor(dims, seed):
    rng = np.random.default_rng(seed)
    factors = [random_density((d,), rng) for d in dims]
    rho = tensor_all(*factors)
    for i, factor in enumerate(factors):
        np.testing.assert_allclose(partial_trace(rho, [i]).matrix, factor.matrix, rtol=0, atol=1e-12)


def test_entropies():
    assert von_neumann_entropy(max_mixed(4)) == pytest.approx(2.0, abs=1e-12)
    assert von_neumann_entropy(basis_state(5, 2)) == pytest.approx(
        0.0, abs=1e-12
    )


def _edge_rows(n):
    """Spectra of length n with exact zeros, tiny negatives, a pure row and
    entries above 1 (clipped), next to random probability rows."""
    rng = np.random.default_rng(n)
    rows = [np.eye(1, n, n - 1)[0], np.full(n, 1.0 / n), np.zeros(n)]
    for _ in range(200):
        row = rng.dirichlet(np.ones(n))
        row[rng.random(n) < 0.3] = 0.0
        row[rng.random(n) < 0.2] = -1e-17 * rng.random()
        rows.append(row)
    rows.append(np.linspace(-1e-15, 1.0 + 1e-15, n))
    return np.array(rows)


def _positive_entropy(row) -> float:
    """-sum(lam log2 lam) over the positive entries of a clipped row alone."""
    lam = np.clip(row, 0.0, 1.0)
    nz = lam[lam > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


@pytest.mark.parametrize("n", range(1, 8))
def test_stacked_spectrum_entropy_is_bit_identical_to_rows(n):
    # below 8 entries, a row's sum over every entry (zero logs where an
    # entry is <= 0) is bit for bit its sum over the positive entries
    rows = _edge_rows(n)
    stacked = qcore.spectrum_entropy(rows)
    assert stacked.shape == (len(rows),)
    assert [i for i, row in enumerate(rows) if stacked[i] != _positive_entropy(row)] == []
    # any leading shape: one entropy per row
    cube = rows[:12].reshape(3, 4, n)
    np.testing.assert_array_equal(qcore.spectrum_entropy(cube), stacked[:12].reshape(3, 4))


def test_spectrum_entropy_rows_are_exact():
    rows = [[0.5, 0.5, 0.0, 0.0], [1.0, 0.0, -1e-17, 0.0], [0.25] * 4, [1.5, -0.5, 0.0, 0.0]]
    got = qcore.spectrum_entropy(np.array(rows))
    assert got.dtype == np.float64 and got.shape == (4,)
    assert got.tolist() == [1.0, 0.0, 2.0, 0.0]
    assert qcore.spectrum_entropy(np.full((2, 8), 0.125)).tolist() == [3.0, 3.0]


def test_max_entangled_marginal():
    phi = max_entangled(3)
    marg = partial_trace(phi, [0])
    np.testing.assert_allclose(marg.matrix, np.eye(3) / 3, atol=1e-12)


def test_haar_unitaries_are_unitary_and_seeded():
    rng = np.random.default_rng(42)
    u = qcore.haar_unitaries(3, 5, rng)
    assert u.shape == (5, 3, 3)
    for mat in u:
        np.testing.assert_allclose(mat @ mat.conj().T, np.eye(3), atol=1e-12)
    again = qcore.haar_unitaries(3, 5, np.random.default_rng(42))
    np.testing.assert_array_equal(u, again)


def _haar_by_qr(d, count, rng):
    """The same draws as haar_unitaries through LAPACK's QR, with R's
    diagonal phases moved into Q."""
    g = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    q, r = np.linalg.qr(g)
    diag = np.einsum("sii->si", r)
    return q * (diag / np.abs(diag))[:, None, :]


@pytest.mark.parametrize("d,count", [(2, 200_000), (3, 20_000), (5, 20_000)])
def test_haar_unitaries_match_qr_with_phase_fix(d, count):
    # the Q factor with a positive real diagonal in R is unique, so
    # Gram-Schmidt and Householder QR differ only by rounding, which grows
    # with a draw's condition number in both; reorthogonalisation keeps
    # Gram-Schmidt's Q unitary to a few ulp whatever the draw
    u = qcore.haar_unitaries(d, count, np.random.default_rng(0))
    ref = _haar_by_qr(d, count, np.random.default_rng(0))
    assert np.max(np.abs(u - ref)) <= 1e-12
    assert np.max(np.abs(np.einsum("sji,sjk->sik", u.conj(), u) - np.eye(d))) <= 1e-14


def _haar_from_sum(d, count, rng):
    """haar_unitaries' Gram-Schmidt on the draws summed as a + 1j*b."""
    g = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    for j in range(d):
        col, done = g[:, :, j], g[:, :, :j]
        for _ in range(2 if j else 0):
            col -= np.einsum("sak,sk->sa", done, np.einsum("sak,sa->sk", done.conj(), col))
        col /= np.linalg.norm(col, axis=1)[:, None]
    return g


@pytest.mark.parametrize("d", [2, 3, 5])
def test_haar_unitaries_columns_are_those_of_the_full_draw(d):
    # the in-place draw is the sum a + 1j*b bit for bit, and Gram-Schmidt
    # step j reads only the columns before it
    full = qcore.haar_unitaries(d, 500, np.random.default_rng(d))
    assert full.tobytes() == _haar_from_sum(d, 500, np.random.default_rng(d)).tobytes()
    for k in range(d + 1):
        rng = np.random.default_rng(d)
        part = qcore.haar_unitaries(d, 500, rng, columns=k)
        assert part.shape == (500, d, k)
        assert part.tobytes() == full[:, :, :k].tobytes()
        # every draw is made whatever k is, so the stream goes on alike
        after = np.random.default_rng(d).standard_normal(2 * 500 * d * d + 1)[-1]
        assert rng.standard_normal() == after


def test_random_density_rank_control():
    rng = np.random.default_rng(9)
    rho = random_density((4,), rng, rank=2)
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
