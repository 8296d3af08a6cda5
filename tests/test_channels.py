import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_oracle import random_density
from qcap import as_fraction, channels, infoquant, qcore
from qcap.channels import (
    ChannelSpecError,
    QuantumChannel,
    apply,
    complementary,
    erasure_channel,
    identity_channel,
    main_channel,
    padded_erasure,
    rocket_channel,
    serialize_channel_spec,
    spec_to_channel,
    switch_channel,
    tensor_channels,
    tensor_power,
    unitary_pair_ensemble,
)


def _assert_cptp(ch):
    gram = np.einsum("kab,kac->bc", ch.kraus.conj(), ch.kraus)
    np.testing.assert_allclose(gram, np.eye(ch.in_dim), atol=1e-9)


def _random_channel(rng, nk, dout, din):
    """Kraus family cut from a Haar-like isometry C^din -> C^nk x C^dout."""
    g = rng.standard_normal((nk * dout, din)) + 1j * rng.standard_normal((nk * dout, din))
    iso, _ = np.linalg.qr(g)
    block = (range(dout), range(nk), iso.reshape(nk, dout, din))
    return QuantumChannel((din,), (dout,), (nk,), (block,))


def _loop_apply(ch, m):
    return sum(k @ m @ k.conj().T for k in ch.kraus)


def _loop_complement(ch, m):
    # Tr(K_i m K_j^dag) as the Frobenius product <K_j, K_i m>, for all j at once
    images = np.array([(ki @ m).ravel() for ki in ch.kraus])
    return images @ ch.kraus.reshape(ch.n_kraus, -1).conj().T


def _output(ch, rho):
    """apply(ch, rho) as the dense (out_dim, out_dim) matrix: each block's
    (1, s, s) stack put on the output rows of ch's block, zero elsewhere."""
    m = np.zeros((ch.out_dim, ch.out_dim), dtype=np.complex128)
    for (rows, _, _), b in zip(ch.blocks, apply(ch, rho)):
        m[np.ix_(rows, rows)] = b[0]
    return m


def _dense(ch, rho):
    """apply(ch, rho) as a DensityOperator, for the qcore helpers."""
    return qcore.DensityOperator(ch.out_layout, _output(ch, rho))


def _inputs(layout, rng):
    """Pure, rank-deficient and full-rank states, and a Hermitian unit-trace
    matrix with one eigenvalue at -5e-10, which DensityOperator admits."""
    d = layout.total
    states = [
        qcore.random_pure(layout, rng),
        random_density(layout, rng, rank=max(1, d // 2)),
        random_density(layout, rng),
    ]
    u = qcore.haar_unitaries(d, 1, rng)[0]
    lam = rng.random(d)
    lam[0] = 0.0
    lam *= (1.0 + 5e-10) / lam.sum()
    lam[0] = -5e-10
    m = (u * lam) @ u.conj().T
    m = (m + m.conj().T) / 2
    states.append(qcore.DensityOperator(layout, m))
    return states


def test_as_fraction_forms():
    assert as_fraction("11/24") == Fraction(11, 24)
    assert as_fraction(" 11/24 ") == Fraction(11, 24)
    assert as_fraction(3) == Fraction(3) and type(as_fraction(3)) is Fraction
    assert as_fraction(0.25) == Fraction(1, 4)
    assert as_fraction(0.1) == Fraction(1, 10)  # the decimal it prints as
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    # plain ValueError; spec_to_channel is what turns it into ChannelSpecError
    for bad in ("eleven", "1/0", None, [1, 4], True, False):
        with pytest.raises(ValueError) as exc:
            as_fraction(bad)
        assert exc.type is ValueError


def test_erasure_channel_structure():
    ch = erasure_channel(Fraction(1, 4), 3)
    assert ch.in_dim == 3 and ch.out_dim == 4
    assert ch.n_kraus == 4  # one transmit block + three erase flags
    _assert_cptp(ch)
    # p = 0 and p = 1 drop the vanishing Kraus operators entirely
    assert erasure_channel(0, 3).n_kraus == 1
    assert erasure_channel(1, 3).n_kraus == 3
    with pytest.raises(ChannelSpecError):
        erasure_channel(Fraction(3, 2), 3)


def test_erasure_action():
    p = Fraction(1, 3)
    ch = erasure_channel(p, 2)
    out = _output(ch, qcore.basis_state(2, 0))
    expect = np.diag([2 / 3, 0, 1 / 3]).astype(complex)
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_identity_channel_is_identity():
    rng = np.random.default_rng(0)
    rho = random_density((3,), rng)
    out = _output(identity_channel(3), rho)
    np.testing.assert_allclose(out, rho.matrix, atol=1e-12)


def test_complementary_is_cptp_and_dual():
    ch = erasure_channel(Fraction(1, 4), 2)
    comp = complementary(ch)
    _assert_cptp(comp)
    assert comp.out_layout.dims == ch.env_layout.dims
    # complementing twice restores the original action
    back = complementary(comp)
    rho = qcore.max_mixed(2)
    np.testing.assert_allclose(_output(back, rho), _output(ch, rho), atol=1e-12)


def test_complement_matches_dilation_marginals():
    # both outputs must be the two marginals of one isometric dilation
    rng = np.random.default_rng(1)
    ch = erasure_channel(Fraction(2, 5), 2)
    rho = random_density((2,), rng)
    v = np.concatenate([k for k in ch.kraus], axis=0)  # stacked isometry E x B
    big = v @ rho.matrix @ v.conj().T
    lay = qcore.SystemLayout((ch.n_kraus, ch.out_dim))
    joint = qcore.DensityOperator(lay, big)
    np.testing.assert_allclose(
        qcore.partial_trace(joint, [1]).matrix, _output(ch, rho), atol=1e-10
    )
    np.testing.assert_allclose(
        qcore.partial_trace(joint, [0]).matrix,
        _output(complementary(ch), rho),
        atol=1e-10,
    )


def test_unitary_pair_ensembles():
    idy = unitary_pair_ensemble(3, "identity")
    assert len(idy) == 1
    pauli = unitary_pair_ensemble(2, "pauli")
    assert len(pauli) == 16  # all (X^a Z^b, X^c Z^d) pairs
    for u, v in pauli:
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(v @ v.conj().T, np.eye(2), atol=1e-12)
    with pytest.raises(ChannelSpecError):
        unitary_pair_ensemble(2, "haar")


def test_rocket_channel_shapes():
    ch = rocket_channel(2)
    assert ch.in_layout.dims == (2, 2)
    assert ch.out_layout.dims == (16, 2)
    assert ch.n_kraus == 32
    _assert_cptp(ch)
    small = rocket_channel(2, "identity")
    assert small.out_layout.dims == (1, 2)
    _assert_cptp(small)


def test_rocket_identity_ensemble_action():
    # single (I, I) pair: dephase then trace the second register
    ch = rocket_channel(2, "identity")
    plus = np.array([1, 1, 1, 1], dtype=complex) / 2
    rho = qcore.pure_state((2, 2), plus)
    # dephasing kills the off-diagonals linking distinct first-register values
    np.testing.assert_allclose(
        qcore.partial_trace(_dense(ch, rho), [1]).matrix, np.eye(2) / 2, atol=1e-12
    )


def test_switch_channel_structure():
    a = erasure_channel(Fraction(1, 10), 2)
    b = erasure_channel(Fraction(2, 5), 2)
    sw = switch_channel([a, b])
    assert sw.in_layout.dims == (2, 2)
    assert sw.out_layout.dims == (2, 3)
    assert sw.n_kraus == a.n_kraus + b.n_kraus
    _assert_cptp(sw)
    comps = sw.spec["components"]
    assert len(comps) == 2
    np.testing.assert_allclose(spec_to_channel(comps[0]).kraus, a.kraus, atol=1e-12)
    with pytest.raises(ChannelSpecError):
        switch_channel([a])
    with pytest.raises(ChannelSpecError):
        switch_channel([a, erasure_channel(Fraction(1, 2), 3)])


def test_switch_acts_as_selected_component():
    a = erasure_channel(Fraction(1, 10), 2)
    b = erasure_channel(Fraction(2, 5), 2)
    sw = switch_channel([a, b])
    rng = np.random.default_rng(2)
    data = random_density((2,), rng)
    for c, comp in enumerate((a, b)):
        pinned = qcore.tensor(qcore.basis_state(2, c), data)
        out = _output(sw, pinned)
        # the component output sits in block c of the enlarged output space
        block = out[
            c * comp.out_dim : (c + 1) * comp.out_dim,
            c * comp.out_dim : (c + 1) * comp.out_dim,
        ]
        np.testing.assert_allclose(block, _output(comp, data), atol=1e-10)
        off = out.copy()
        off[c * comp.out_dim : (c + 1) * comp.out_dim,
            c * comp.out_dim : (c + 1) * comp.out_dim] = 0
        assert np.max(np.abs(off)) < 1e-12


def test_tensor_channels_compose():
    a = erasure_channel(Fraction(1, 4), 2)
    b = identity_channel(3)
    ab = tensor_channels(a, b)
    assert ab.in_layout.dims == (2, 3)
    assert ab.out_layout.dims == (3, 3)
    _assert_cptp(ab)
    rng = np.random.default_rng(4)
    ra = random_density((2,), rng)
    rb = random_density((3,), rng)
    np.testing.assert_allclose(
        _output(ab, qcore.tensor(ra, rb)),
        qcore.tensor(_dense(a, ra), _dense(b, rb)).matrix,
        atol=1e-10,
    )
    sq = tensor_power(a, 2)
    assert sq.in_dim == 4 and sq.n_kraus == a.n_kraus**2


def _full_check_product(a, b):
    """tensor_channels' blocks built as a plain tuple, so QuantumChannel
    copies them and checks them in full."""
    blocks = []
    for ra, ea, ka in a.blocks:
        for rb, eb, kb in b.blocks:
            (na, oa, ia), (nb, ob, ib) = ka.shape, kb.shape
            k = np.einsum("iab,jcd->ijacbd", ka, kb).reshape(na * nb, oa * ob, ia * ib)
            rows = np.add.outer(ra * b.out_dim, rb).ravel()
            env = np.add.outer(ea * b.n_kraus, eb).ravel()
            blocks.append((rows, env, k))
    return QuantumChannel(
        a.in_layout.concat(b.in_layout),
        a.out_layout.concat(b.out_layout),
        a.env_layout.concat(b.env_layout),
        tuple(blocks),
    )


def _scaled_identity(d, dev):
    """The identity channel with Kraus operator sqrt(1 + dev) I, so that
    K^dag K - I = dev I."""
    return QuantumChannel((d,), (d,), (1,), ((range(d), [0], np.sqrt(1 + dev) * np.eye(d)[None]),))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_product_of_factors_near_the_cptp_tolerance_is_refused(d):
    # each factor passes at 6e-10, their product sits 1.2e-9 off
    a, b = _scaled_identity(d, 6e-10), _scaled_identity(2, 6e-10)
    with pytest.raises(ChannelSpecError, match="not trace preserving"):
        _full_check_product(a, b)
    with pytest.raises(ChannelSpecError, match="not trace preserving"):
        tensor_channels(a, b)
    assert tensor_channels(a, _scaled_identity(2, 3e-10)).in_dim == 2 * d


_product_factors = st.one_of(
    st.integers(1, 3).map(identity_channel),
    st.tuples(st.fractions(0, 1, max_denominator=12), st.integers(1, 3)).map(
        lambda pd: erasure_channel(*pd)
    ),
    st.sampled_from(["identity", "pauli"]).map(lambda e: rocket_channel(2, e)),
    st.tuples(st.integers(1, 3), st.floats(-9e-10, 9e-10)).map(lambda t: _scaled_identity(*t)),
)


@settings(max_examples=40, database=None, deadline=None)
@given(a=_product_factors, b=_product_factors)
def test_product_blocks_equal_the_fully_checked_ones(a, b):
    try:
        ab = tensor_channels(a, b)
    except ChannelSpecError:
        return  # the product path may refuse more than the full check
    checked = _full_check_product(a, b)
    assert len(ab.blocks) == len(checked.blocks)
    for fast, full in zip(ab.blocks, checked.blocks):
        for x, y in zip(fast, full):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
            assert x.flags.c_contiguous and not x.flags.writeable
    # the full check accepts the product, within the bound the product carries
    assert checked._tp_dev <= ab._tp_dev <= channels.TOL_CPTP


def test_padded_erasure_fully_erases_pad():
    ch = padded_erasure(1, Fraction(1, 4), 2)
    assert ch.in_layout.dims == (2, 2)
    assert ch.out_layout.dims == (3, 3)
    _assert_cptp(ch)
    rng = np.random.default_rng(6)
    rho = random_density((2, 2), rng)
    pad_out = qcore.partial_trace(_dense(ch, rho), [1])
    # everything lands on the erasure flag regardless of input
    np.testing.assert_allclose(pad_out.matrix, np.diag([0, 0, 1.0]), atol=1e-10)


def test_apply_returns_one_block_per_channel_block():
    ch = main_channel(1, Fraction(1, 4), 3)
    rho = random_density(ch.in_layout, np.random.default_rng(8), rank=3)
    out = apply(ch, rho)
    assert [b.shape for b in out] == [(1, len(rows), len(rows)) for rows, _, _ in ch.blocks]
    assert not any(b.flags.writeable for b in out)
    # the blocks are the Kraus sum on their rows, and every entry outside
    # them is zero in it
    loop = _loop_apply(ch, rho.matrix)
    inside = np.zeros(loop.shape, dtype=bool)
    for (rows, _, _), b in zip(ch.blocks, out):
        np.testing.assert_allclose(b[0], loop[np.ix_(rows, rows)], rtol=0, atol=1e-12)
        inside[np.ix_(rows, rows)] = True
    assert not np.any(loop[~inside])


@pytest.mark.parametrize("block", [0, -2])
def test_block_output_checks_hermiticity_and_trace_per_block(block):
    # main_channel(1, 1/4, 2): the first rocket label block, and the
    # erasure's data-sent block
    ch = main_channel(1, Fraction(1, 4), 2)
    rho = random_density(ch.in_layout, np.random.default_rng(9))
    out = apply(ch, rho)
    qcore.check_states(out)  # the output itself passes

    def with_block(b):
        blocks = list(out)
        blocks[block] = b
        qcore.check_states(blocks)

    skew = np.array(out[block])
    skew[0, 0, 1] += 1e-8
    with pytest.raises(ValueError, match="not Hermitian"):
        with_block(skew)
    heavy = np.array(out[block])
    heavy[0, 0, 0] += 1e-8
    with pytest.raises(ValueError, match="trace deviates"):
        with_block(heavy)
    # apply makes the check itself: a Kraus family 4e-10 off trace
    # preserving, which construction admits
    leaky = QuantumChannel(ch.in_layout, ch.out_layout, ch.env_layout,
                           tuple((r, e, k * np.sqrt(1 + 4e-10)) for r, e, k in ch.blocks))
    with pytest.raises(ValueError, match="output trace deviates from 1 by 4.000e-10"):
        apply(leaky, rho)


def _apply_one_state(ch, rho):
    """apply's blocks as the per-state kernel computed them before the
    batched kernel replaced it: the reference for a batch of one."""
    lam, vecs = np.linalg.eigh(rho.matrix)
    mag = np.abs(lam)
    keep = mag > mag.max() * ch.in_dim * np.finfo(np.float64).eps
    a = vecs[:, keep] * np.sqrt(mag[keep])
    sign = np.sign(lam[keep])
    out = []
    for rows, _, k in ch.blocks:
        w = np.matmul(k.swapaxes(0, 1), a)
        ws = w.conj()
        ws *= sign
        out.append(w.reshape(len(rows), -1) @ ws.reshape(len(rows), -1).T)
    return out


def _dense_switch_cases():
    """main_channel(1, 1/4, 3) with its erasure-branch and its pure input,
    the d=3 witness pair group with its input, and a complement."""
    d = 3
    ch = main_channel(1, Fraction(1, 4), d)
    erasure_in = np.zeros((2 * d * d, 2 * d * d), dtype=complex)
    for i in range(d):
        erasure_in[d * d + i * d, d * d + i * d] = 1 / d
    erasure_in = qcore.DensityOperator(ch.in_layout, erasure_in)
    pure_in = qcore.random_pure(ch.in_layout, np.random.default_rng(30))
    pair = tensor_channels(rocket_channel(d), erasure_channel(Fraction(1, 4), d))
    pair_in = qcore.tensor(qcore.max_mixed(d), qcore.max_entangled(d))
    return [(ch, erasure_in), (ch, pure_in), (pair, pair_in), (complementary(ch), pure_in)]


@pytest.mark.parametrize(
    "case", range(4), ids=["switch-erasure", "switch-pure", "pair-d3", "complement"]
)
def test_apply_is_bit_identical_to_the_per_state_kernel(case):
    ch, rho = _dense_switch_cases()[case]
    got = [g[0] for g in apply(ch, rho)]
    want = _apply_one_state(ch, rho)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def _mixed_rank_states(layout, rng):
    """A pure, a full-rank and a rank-2 state, and one of rank 3 whose
    fourth eigenvalue is -1e-12."""
    d = layout.total
    v = qcore.haar_unitaries(d, 1, rng)[0]
    lam = np.array([0.5, 0.3, 0.2 + 1e-12] + [0.0] * (d - 4) + [-1e-12])
    return [
        qcore.random_pure(layout, rng),
        random_density(layout, rng),
        random_density(layout, rng, rank=2),
        qcore.DensityOperator(layout, (v * lam) @ v.conj().T),
    ]


def test_rank_factors_pad_lower_ranks_with_zero_columns_of_sign_zero():
    rng = np.random.default_rng(31)
    states = _mixed_rank_states(qcore.SystemLayout((2, 2)), rng)
    a, sign = channels.rank_factors(np.array([rho.matrix for rho in states]))
    # the full-rank member keeps all four pairs; the others pad in place,
    # each member's kept pairs in ascending order of eigenvalue
    assert sign.tolist() == [[0, 0, 0, 1], [1, 1, 1, 1], [0, 0, 1, 1], [-1, 1, 1, 1]]
    assert not np.any(a.swapaxes(1, 2)[sign == 0.0])
    lam = sign * np.sum(abs(a) ** 2, axis=1)  # each pair's eigenvalue, 0 where padded
    for rho, ai, si, li in zip(states, a, sign, lam):
        assert np.all(np.diff(li[si != 0.0]) > 0)
        np.testing.assert_allclose((ai * si) @ ai.conj().T, rho.matrix, rtol=0, atol=1e-15)
    np.testing.assert_allclose(lam[3], [-1e-12, 0.2 + 1e-12, 0.3, 0.5], rtol=0, atol=1e-15)
    # one state, with or without a batch axis: its kept pairs only, no padding
    one, one_sign = channels.rank_factors(states[2].matrix[None])
    assert one.shape == (1, 4, 2) and one_sign.tolist() == [[1, 1]]
    bare, bare_sign = channels.rank_factors(states[2].matrix)
    assert bare.tobytes() == one.tobytes() and bare_sign.tolist() == [1, 1]


@pytest.mark.parametrize(
    "make",
    [
        lambda: tensor_channels(
            erasure_channel(Fraction(3, 10), 2), erasure_channel(Fraction(7, 10), 2)
        ),
        lambda: complementary(main_channel(1, Fraction(1, 4), 2)),
    ],
    ids=["erasure-pair", "main-complement"],
)
def test_kernel_on_an_ensemble_matches_apply_per_member(make):
    ch = make()
    states = _mixed_rank_states(ch.in_layout, np.random.default_rng(32))
    mats = np.array([[rho.matrix for rho in states]])
    stacks = [b[0] for b in channels._apply_factors([ch], mats)]
    per_member = [[b[0] for b in apply(ch, rho)] for rho in states]
    assert [g.shape for g in stacks] == [(4,) + b.shape for b in per_member[0]]
    for i, blocks in enumerate(per_member):
        for g, b in zip(stacks, blocks):
            np.testing.assert_allclose(g[i], b, rtol=0, atol=1e-15)
    # the -1e-12 eigenvalue keeps its sign, so every trace stays exact
    traces = sum(np.trace(g, axis1=-2, axis2=-1) for g in stacks)
    np.testing.assert_allclose(traces, 1.0, rtol=0, atol=1e-15)
    assert not any(g.flags.writeable for g in stacks)


def test_kernel_checks_every_ensemble_member():
    ch = erasure_channel(Fraction(1, 4), 2)
    members = np.array([[qcore.basis_state(2, x).matrix for x in range(2)]])
    blocks = [b[0] for b in channels._apply_factors([ch], members)]
    qcore.check_states(blocks)
    skew = [np.array(b) for b in blocks]
    skew[0][1, 0, 1] += 1e-8
    with pytest.raises(ValueError, match="output block is not Hermitian"):
        qcore.check_states(skew)
    # member 0 gains what member 1 loses: the traces summed over the batch
    # still read 2, but each member's deviates
    shifted = [np.array(b) for b in blocks]
    shifted[0][0, 0, 0] += 1e-8
    shifted[0][1, 0, 0] -= 1e-8
    with pytest.raises(ValueError, match="output trace deviates from 1 by 1.000e-08"):
        qcore.check_states(shifted)
    # a Kraus family 4e-10 off trace preserving, which construction admits
    leaky = QuantumChannel(ch.in_layout, ch.out_layout, ch.env_layout,
                           tuple((r, e, k * np.sqrt(1 + 4e-10)) for r, e, k in ch.blocks))
    with pytest.raises(ValueError, match="output trace deviates from 1 by 4.000e-10"):
        channels._apply_factors([leaky], members)
    with pytest.raises(ValueError, match="does not match channel input"):
        channels._apply_factors([identity_channel(3)], members)


def _erasure_pair(q, p):
    return tensor_channels(erasure_channel(Fraction(q), 2), erasure_channel(Fraction(p), 2))


def test_family_kernel_matches_each_member_and_rejects_mixed_layouts():
    rng = np.random.default_rng(41)
    family = [_erasure_pair("3/10", "7/10"), _erasure_pair("1/2", "1/100"),
              _erasure_pair("99/100", "1/5")]
    mats = np.array([[rho.matrix for rho in _mixed_rank_states(family[0].in_layout, rng)]
                     for _ in family])
    out = channels._apply_factors(family, mats)
    sizes = [len(rows) for rows, _, _ in family[0].blocks]
    assert [b.shape for b in out] == [(3, 4, s, s) for s in sizes]
    assert not any(b.flags.writeable for b in out)
    for i, ch in enumerate(family):
        for b, one in zip(out, channels._apply_factors([ch], mats[i : i + 1])):
            np.testing.assert_allclose(b[i], one[0], rtol=0, atol=1e-15)
    # q = 0 drops the flag-raised block of the first factor
    with pytest.raises(ValueError, match="share one block layout"):
        channels._apply_factors(family + [_erasure_pair(0, "7/10")], mats[[0, 1, 2, 0]])
    # so does one more Kraus index in a block of the same rows
    kraus = np.array([np.eye(2)] * 2) / np.sqrt(2)
    wide = QuantumChannel((2,), (2,), (2,), ((range(2), range(2), kraus),))
    with pytest.raises(ValueError, match="share one block layout"):
        channels._apply_factors([identity_channel(2), wide], np.array([[np.eye(2) / 2]] * 2))


def test_main_channel_wiring():
    ch = main_channel(1, Fraction(11, 24), 2)
    assert ch.in_layout.dims == (2, 2, 2)
    assert ch.out_layout.dims == (2, 32)
    _assert_cptp(ch)
    comps = ch.spec["components"]
    assert comps[0]["kind"] == "rocket" or comps[0]["kind"] == "tensor"


def test_ensemble_validation():
    lay, rho = qcore.SystemLayout((2,)), qcore.max_mixed(2).matrix
    ens = qcore.CqEnsemble(lay, [0.5, 0.5], [rho, rho])
    assert ens.probs.shape == (2,) and ens.states.shape == (2, 2, 2)
    assert not ens.probs.flags.writeable and not ens.states.flags.writeable
    with pytest.raises(ValueError, match="^ensemble probabilities miss a sum of 1 by 4.000e-01$"):
        qcore.CqEnsemble(lay, [0.7, 0.7], [rho, rho])
    with pytest.raises(ValueError, match="^ensemble probabilities must be nonnegative$"):
        qcore.CqEnsemble(lay, [1.1, -0.1], [rho, rho])
    # a member of another dimension, and a weight without its state
    with pytest.raises(ValueError):
        qcore.CqEnsemble(lay, [1.0, 0.0], [rho, qcore.max_mixed(3).matrix])
    with pytest.raises(ValueError, match="one weight and one 2 x 2 state per member"):
        qcore.CqEnsemble(lay, [0.5, 0.5], [rho])
    with pytest.raises(ValueError, match=r"^input state trace deviates from 1 by 1\.000e\+00$"):
        qcore.CqEnsemble(lay, [0.5, 0.5], [rho, 2 * rho])


def _from_json(text) -> QuantumChannel:
    return spec_to_channel(json.loads(text))


def test_spec_json_roundtrip():
    src = main_channel(1, Fraction(11, 24), 2)
    text = serialize_channel_spec(src)
    again = _from_json(text)
    np.testing.assert_allclose(again.kraus, src.kraus, atol=1e-12)
    # the schema carries the action exactly; register grouping of the
    # composite input is a local refinement and may flatten to (2, 4)
    assert again.in_dim == src.in_dim
    assert again.out_dim == src.out_dim
    sw = switch_channel(
        [erasure_channel(Fraction(1, 10), 2), erasure_channel(Fraction(2, 5), 2)]
    )
    back = _from_json(serialize_channel_spec(sw))
    assert back.in_layout.dims == sw.in_layout.dims


def _isometry_json(seed, d):
    """A two-operator Kraus spec on C^d, cut from a seeded isometry."""
    rng = np.random.default_rng(seed)
    iso, _ = np.linalg.qr(rng.standard_normal((2 * d, d)) + 1j * rng.standard_normal((2 * d, d)))
    mats = iso.reshape(2, d, d)
    return {"kind": "kraus", "matrices": [[[[z.real, z.imag] for z in row] for row in k] for k in mats]}


def _leaf_specs(d):
    return st.one_of(
        st.fractions(0, 1, max_denominator=12).map(lambda p: {"kind": "erasure", "p": str(p), "d": d}),
        st.just({"kind": "full_erasure", "d": d}),
        st.just({"kind": "identity", "d": d}),
        st.integers(0, 2**32 - 1).map(lambda seed: _isometry_json(seed, d)),
    )


# one input dimension per switch; tensors of up to two such trees and rockets
_same_input_specs = st.integers(1, 3).flatmap(
    lambda d: st.one_of(
        _leaf_specs(d),
        st.lists(_leaf_specs(d), min_size=2, max_size=3).map(
            lambda cs: {"kind": "switch", "components": cs}
        ),
    )
)
_valid_specs = st.one_of(
    _same_input_specs,
    st.lists(
        st.one_of(_same_input_specs, st.sampled_from(["identity", "pauli"]).map(
            lambda e: {"kind": "rocket", "d": 2, "ensemble": e}
        )),
        min_size=1,
        max_size=2,
    ).map(lambda fs: {"kind": "tensor", "factors": fs}),
)


@settings(max_examples=60, database=None, deadline=None)
@given(obj=_valid_specs)
def test_serialized_spec_is_a_fixed_point(obj):
    ch = spec_to_channel(obj)
    text = serialize_channel_spec(ch)
    again = _from_json(text)
    assert serialize_channel_spec(again) == text
    np.testing.assert_array_equal(again.kraus, ch.kraus)


_ID2 = {"kind": "identity", "d": 2}


# texts recorded before the spec became the JSON object itself
@pytest.mark.parametrize(
    "make, text",
    [
        (lambda: spec_to_channel({"kind": "erasure", "p": 0.25, "d": 2}),
         '{"kind":"erasure","p":"1/4","d":2}'),
        (lambda: spec_to_channel({"kind": "erasure", "p": "2/8", "d": "3"}),
         '{"kind":"erasure","p":"1/4","d":3}'),
        (lambda: spec_to_channel({"kind": "full_erasure", "d": 2}),
         '{"kind":"full_erasure","d":2}'),
        (lambda: spec_to_channel({"kind": "rocket", "d": 2}),
         '{"kind":"rocket","d":2,"ensemble":"pauli"}'),
        (lambda: spec_to_channel({"kind": "identity", "d": 2.0}), '{"kind":"identity","d":2}'),
        (lambda: spec_to_channel(
            {"kind": "switch", "components": [_ID2, {"kind": "erasure", "p": "1/3", "d": 2}]}),
         '{"kind":"switch","components":[{"kind":"identity","d":2},'
         '{"kind":"erasure","p":"1/3","d":2}]}'),
        (lambda: spec_to_channel({"kind": "kraus", "matrices": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}),
         '{"kind":"kraus","matrices":[[[[1.0,0.0],[0.0,0.0]],[[0.0,0.0],[1.0,0.0]]]]}'),
        (lambda: complementary(erasure_channel(Fraction(1, 4), 1)),
         '{"kind":"kraus","matrices":[[[[0.8660254037844386,0.0]],[[0.0,0.0]]],'
         '[[[0.0,0.0]],[[0.5,0.0]]]]}'),
        (lambda: main_channel(1, Fraction(1, 4), 3),
         '{"kind":"switch","components":[{"kind":"rocket","d":3,"ensemble":"pauli"},'
         '{"kind":"tensor","factors":[{"kind":"erasure","p":"1/4","d":3},'
         '{"kind":"full_erasure","d":3}]}]}'),
    ],
    ids=["erasure-float-p", "erasure-string-fields", "full-erasure", "rocket-default-ensemble",
         "identity-float-d", "switch", "kraus-integer-entries", "complement", "main-channel"],
)
def test_serialized_text_is_pinned(make, text):
    assert serialize_channel_spec(make()) == text


def test_spec_does_not_share_the_callers_object():
    obj = {"kind": "switch", "components": [
        dict(_ID2), {"kind": "kraus", "matrices": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}
    ]}
    ch = spec_to_channel(obj)
    text = serialize_channel_spec(ch)
    obj["components"][0]["d"] = 3
    obj["components"][1]["matrices"][0][0][0][0] = 7
    obj["components"].append(_ID2)
    assert serialize_channel_spec(ch) == text


def test_kraus_spec_roundtrip():
    ch = erasure_channel(Fraction(1, 3), 2)
    raw = json.dumps(
        {
            "kind": "kraus",
            "matrices": [[[ [float(x.real), float(x.imag)] for x in row] for row in k] for k in ch.kraus],
        }
    )
    again = _from_json(raw)
    np.testing.assert_allclose(again.kraus, ch.kraus, atol=1e-12)


def test_parse_rejects_garbage():
    with pytest.raises(ChannelSpecError):
        _from_json(json.dumps({"kind": "wormhole"}))
    with pytest.raises(ChannelSpecError):
        _from_json(json.dumps({"kind": "erasure", "p": "1/4"}))
    with pytest.raises(ChannelSpecError):
        _from_json(json.dumps({"kind": "erasure", "p": "eleven", "d": 2}))
    # non-trace-preserving Kraus set must be rejected at construction
    bad = json.dumps({"kind": "kraus", "matrices": [[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]]})
    with pytest.raises(ChannelSpecError):
        _from_json(bad)


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: _random_channel(rng, 3, 4, 5),
        lambda rng: _random_channel(rng, 7, 2, 6),
        lambda rng: main_channel(1, Fraction(1, 4), 2),
        lambda rng: _random_channel(rng, 2, 70, 5),
        lambda rng: main_channel(1, Fraction(1, 4), 3),
    ],
    ids=["random-3x4x5", "random-7x2x6", "main-1-1/4-2", "random-2x70x5", "main-1-1/4-3"],
)
def test_apply_matches_kraus_loop(make):
    rng = np.random.default_rng(11)
    ch = make(rng)
    comp = complementary(ch)
    for rho in _inputs(ch.in_layout, rng):
        np.testing.assert_allclose(
            _output(ch, rho), _loop_apply(ch, rho.matrix), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            _output(comp, rho), _loop_complement(ch, rho.matrix), rtol=0, atol=1e-12
        )


@settings(max_examples=60, database=None, deadline=None)
@given(
    nk=st.integers(1, 5),
    dout=st.integers(1, 5),
    din=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_complement_of_random_channel_is_cptp(nk, dout, din, seed):
    assume(nk * dout >= din)  # else no isometry C^din -> C^(nk dout)
    ch = _random_channel(np.random.default_rng(seed), nk, dout, din)
    comp = complementary(ch)  # the constructor itself rejects a non-CPTP stack
    _assert_cptp(comp)
    assert comp.out_dim == nk and comp.n_kraus == dout


def test_constructor_copies_an_array_its_caller_can_still_change():
    ch = erasure_channel(Fraction(1, 4), 2)
    layouts = (ch.in_layout, ch.out_layout, ch.env_layout)
    mine = [tuple(np.array(a) for a in block) for block in ch.blocks]  # writable
    copy = QuantumChannel(*layouts, mine)
    before = copy.kraus.copy()
    for block in mine:
        for a in block:
            a[...] = 0
    np.testing.assert_array_equal(copy.kraus, before)
    assert not any(a.flags.writeable for block in copy.blocks for a in block)
    # a read-only view of a writable base is copied too
    base = np.array(ch.blocks[0][2])
    view = base[:]
    view.setflags(write=False)
    copy = QuantumChannel(*layouts, ((ch.blocks[0][:2] + (view,)),) + ch.blocks[1:])
    base[...] = 0
    np.testing.assert_array_equal(copy.kraus, ch.kraus)


def _with_block_scaled(blocks, b):
    """The blocks with the last nonzero entry of block b scaled by 1.001."""
    rows, env, k = blocks[b]
    k = np.array(k)
    k.flat[np.flatnonzero(k)[-1]] *= 1.001
    return blocks[:b] + ((rows, env, k),) + blocks[b + 1 :]


def test_trace_preservation_check_covers_every_block():
    # main_channel(1, 1/4, 2): 16 rocket label blocks, then the erasure's
    # data-sent and flag-raised blocks
    ch = main_channel(1, Fraction(1, 4), 2)
    layouts = (ch.in_layout, ch.out_layout, ch.env_layout)
    assert len(ch.blocks) == 18
    np.testing.assert_array_equal(QuantumChannel(*layouts, ch.blocks).kraus, ch.kraus)
    for b in range(len(ch.blocks)):
        with pytest.raises(ChannelSpecError, match="not trace preserving"):
            QuantumChannel(*layouts, _with_block_scaled(ch.blocks, b))


@pytest.mark.parametrize("side", ["stack", "complement view"])
def test_trace_preservation_check_sees_a_late_block_of_a_sparse_stack(side):
    ch = main_channel(1, Fraction(1, 4), 2)
    if side == "complement view":
        ch = complementary(ch)
    layouts = (ch.in_layout, ch.out_layout, ch.env_layout)
    for b in (0, len(ch.blocks) - 1):
        with pytest.raises(ChannelSpecError, match="not trace preserving"):
            QuantumChannel(*layouts, _with_block_scaled(ch.blocks, b))


def test_blocks_must_not_share_output_rows_or_kraus_indices():
    half = np.sqrt(0.5) * np.eye(2)[None]
    lay = qcore.SystemLayout((2,))
    with pytest.raises(ChannelSpecError, match="distinct output rows"):
        QuantumChannel(lay, lay, (2,), (([0, 1], [0], half), ([0, 1], [1], half)))
    with pytest.raises(ChannelSpecError, match="distinct kraus indices"):
        QuantumChannel(lay, (4,), (1,), (([0, 1], [0], half), ([2, 3], [0], half)))
    with pytest.raises(ChannelSpecError, match="does not hold"):
        QuantumChannel(lay, lay, (1,), (([0], [0], np.eye(2)[None]),))


def test_rocket_rejects_a_large_pauli_output_before_building_the_pairs(monkeypatch):
    def unbuilt(d, kind):
        raise AssertionError("the pair list was built")

    monkeypatch.setattr(channels, "unitary_pair_ensemble", unbuilt)
    with pytest.raises(qcore.DimensionCapError, match="rocket output dimension 24300000"):
        rocket_channel(30)


@settings(max_examples=40, database=None, deadline=None)
@given(
    pa=st.fractions(0, 1, max_denominator=24),
    pb=st.fractions(0, 1, max_denominator=24),
    c=st.integers(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_flag_pinned_switch_equals_its_component(pa, pb, c, seed):
    comps = [erasure_channel(pa, 2), erasure_channel(pb, 2)]
    sw = switch_channel(comps)
    comp = comps[c]
    rng = np.random.default_rng(seed)
    for data in (random_density((2,), rng), qcore.random_pure((2,), rng)):
        pinned = qcore.tensor(qcore.basis_state(2, c), data)
        out = _output(sw, pinned)
        rows = slice(c * comp.out_dim, (c + 1) * comp.out_dim)
        np.testing.assert_allclose(out[rows, rows], _output(comp, data), rtol=0, atol=1e-12)
        rest = out.copy()
        rest[rows, rows] = 0
        assert np.max(np.abs(rest)) < 1e-12
        assert infoquant.coherent_information(sw, pinned).value == pytest.approx(
            infoquant.coherent_information(comp, data).value, abs=1e-12
        )
