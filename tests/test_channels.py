import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcap import as_fraction, channels, infoquant, qcore
from qcap.channels import (
    ChannelSpecError,
    CqEnsemble,
    QuantumChannel,
    apply,
    complementary,
    erasure_channel,
    identity_channel,
    json_to_spec,
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


def _inputs(layout, rng):
    """Pure, rank-deficient and full-rank states, and a Hermitian unit-trace
    matrix with one eigenvalue at -5e-10, which DensityOperator admits."""
    d = layout.total
    states = [
        qcore.random_pure(layout, rng).to_density(),
        qcore.random_density(layout, rng, rank=max(1, d // 2)),
        qcore.random_density(layout, rng),
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
    # plain ValueError; json_to_spec is what turns it into ChannelSpecError
    for bad in ("eleven", "1/0", None, [1, 4]):
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
    out = apply(ch, qcore.basis_state(2, 0).to_density())
    expect = np.diag([2 / 3, 0, 1 / 3]).astype(complex)
    np.testing.assert_allclose(out.matrix, expect, atol=1e-12)


def test_identity_channel_is_identity():
    rng = np.random.default_rng(0)
    rho = qcore.random_density((3,), rng)
    out = apply(identity_channel(3), rho)
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)


def test_complementary_is_cptp_and_dual():
    ch = erasure_channel(Fraction(1, 4), 2)
    comp = complementary(ch)
    _assert_cptp(comp)
    assert comp.out_layout.dims == ch.env_layout.dims
    # complementing twice restores the original action
    back = complementary(comp)
    rho = qcore.max_mixed(2)
    np.testing.assert_allclose(apply(back, rho).matrix, apply(ch, rho).matrix, atol=1e-12)


def test_complement_matches_dilation_marginals():
    # both outputs must be the two marginals of one isometric dilation
    rng = np.random.default_rng(1)
    ch = erasure_channel(Fraction(2, 5), 2)
    rho = qcore.random_density((2,), rng)
    v = np.concatenate([k for k in ch.kraus], axis=0)  # stacked isometry E x B
    big = v @ rho.matrix @ v.conj().T
    lay = qcore.SystemLayout((ch.n_kraus, ch.out_dim))
    joint = qcore.DensityOperator(lay, big, check_psd=False)
    np.testing.assert_allclose(
        qcore.partial_trace(joint, [1]).matrix, apply(ch, rho).matrix, atol=1e-10
    )
    np.testing.assert_allclose(
        qcore.partial_trace(joint, [0]).matrix,
        apply(complementary(ch), rho).matrix,
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
    rho = qcore.PureState(qcore.SystemLayout((2, 2)), plus).to_density()
    out = apply(ch, rho)
    # dephasing kills the off-diagonals linking distinct first-register values
    np.testing.assert_allclose(
        qcore.partial_trace(out, [1]).matrix, np.eye(2) / 2, atol=1e-12
    )


def test_switch_channel_structure():
    a = erasure_channel(Fraction(1, 10), 2)
    b = erasure_channel(Fraction(2, 5), 2)
    sw = switch_channel([a, b])
    assert sw.in_layout.dims == (2, 2)
    assert sw.out_layout.dims == (2, 3)
    assert sw.n_kraus == a.n_kraus + b.n_kraus
    _assert_cptp(sw)
    comps = sw.spec.components
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
    data = qcore.random_density((2,), rng)
    for c, comp in enumerate((a, b)):
        pinned = qcore.tensor(qcore.basis_state(2, c).to_density(), data)
        out = apply(sw, pinned)
        # the component output sits in block c of the enlarged output space
        block = out.matrix[
            c * comp.out_dim : (c + 1) * comp.out_dim,
            c * comp.out_dim : (c + 1) * comp.out_dim,
        ]
        np.testing.assert_allclose(block, apply(comp, data).matrix, atol=1e-10)
        off = out.matrix.copy()
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
    ra = qcore.random_density((2,), rng)
    rb = qcore.random_density((3,), rng)
    np.testing.assert_allclose(
        apply(ab, qcore.tensor(ra, rb)).matrix,
        qcore.tensor(apply(a, ra), apply(b, rb)).matrix,
        atol=1e-10,
    )
    sq = tensor_power(a, 2)
    assert sq.in_dim == 4 and sq.n_kraus == a.n_kraus**2


def test_padded_erasure_fully_erases_pad():
    ch = padded_erasure(1, Fraction(1, 4), 2)
    assert ch.in_layout.dims == (2, 2)
    assert ch.out_layout.dims == (3, 3)
    _assert_cptp(ch)
    rng = np.random.default_rng(6)
    rho = qcore.random_density((2, 2), rng)
    pad_out = qcore.partial_trace(apply(ch, rho), [1])
    # everything lands on the erasure flag regardless of input
    np.testing.assert_allclose(pad_out.matrix, np.diag([0, 0, 1.0]), atol=1e-10)


def test_main_channel_wiring():
    ch = main_channel(1, Fraction(11, 24), 2)
    assert ch.in_layout.dims == (2, 2, 2)
    assert ch.out_layout.dims == (2, 32)
    _assert_cptp(ch)
    comps = ch.spec.components
    assert comps[0].kind == "rocket" or comps[0].kind == "tensor"


def test_ensemble_validation():
    rho = qcore.max_mixed(2)
    CqEnsemble(((0.5, rho), (0.5, rho)))
    with pytest.raises(ValueError):
        CqEnsemble(((0.7, rho), (0.7, rho)))
    with pytest.raises(ValueError):
        CqEnsemble(((1.0, rho), (0.0, qcore.max_mixed(3))))


def _from_json(text) -> QuantumChannel:
    return spec_to_channel(json_to_spec(json.loads(text)))


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
    ch = spec_to_channel(json_to_spec(obj))
    text = serialize_channel_spec(ch)
    again = _from_json(text)
    assert serialize_channel_spec(again) == text
    np.testing.assert_array_equal(again.kraus, ch.kraus)


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
            apply(ch, rho).matrix, _loop_apply(ch, rho.matrix), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            apply(comp, rho).matrix, _loop_complement(ch, rho.matrix), rtol=0, atol=1e-12
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
    for data in (qcore.random_density((2,), rng), qcore.random_pure((2,), rng).to_density()):
        pinned = qcore.tensor(qcore.basis_state(2, c).to_density(), data)
        out = apply(sw, pinned).matrix
        rows = slice(c * comp.out_dim, (c + 1) * comp.out_dim)
        np.testing.assert_allclose(out[rows, rows], apply(comp, data).matrix, rtol=0, atol=1e-12)
        rest = out.copy()
        rest[rows, rows] = 0
        assert np.max(np.abs(rest)) < 1e-12
        assert infoquant.coherent_information(sw, pinned).value == pytest.approx(
            infoquant.coherent_information(comp, data).value, abs=1e-12
        )
