import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dense_oracle import random_density, von_neumann_entropy
from qcap import infoquant as iq
from qcap import qcore, verify
from qcap.channels import (
    erasure_channel,
    identity_channel,
    main_channel,
    padded_erasure,
    rocket_channel,
    switch_channel,
    tensor_channels,
)
from qcap.qcore import LOG2E, CqEnsemble, DensityOperator, SystemLayout, basis_state, max_mixed

H = lambda p: -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _ens(pairs):
    """The CqEnsemble of (weight, DensityOperator) pairs on one layout."""
    return CqEnsemble(pairs[0][1].layout, [p for p, _ in pairs], [rho.matrix for _, rho in pairs])


def _members(ens):
    """The (weight, DensityOperator) pairs of a CqEnsemble, in member order."""
    return [(p, DensityOperator(ens.layout, m))
            for p, m in zip(ens.probs.tolist(), ens.states)]


def _computational_ensemble(d=2):
    return _ens([(1.0 / d, basis_state(d, x)) for x in range(d)])


def test_coherent_information_erasure_closed_form():
    # degradable channel: I/2 input attains Q1 = (1-2p) log2 d
    for p in (Fraction(0), Fraction(1, 4), Fraction(2, 5)):
        res = iq.coherent_information(erasure_channel(p, 2), max_mixed(2))
        assert res.value == pytest.approx(float(1 - 2 * p), abs=1e-9)
        assert res.value == pytest.approx(
            res.components["H(B)"] - res.components["H(E)"], abs=1e-12
        )


def test_coherent_information_pure_input_d3_switch():
    # a pure input leaves Bob and Eve with equal entropies
    ch = main_channel(1, Fraction(1, 4), 3)
    rho = qcore.random_pure(ch.in_layout, np.random.default_rng(3))
    res = iq.coherent_information(ch, rho)
    assert res.components["H(B)"] > 1.0
    assert abs(res.components["H(B)"] - res.components["H(E)"]) < 1e-12


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


@pytest.mark.parametrize(
    "quantity",
    ["coherent_information", "holevo_bob", "holevo_eve", "private_value", "brute_force_p1",
     "brute_force_c1", "holevo_bob_family"],
)
def test_quantities_never_build_a_dense_kraus_stack(quantity, monkeypatch):
    # any read of a dense stack fails
    def dense(c):
        raise AssertionError(f"{quantity} read QuantumChannel.kraus")

    monkeypatch.setattr(iq.qch.QuantumChannel, "kraus", property(dense))
    if quantity.startswith("brute_force"):
        # the searches, over the largest switch under MAX_BRUTE_DIM and the
        # channels of its components
        ch = main_channel(1, Fraction(1, 4), 2)
        value, _ = getattr(iq, quantity)(ch, iq.OptimizerConfig(restarts=2, iterations=20))
        assert value > 0.9
        return
    ch = main_channel(1, Fraction(1, 4), 3)
    seen = [ch]
    complementary = iq.qch.complementary

    def recording(c):
        seen.append(complementary(c))
        return seen[-1]

    monkeypatch.setattr(iq.qch, "complementary", recording)
    rng = np.random.default_rng(12)
    rho = random_density(ch.in_layout, rng, rank=2)
    if quantity == "coherent_information":
        iq.coherent_information(ch, rho)
    elif quantity == "holevo_bob_family":
        pure = qcore.random_pure(ch.in_layout, rng)
        iq.holevo_bob_family([ch, ch], [[0.5, 0.5]] * 2, [[rho.matrix, pure.matrix]] * 2)
    else:
        ens = _ens([(0.5, rho), (0.5, qcore.random_pure(ch.in_layout, rng))])
        getattr(iq, quantity)(ch, ens)
    assert len(seen) == (1 if quantity.startswith("holevo_bob") else 2)


def _family_case():
    """Erasure pairs of five block layouts: q or p in {0, 1} drops a block,
    and (1, 1/4) and (1, 0) are groups of one. Each channel takes a pure, a
    full-rank and a rank-2 state."""
    pairs = [("3/10", "7/10"), (1, "1/4"), ("1/2", "1/100"), (0, "2/5"), ("1/5", 1),
             (1, 0), ("99/100", "1/3"), (0, "1/2"), ("3/4", 1)]
    channels = [tensor_channels(erasure_channel(Fraction(q), 2), erasure_channel(Fraction(p), 2))
                for q, p in pairs]
    rng = np.random.default_rng(23)
    lay = channels[0].in_layout
    probs = rng.dirichlet(np.ones(3), size=len(channels))
    states = [[qcore.random_pure(lay, rng), random_density(lay, rng),
               random_density(lay, rng, rank=2)] for _ in channels]
    return channels, probs, states


def test_holevo_bob_family_matches_holevo_bob_pair_by_pair():
    channels, probs, states = _family_case()
    mats = [[rho.matrix for rho in row] for row in states]
    values = iq.holevo_bob_family(channels, probs, mats)
    assert values.shape == (len(channels),)
    for ch, w, row, value in zip(channels, probs, states, values):
        one = iq.holevo_bob(ch, _ens(list(zip(w, row))))
        assert value == pytest.approx(one.value, abs=1e-12)
    assert iq.holevo_bob_family([], np.zeros((0, 3)), np.zeros((0, 3, 4, 4))).shape == (0,)


def _bad_weight(probs, mats):
    probs[2] = [-0.1, 0.6, 0.5]


def _bad_sum(probs, mats):
    probs[4, 0] += 1e-6


def _bad_hermitian(probs, mats):
    mats[1, 2, 0, 1] += 1e-8


def _bad_trace(probs, mats):
    mats[3, 0] *= 1 + 1e-6


@pytest.mark.parametrize(
    "spoil,message",
    [(_bad_weight, "nonnegative"), (_bad_sum, "miss a sum of 1 by 1.000e-06"),
     (_bad_hermitian, "^input state is not Hermitian"),
     (_bad_trace, "^input state trace deviates from 1 by 1.000e-06")],
    ids=["negative-weight", "weight-sum", "non-hermitian", "trace"],
)
def test_holevo_bob_family_checks_its_inputs(spoil, message):
    channels, probs, states = _family_case()
    mats = np.array([[rho.matrix for rho in row] for row in states])
    iq.holevo_bob_family(channels, probs, mats)
    spoil(probs, mats)
    with pytest.raises(ValueError, match=message):
        iq.holevo_bob_family(channels, probs, mats)


def test_lemma3_makes_one_kernel_call_per_block_layout(monkeypatch):
    layouts = []
    kernel = iq.qch._apply_factors

    def counting(family, mats):
        layouts.append(iq.qch._layout(family[0]))
        return kernel(family, mats)

    monkeypatch.setattr(iq.qch, "_apply_factors", counting)
    assert verify.run_lemma3(0, 200).passed
    assert len(layouts) == len(set(layouts)) <= 9


def test_lemma2_makes_one_eigvalsh_call_per_dimension(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        shapes.append(np.shape(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert verify.run_lemma2_appendix(0, 64).passed
    stacks = [s for s in shapes if len(s) == 3]
    assert sorted(s[1:] for s in stacks) == [(2, 2), (3, 3), (4, 4)]
    assert sum(s[0] for s in stacks) == 200
    # the rest: the Q(I/2) identity; the rank-2 special is checked in its stack
    assert len(shapes) == len(stacks) + 1


def _per_state_gap_states(seed):
    """lemma2-appendix's entropy-gap states as DensityOperators, each drawn
    by its own call, in the order of the suite."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    states = [max_mixed(2), max_mixed(3), max_mixed(4)]
    states.append(qcore.random_pure((3,), rng))
    states.append(DensityOperator(SystemLayout((3,)), np.diag([0.5, 0.5, 0.0]).astype(complex)))
    return states + [random_density((2 + i % 3,), rng) for i in range(195)]


@pytest.mark.parametrize("seed", range(8))
def test_lemma2_entropy_gaps_equal_the_per_state_values(seed):
    states = _per_state_gap_states(seed)
    stacks = verify._gap_states(seed)
    assert list(stacks) == [2, 3, 4]
    for d, mats in stacks.items():
        rhos = [rho for rho in states if rho.dim == d]
        # one standard_normal call continues the stream as the per-state calls
        assert mats.tobytes() == np.array([rho.matrix for rho in rhos]).tobytes()
        want = [von_neumann_entropy(rho) - iq.subentropy(rho) for rho in rhos]
        assert verify._entropy_gaps(mats).tolist() == want


@pytest.mark.parametrize(
    "spoil,message",
    [
        (lambda m: m.__setitem__((1, 0, 0), m[1, 0, 0] + 1e-6), "input state trace deviates"),
        (lambda m: m.__setitem__((1, 0, 1), m[1, 0, 1] + 1e-6), "input state is not Hermitian"),
        (lambda m: m.__setitem__(1, np.diag([1.0 + 1e-6, -1e-6])), "minimum eigenvalue"),
    ],
)
def test_entropy_gaps_check_their_states(spoil, message):
    mats = verify._gap_states(0)[2]
    verify._entropy_gaps(mats)
    spoil(mats)
    with pytest.raises(ValueError, match=message):
        verify._entropy_gaps(mats)


def test_private_value_vanishes_at_half():
    ch = erasure_channel(Fraction(1, 2), 2)
    assert iq.private_value(ch, _computational_ensemble()).value == pytest.approx(
        0.0, abs=1e-9
    )


@pytest.mark.parametrize("d", [2, 3, 5])
def test_pauli_rocket_leaks_log2d_to_bob(d):
    # Generalised Paulis map basis states to basis states, so the dephasing
    # only adds a phase and the announced label reveals the first input:
    # {1/d, |i>|0>} reaches log2 d bits toward Bob, above the exact lane's
    # 2-bit charge per rocket once d >= 5 (README "Numerical notes").
    ch = rocket_channel(d, "pauli")
    ens = _ens([(1.0 / d, basis_state((d, d), i * d)) for i in range(d)])
    bits = iq.holevo_bob(ch, ens).value
    assert bits == pytest.approx(math.log2(d), abs=1e-9)
    assert (bits > 2) == (d >= 5)


@pytest.mark.parametrize("ensemble", ["identity", "pauli"])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_named_rockets_are_noiseless_quantum_channels_on_their_first_input(d, ensemble):
    # With the second input at |0>, V_r|0> is a basis state up to phase, so
    # the dephasing acts on the first input as a fixed Z^j that Bob undoes
    # from the label: the leak is a whole quantum channel, I_c = log2 d.
    rho = qcore.tensor(max_mixed(d), basis_state(d, 0))
    res = iq.coherent_information(rocket_channel(d, ensemble), rho)
    assert res.value == pytest.approx(math.log2(d), abs=1e-9)


def test_brute_force_deterministic():
    ch = erasure_channel(Fraction(1, 4), 2)
    cfg = iq.OptimizerConfig(restarts=3, iterations=150, seed=5)
    v1, e1 = iq.brute_force_p1(ch, cfg)
    v2, e2 = iq.brute_force_p1(ch, cfg)
    assert v1 == v2
    np.testing.assert_array_equal(e1.probs, e2.probs)
    np.testing.assert_array_equal(e1.states, e2.states)


def test_brute_force_c1_erasure():
    v, ens = iq.brute_force_c1(
        erasure_channel(Fraction(1, 4), 2), iq.OptimizerConfig(restarts=4, iterations=300)
    )
    assert v == pytest.approx(0.75, abs=1e-3)
    assert ens.layout.dims == (2,)


def _reference_objective(obj, theta):
    """The ensemble objective of one parameter vector, computed alone and
    block by block: the form each row of the batched objective must
    reproduce bit for bit. The blocks are taken in the objective's order
    (by shape, then channel order), each block's images K A by their own
    product, every spectrum from eigh, and the spectra of an output
    concatenated before one spectrum_entropy, as in the batch."""
    d = obj.din
    t = float(np.sum(theta * theta))
    if not t > 0.0:
        return -1e3
    a = obj.matrices(theta[None])[0] / math.sqrt(t)
    n_x = np.sum((a.conj() * a).real, axis=0)
    inv = [1.0 / (n if n > 0.0 else 1.0) for n in n_x]  # a zero column has no member
    bob, eve, members = [], [], []
    for stack in obj.stacks:
        for k in stack:
            ne, nr, _ = k.shape
            w = (k.reshape(-1, d) @ a).reshape(ne, nr, d)
            wb = w.transpose(1, 0, 2).reshape(nr, ne * d)
            we = w.reshape(ne, nr * d)
            bob.append(np.linalg.eigh(wb @ wb.conj().T)[0])
            eve.append(np.linalg.eigh(we @ we.conj().T)[0])
            members.append([
                np.linalg.eigh((w[:, :, x].T @ w[:, :, x].conj()) * inv[x])[0]
                for x in range(d)
            ])

    def entropy(spectra):
        return float(qcore.spectrum_entropy(np.concatenate(spectra)[None])[0])

    if obj.want_private:
        return entropy(bob) - entropy(eve)
    h_x = [entropy([m[x] for m in members]) for x in range(d)]
    return entropy(bob) - float(np.sum(n_x * h_x))


def _random_thetas(obj):
    rng = np.random.default_rng(2024)
    return [
        rng.standard_normal(obj.n_params()) * rng.choice([1e-3, 1.0, 30.0])
        for _ in range(400)
    ]


LEMMA1_SWITCH = switch_channel(
    [erasure_channel(Fraction(1, 10), 2), erasure_channel(Fraction(2, 5), 2)]
)


# identity_channel(3) has one Kraus operator, so its environment output is
# 1x1 while Bob's is 3x3: the private objective takes their spectra apart
OBJECTIVE_CHANNELS = {
    "lemma1-switch": LEMMA1_SWITCH,
    "erasure-1/4": erasure_channel(Fraction(1, 4), 2),
    "identity-3": identity_channel(3),
}


@pytest.mark.parametrize("want_private", [True, False])
@pytest.mark.parametrize("ch", list(OBJECTIVE_CHANNELS.values()), ids=list(OBJECTIVE_CHANNELS))
def test_ensemble_objective_is_bit_identical_to_per_member_loop(ch, want_private):
    obj = iq._EnsembleObjective(ch, want_private)
    thetas = [iq._starts(obj.din, iq.OptimizerConfig(restarts=1))[0]] + _random_thetas(obj)
    # the decode-failure sentinel, A = 0, sits between ordinary rows, and
    # a column of weight zero leaves a member with no output
    zero_column = thetas[1].reshape(2, obj.din, obj.din).copy()
    zero_column[:, :, 0] = 0.0
    thetas.insert(3, np.zeros(obj.n_params()))
    thetas.insert(7, zero_column.ravel())
    got, grad = obj.value(np.stack(thetas))
    assert got.shape == (len(thetas),) and got.dtype == np.float64
    assert got[3] == -1e3 and not grad[3].any()
    mismatches = [i for i, t in enumerate(thetas) if got[i] != _reference_objective(obj, t)]
    assert mismatches == []
    # every row's gradient is what it is in a batch of one
    np.testing.assert_array_equal(grad, np.concatenate([obj.value(t[None])[1] for t in thetas]))


@pytest.mark.parametrize(
    "ch",
    [LEMMA1_SWITCH, erasure_channel(Fraction(1, 4), 2)],
    ids=["lemma1-switch", "erasure-1/4"],
)
def test_private_objective_equals_the_per_member_holevo_difference(ch):
    # the objective against I(X;B) - I(X;E) with every member's entropy,
    # on the ensemble of the columns of A; the Holevo objective against
    # I(X;B) on the same ensemble
    private = iq._EnsembleObjective(ch, want_private=True)
    holevo = iq._EnsembleObjective(ch, want_private=False)
    thetas = np.stack(_random_thetas(private)[:100])
    ensembles = [iq._ensemble(ch.in_layout, a) for a in private.matrices(thetas)]
    np.testing.assert_allclose(
        private.value(thetas)[0], [iq.private_value(ch, e).value for e in ensembles], rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(
        holevo.value(thetas)[0], [iq.holevo_bob(ch, e).value for e in ensembles], rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("ch", list(OBJECTIVE_CHANNELS.values()), ids=list(OBJECTIVE_CHANNELS))
def test_private_objective_equals_coherent_information_of_the_average_input(ch):
    obj = iq._EnsembleObjective(ch, want_private=True)
    thetas = np.stack(_random_thetas(obj)[:100])
    lane = []
    for a in obj.matrices(thetas):
        rho = a @ a.conj().T
        rho = DensityOperator(ch.in_layout, rho / np.trace(rho).real)
        lane.append(iq.coherent_information(ch, rho).value)
    np.testing.assert_allclose(obj.value(thetas)[0], lane, rtol=0, atol=1e-12)


GRADIENT_CHANNELS = {
    "lemma1-switch": LEMMA1_SWITCH,
    "padded-erasure-1-1/4-2": padded_erasure(1, Fraction(1, 4), 2),
    "rocket-2-pauli": rocket_channel(2, "pauli"),
}


@pytest.mark.parametrize("want_private", [True, False], ids=["private", "holevo"])
@pytest.mark.parametrize("ch", list(GRADIENT_CHANNELS.values()), ids=list(GRADIENT_CHANNELS))
def test_objective_gradient_matches_central_differences(ch, want_private):
    obj = iq._EnsembleObjective(ch, want_private)
    thetas = np.random.default_rng(8).standard_normal((3, obj.n_params()))
    _, grad = obj.value(thetas)
    h = 1e-6
    steps = np.eye(obj.n_params()) * h
    numeric = np.stack([
        (obj.value(thetas + e)[0] - obj.value(thetas - e)[0]) / (2 * h) for e in steps
    ], axis=1)
    np.testing.assert_allclose(grad, numeric, rtol=0, atol=1e-7)
    # the value does not change with the scale of A, so the gradient is
    # orthogonal to A
    np.testing.assert_allclose(np.sum(grad * thetas, axis=1), 0.0, atol=1e-12)


KNOWN_SINGLE_USE = {
    # Q1 = 1: with the second input at |0>, both rockets send the first
    # input noiselessly to Bob (ROADMAP item 1)
    "rocket-2-identity-Q1": (rocket_channel(2, "identity"), True, 1.0),
    "rocket-2-pauli-Q1": (rocket_channel(2, "pauli"), True, 1.0),
    "padded-erasure-1-1/4-2-Q1": (padded_erasure(1, Fraction(1, 4), 2), True, 0.5),
    # needs the switch split: the rocket component reaches 1 at flag 0
    "main-1-1/4-2-Q1": (main_channel(1, Fraction(1, 4), 2), True, 1.0),
    # flag and data both carry information: log2(2^(1-p) + 2^(1-q))
    "lemma1-switch-C1": (LEMMA1_SWITCH, False, math.log2(2**0.9 + 2**0.6)),
}


@pytest.mark.parametrize("case", list(KNOWN_SINGLE_USE))
def test_single_use_searches_reach_known_values(case):
    ch, want_private, known = KNOWN_SINGLE_USE[case]
    search = iq.brute_force_p1 if want_private else iq.brute_force_c1
    value, ens = search(ch, iq.OptimizerConfig(restarts=4, iterations=300, seed=3))
    assert known - 1e-6 <= value <= known + 1e-9
    # the ensemble returned carries the value found
    again = (iq.private_value if want_private else iq.holevo_bob)(ch, ens).value
    assert again == pytest.approx(value, abs=1e-9)


def test_private_search_runs_once_per_switch_component(monkeypatch):
    ch = main_channel(1, Fraction(1, 4), 2)
    parts = iq._components(ch)
    assert [list(cols) for cols, _ in parts] == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert [part.in_dim for _, part in parts] == [4, 4]
    # a channel whose blocks share their columns is one group, itself
    padded = padded_erasure(1, Fraction(1, 4), 2)
    assert [part for _, part in iq._components(padded)] == [padded]
    starts = []
    minimize = iq.minimize

    def recording(fun, x0s, maxiter):
        starts.append(x0s.shape)
        return minimize(fun, x0s, maxiter)

    monkeypatch.setattr(iq, "minimize", recording)
    _, ens = iq.brute_force_p1(ch, iq.OptimizerConfig(restarts=3, iterations=50, seed=0))
    assert starts == [(3, 32), (3, 32)]
    # the rocket component wins, and its ensemble sits at flag 0
    flag0 = [float(qcore.partial_trace(rho, [0]).matrix[0, 0].real) for _, rho in _members(ens)]
    assert flag0 == pytest.approx([1.0] * len(ens.probs), abs=1e-15)


def test_dim_cap_applies_to_the_searched_dimension():
    # a switch of two erasures on 5 inputs has 10 inputs: the private
    # search runs on each 5-dimensional component, the Holevo search on all
    sw = switch_channel([erasure_channel(Fraction(1, 10), 5), erasure_channel(Fraction(2, 5), 5)])
    cfg = iq.OptimizerConfig(restarts=2, iterations=100, seed=0)
    value, _ = iq.brute_force_p1(sw, cfg)
    assert value == pytest.approx(0.8 * math.log2(5), abs=1e-9)
    with pytest.raises(ValueError, match="got 10"):
        iq.brute_force_c1(sw, cfg)


ASCENT_CASES = {
    f"lemma1-seed{s}": (LEMMA1_SWITCH, True, iq.OptimizerConfig(10, 500, verify._child_seed(s, 1)))
    for s in range(4)
} | {
    "erasure-1/2": (erasure_channel(Fraction(1, 2), 2), True, iq.OptimizerConfig(6, 400, 0)),
    "holevo-bob": (LEMMA1_SWITCH, False, iq.OptimizerConfig(4, 300, 7)),
    "one-iteration": (LEMMA1_SWITCH, True, iq.OptimizerConfig(5, 1, 3)),
    "zero-start": (erasure_channel(Fraction(1, 4), 2), True, iq.OptimizerConfig(3, 200, 1)),
}


@pytest.mark.parametrize("case", list(ASCENT_CASES))
def test_batched_ascent_matches_each_start_run_alone(case):
    ch, want_private, cfg = ASCENT_CASES[case]
    obj = iq._EnsembleObjective(ch, want_private)
    x0s = iq._starts(obj.din, cfg)
    if case == "zero-start":
        # A = 0 does not decode: its row keeps the sentinel and stops at once
        x0s = np.concatenate([x0s, np.zeros((1, obj.n_params()))])

    def fun(theta):
        val, grad = obj.value(theta)
        return -val, -grad

    res = iq.minimize(fun, x0s, cfg.iterations)
    alone = [iq.minimize(fun, x0[None], cfg.iterations) for x0 in x0s]
    assert res.x.shape == x0s.shape and res.fun.shape == (len(x0s),)
    assert [r for r, a in enumerate(alone) if not np.array_equal(a.x[0], res.x[r])] == []
    assert [r for r, a in enumerate(alone) if a.fun[0] != res.fun[r]] == []
    assert type(res.nfev) is int and res.nfev == sum(a.nfev for a in alone)
    if case == "zero-start":
        assert res.fun[-1] == 1e3 and alone[-1].nfev == 1
    if case == "one-iteration":
        assert res.nfev <= len(x0s) * (1 + iq._MAX_HALVINGS)


def test_search_ties_keep_the_earlier_group():
    # both components are the same channel, so both searches end on the
    # same value bit for bit, and the flag-0 ensemble is kept
    sw = switch_channel([identity_channel(2), identity_channel(2)])
    value, ens = iq.brute_force_p1(sw, iq.OptimizerConfig(restarts=3, iterations=100, seed=4))
    assert value == pytest.approx(1.0, abs=1e-12)
    mass = sum(p * float(qcore.partial_trace(rho, [0]).matrix[0, 0].real) for p, rho in _members(ens))
    assert mass == pytest.approx(1.0, abs=1e-15)


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
    # Q(I/d) = log2 d - (H_d - 1) log2 e, from the mean measured entropy,
    # = gamma_d log2 e, since gamma_d = ln d - (H_d - 1)
    for d in range(2, 7):
        q = iq.subentropy(max_mixed(d))
        expect = math.log2(d) - (float(iq.harmonic(d)) - 1.0) * LOG2E
        assert q == pytest.approx(expect, abs=1e-6)
        assert q == pytest.approx(iq.gamma_d(d) * LOG2E, abs=1e-13)
    assert iq.subentropy(basis_state(4, 2)) == 0.0


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


def _subentropy_oracle(spectrum) -> float:
    """-sum_k lam_k^d / prod_{j!=k}(lam_k - lam_j) log2 lam_k over the nonzero
    lam_k, in mpmath, each run of equal nonzero eigenvalues split into steps
    of 1e-30 about its value; the split moves Q by about 1e-60. A run of c
    nodes cancels about 30(c - 1) digits, so the precision is 80 digits
    beyond that."""
    mp = pytest.importorskip("mpmath")
    d = len(spectrum)
    with mp.workdps(80 + 30 * d):
        lam = []
        for x in sorted(set(spectrum)):
            c = spectrum.count(x)
            step = mp.mpf("1e-30") if x > 0 else 0
            lam += [mp.mpf(x) + step * (t - mp.mpf(c - 1) / 2) for t in range(c)]
        q = -sum(
            lk**d / mp.fprod(lk - lj for j, lj in enumerate(lam) if j != k) * mp.log(lk, 2)
            for k, lk in enumerate(lam)
            if lk > 0
        )
        return float(q)


_ORACLE_SPECTRA = {
    **{f"I/{d}": [1.0 / d] * d for d in range(2, 7)},
    "(.4,.4,.1,.1)": [0.4, 0.4, 0.1, 0.1],
    "(.3,.3,.3,.1,0)": [0.3, 0.3, 0.3, 0.1, 0.0],
    "pair-5e-10-apart": [0.3 + 2.5e-10, 0.3 - 2.5e-10, 0.25, 0.15],
    # pairs far enough apart to stay separate nodes under a 1e-9 merge
    # gap, where the table divides rounding errors by the gap
    **{f"pair-{g}-apart": [0.3 + g / 2, 0.3 - g / 2, 0.25, 0.15] for g in (1.1e-9, 2e-9)},
}


@pytest.mark.parametrize("spectrum", _ORACLE_SPECTRA.values(), ids=_ORACLE_SPECTRA.keys())
def test_subentropy_matches_high_precision_oracle(spectrum):
    rho = DensityOperator(SystemLayout((len(spectrum),)), np.diag(spectrum).astype(complex))
    assert iq.subentropy(rho) == pytest.approx(_subentropy_oracle(spectrum), abs=1e-12)


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
        rho = random_density((3,), rng)
        q = iq.subentropy(rho)
        assert -1e-9 <= q <= von_neumann_entropy(rho) + 1e-9


def test_harmonic_and_gamma():
    assert iq.harmonic(1) == 1
    assert iq.harmonic(4) == Fraction(25, 12)
    assert iq.gamma_d(1) == 0.0
    assert iq.gamma_d(2) == pytest.approx(math.log(2) - 0.5, abs=1e-15)
    # grows toward 1 - EulerGamma, not EulerGamma
    assert iq.gamma_d(10000) == pytest.approx(1 - np.euler_gamma, abs=1e-4)
    with pytest.raises(ValueError):
        iq.gamma_d(0)


def test_gamma_d_is_bit_identical_in_any_call_order():
    # gamma_d keeps the sum of its last call; the value must not depend on it
    ds = range(1, 5001)
    expect = {d: math.log(d) - math.fsum(1.0 / t for t in range(2, d + 1)) for d in ds}
    shuffled = list(ds)
    random.Random(5).shuffle(shuffled)
    for order in (list(ds), list(reversed(ds)), shuffled):
        assert [d for d in order if iq.gamma_d(d) != expect[d]] == []


def test_gamma_d_memory_does_not_grow_with_d():
    # a list of all d terms would peak near 38 MiB here; the sum spans 16 chunks
    d = 10**6
    expect = math.log(d) - math.fsum(1.0 / t for t in range(2, d + 1))
    iq.gamma_d(1)  # drop the cached partial sum so the call starts from t = 2
    tracemalloc.start()
    try:
        value = iq.gamma_d(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == expect
    assert peak < 8 * 2**20


def test_haar_measured_entropy_pure_qubit():
    mean, se = iq.haar_measured_entropy(basis_state(2, 0), 40000, 3)
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


# (mean, se) as float.hex, recorded before the Monte Carlo entropies moved
# into qcore.spectrum_entropy, while haar_unitaries still took LAPACK's QR
HAAR_BITS_QR = {
    ("pure", 64): [
        ("0x1.68eb0613bc60cp-1", "0x1.3437e715fd8cfp-5"),
        ("0x1.806d653075fe6p-1", "0x1.ee648318ff094p-6"),
        ("0x1.87217f787a65fp-1", "0x1.cf310affd1b2bp-6"),
        ("0x1.6bd4c378e8234p-1", "0x1.3b3b9ce623d87p-5"),
    ],
    ("pure", 200000): [
        ("0x1.717ed8a9d2c2cp-1", "0x1.3cb686db906c6p-11"),
        ("0x1.70e9149f97137p-1", "0x1.3d6eb3458366ep-11"),
        ("0x1.705b55db790c1p-1", "0x1.3d1e0b9c767aep-11"),
        ("0x1.70d5ce587bad4p-1", "0x1.3d449ceb9dd43p-11"),
    ],
    ("mixed3", 64): [
        ("0x1.8fd313ba3cab6p+0", "0x1.237ef409f0c44p-9"),
        ("0x1.8f92a93c63713p+0", "0x1.2643164031239p-9"),
        ("0x1.8f4b9001dd0f5p+0", "0x1.37404ebd8541cp-9"),
        ("0x1.8e30622767135p+0", "0x1.2ce91c1f02396p-9"),
    ],
    ("mixed3", 200000): [
        ("0x1.8f535b34e7d73p+0", "0x1.68cabff23502dp-15"),
        ("0x1.8f4d706d2a5fbp+0", "0x1.691ebc10b9c51p-15"),
        ("0x1.8f4eacb626a8fp+0", "0x1.69073a281d9dep-15"),
        ("0x1.8f5130ff53f2ep+0", "0x1.68920050e5ae4p-15"),
    ],
}

# the same, recorded from haar_unitaries' Gram-Schmidt, which moves last
# bits, while the probabilities still came from the three-operand einsum
HAAR_BITS_EINSUM = {
    ("pure", 64): [
        ("0x1.68eb0613bc60bp-1", "0x1.3437e715fd8d1p-5"),
        ("0x1.806d653075fe7p-1", "0x1.ee648318ff094p-6"),
        ("0x1.87217f787a65ep-1", "0x1.cf310affd1b2cp-6"),
        ("0x1.6bd4c378e8233p-1", "0x1.3b3b9ce623d89p-5"),
    ],
    ("pure", 200000): [
        ("0x1.717ed8a9d2c2cp-1", "0x1.3cb686db906c6p-11"),
        ("0x1.70e9149f97137p-1", "0x1.3d6eb3458366ep-11"),
        ("0x1.705b55db790bep-1", "0x1.3d1e0b9c767aep-11"),
        ("0x1.70d5ce587bad2p-1", "0x1.3d449ceb9dd43p-11"),
    ],
    ("mixed3", 64): [
        ("0x1.8fd313ba3cab6p+0", "0x1.237ef409f0c35p-9"),
        ("0x1.8f92a93c63713p+0", "0x1.2643164031235p-9"),
        ("0x1.8f4b9001dd0f6p+0", "0x1.37404ebd8541bp-9"),
        ("0x1.8e30622767134p+0", "0x1.2ce91c1f02394p-9"),
    ],
    ("mixed3", 200000): [
        ("0x1.8f535b34e7d73p+0", "0x1.68cabff23502dp-15"),
        ("0x1.8f4d706d2a5fbp+0", "0x1.691ebc10b9c51p-15"),
        ("0x1.8f4eacb626a8fp+0", "0x1.69073a281d9dep-15"),
        ("0x1.8f5130ff53f30p+0", "0x1.68920050e5ae4p-15"),
    ],
}


# the same, with the probabilities contracted through rho's rank factor: a
# pure state's are unchanged bit for bit, the mixed state's move last bits
HAAR_BITS_FACTOR = {
    **HAAR_BITS_EINSUM,
    ("mixed3", 64): [
        ("0x1.8fd313ba3cab6p+0", "0x1.237ef409f0c41p-9"),
        ("0x1.8f92a93c63713p+0", "0x1.2643164031245p-9"),
        ("0x1.8f4b9001dd0f5p+0", "0x1.37404ebd85425p-9"),
        ("0x1.8e30622767134p+0", "0x1.2ce91c1f023a1p-9"),
    ],
    ("mixed3", 200000): [
        ("0x1.8f535b34e7d73p+0", "0x1.68cabff235031p-15"),
        ("0x1.8f4d706d2a5fbp+0", "0x1.691ebc10b9c56p-15"),
        ("0x1.8f4eacb626a8fp+0", "0x1.69073a281d9e2p-15"),
        ("0x1.8f5130ff53f2ep+0", "0x1.68920050e5ae8p-15"),
    ],
}


# the same, with the last outcome's probability taken as the trace minus the
# others', from the first d-1 columns of each unitary: last bits move
HAAR_BITS = {
    ("pure", 64): [
        ("0x1.68eb0613bc60bp-1", "0x1.3437e715fd8d1p-5"),
        ("0x1.806d653075fe7p-1", "0x1.ee648318ff092p-6"),
        ("0x1.87217f787a65fp-1", "0x1.cf310affd1b2cp-6"),
        ("0x1.6bd4c378e8234p-1", "0x1.3b3b9ce623d89p-5"),
    ],
    ("pure", 200000): [
        ("0x1.717ed8a9d2c2cp-1", "0x1.3cb686db906c6p-11"),
        ("0x1.70e9149f97137p-1", "0x1.3d6eb3458366fp-11"),
        ("0x1.705b55db790bep-1", "0x1.3d1e0b9c767aep-11"),
        ("0x1.70d5ce587bad2p-1", "0x1.3d449ceb9dd43p-11"),
    ],
    ("mixed3", 64): [
        ("0x1.8fd313ba3cab6p+0", "0x1.237ef409f0c3dp-9"),
        ("0x1.8f92a93c63713p+0", "0x1.2643164031244p-9"),
        ("0x1.8f4b9001dd0f5p+0", "0x1.37404ebd85426p-9"),
        ("0x1.8e30622767134p+0", "0x1.2ce91c1f0239ep-9"),
    ],
    ("mixed3", 200000): [
        ("0x1.8f535b34e7d73p+0", "0x1.68cabff235031p-15"),
        ("0x1.8f4d706d2a5fbp+0", "0x1.691ebc10b9c56p-15"),
        ("0x1.8f4eacb626a8fp+0", "0x1.69073a281d9e2p-15"),
        ("0x1.8f5130ff53f30p+0", "0x1.68920050e5ae9p-15"),
    ],
}


@pytest.mark.parametrize("state,samples", list(HAAR_BITS), ids=lambda v: str(v))
def test_haar_measured_entropy_bits_are_pinned(state, samples):
    rho = {
        "pure": basis_state(2, 0),
        "mixed3": DensityOperator(SystemLayout((3,)), np.diag([0.5, 0.3, 0.2]).astype(complex)),
    }[state]
    got = [iq.haar_measured_entropy(rho, samples, seed) for seed in range(4)]
    assert [(m.hex(), se.hex()) for m, se in got] == HAAR_BITS[state, samples]
    for table in (HAAR_BITS_FACTOR, HAAR_BITS_EINSUM, HAAR_BITS_QR):
        old = [float.fromhex(h) for pair in table[state, samples] for h in pair]
        assert [abs(g - q) <= 1e-12 * abs(q) for g, q in zip(np.ravel(got), old)] == [True] * 8


def _einsum_measured_entropy(rho, samples, seed):
    """haar_measured_entropy with the probabilities of the three-operand
    einsum <u_i|rho|u_i>, from the same draws."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    u = qcore.haar_unitaries(rho.dim, samples, rng)
    ent = qcore.spectrum_entropy(np.einsum("sji,jk,ski->si", u.conj(), rho.matrix, u).real)
    return float(np.mean(ent)), float(np.std(ent, ddof=1) / math.sqrt(samples))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_haar_measured_entropy_matches_the_einsum_contraction(d):
    # the last outcome's probability is the trace minus the others', so
    # even a pure state's values move in their last bits; at d = 1 the one
    # outcome is the trace, of entropy 0 exactly, while the einsum's |u|^2
    # reads a rounding off 1
    rng = np.random.default_rng(40 + d)
    states = {
        "pure": basis_state(d, d - 1),
        "full": random_density((d,), rng),
    }
    if d > 1:
        states["rank-deficient"] = random_density((d,), rng, rank=d - 1)
    for rho in states.values():
        got = iq.haar_measured_entropy(rho, 3000, d)
        want = _einsum_measured_entropy(rho, 3000, d)
        if d == 1:
            assert got == (0.0, 0.0) and want == pytest.approx(got, rel=0, abs=1e-15)
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_measured_entropy_subentropy_constant():
    # <H(measured)> - Q = (H_d - 1) log2 e; exact at the maximally mixed
    # state where every basis gives entropy log2 d
    for d in (2, 3):
        gap = math.log2(d) - iq.subentropy(max_mixed(d))
        assert gap == pytest.approx((float(iq.harmonic(d)) - 1.0) * LOG2E, abs=1e-6)
