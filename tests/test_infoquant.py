import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qcap import infoquant as iq
from qcap import qcore, verify
from qcap.channels import (
    CqEnsemble,
    erasure_channel,
    main_channel,
    switch_channel,
    tensor_channels,
)
from qcap.qcore import LOG2E, DensityOperator, SystemLayout, basis_state, max_mixed

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


def test_coherent_information_pure_input_d3_switch():
    # a pure input leaves Bob and Eve with equal entropies
    ch = main_channel(1, Fraction(1, 4), 3)
    rho = qcore.random_pure(ch.in_layout, np.random.default_rng(3)).to_density()
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


def _reference_objective(obj, theta):
    """The ensemble objective of one parameter vector, decoded alone, with
    one eigvalsh and one 1-D spectrum_entropy per matrix: the form each row
    of the batched objective must reproduce bit for bit."""
    m, d = obj.m, obj.din
    z = theta[: 2 * m * d].reshape(m, 2, d)
    vecs = z[:, 0, :] + 1j * z[:, 1, :]
    norms = np.linalg.norm(vecs, axis=1)
    w = theta[2 * m * d :] ** 2
    tot = float(np.sum(w))
    if np.min(norms) < 1e-8 or tot < 1e-12:
        return -1e3
    vecs, probs = vecs / norms[:, None], w / tot
    images = np.einsum("kab,xb->xka", obj.kraus, vecs)

    def holevo(outs, avg):
        return qcore.spectrum_entropy(np.linalg.eigvalsh(avg)) - float(
            np.sum(probs * [qcore.spectrum_entropy(np.linalg.eigvalsh(o)) for o in outs])
        )

    bob = np.einsum("xka,xkb->xab", images, images.conj())
    ixb = holevo(bob, np.einsum("x,xab->ab", probs, bob))
    if not obj.want_private:
        return ixb
    eve = np.einsum("xka,xla->xkl", images, images.conj())
    return ixb - holevo(eve, np.einsum("x,xkl->kl", probs, eve))


LEMMA1_SWITCH = switch_channel(
    [erasure_channel(Fraction(1, 10), 2), erasure_channel(Fraction(2, 5), 2)]
)


@pytest.mark.parametrize("want_private", [True, False])
@pytest.mark.parametrize(
    "ch",
    [LEMMA1_SWITCH, erasure_channel(Fraction(1, 4), 2)],
    ids=["lemma1-switch", "erasure-1/4"],
)
def test_ensemble_objective_is_bit_identical_to_per_member_loop(ch, want_private):
    obj = iq._EnsembleObjective(ch, want_private)
    rng = np.random.default_rng(2024)
    thetas = iq._structured_starts(ch, obj) + [
        rng.standard_normal(obj.n_params()) * rng.choice([1e-3, 1.0, 30.0])
        for _ in range(400)
    ]
    # the decode-failure sentinels, all-zero vectors and all-zero weights,
    # sit between ordinary rows of the same batch
    zero_weights = thetas[0].copy()
    zero_weights[2 * obj.m * obj.din :] = 0.0
    sentinels = {3: np.zeros(obj.n_params()), 7: zero_weights}
    for i, theta in sentinels.items():
        thetas.insert(i, theta)
    got = obj.value(np.stack(thetas))
    assert got.shape == (len(thetas),) and got.dtype == np.float64
    assert [got[i] for i in sentinels] == [-1e3, -1e3]
    mismatches = [i for i, t in enumerate(thetas) if got[i] != _reference_objective(obj, t)]
    assert mismatches == []


def _assert_matches_scipy(res, fun, x0s, iterations):
    """Each start of the lockstep search `res` against scipy's adaptive
    Nelder-Mead on the scalar `fun` from the same start: x and fun bit for
    bit, and the evaluations summed over the starts."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    ref = [
        minimize(fun, x0, method="Nelder-Mead",
                 options={"maxiter": iterations, "xatol": 1e-7, "fatol": 1e-10, "adaptive": True})
        for x0 in x0s
    ]
    assert res.x.shape == x0s.shape and res.fun.shape == (len(x0s),)
    assert [r for r, s in enumerate(ref) if not np.array_equal(s.x, res.x[r])] == []
    assert [r for r, s in enumerate(ref) if float(s.fun) != res.fun[r]] == []
    assert type(res.nfev) is int and res.nfev == sum(s.nfev for s in ref)
    return ref


LOCKSTEP_CASES = {
    f"lemma1-seed{s}": (LEMMA1_SWITCH, True, iq.OptimizerConfig(10, 500, verify._child_seed(s, 1)))
    for s in range(4)
} | {
    "erasure-1/2": (erasure_channel(Fraction(1, 2), 2), True, iq.OptimizerConfig(6, 400, 0)),
    "holevo-bob": (LEMMA1_SWITCH, False, iq.OptimizerConfig(4, 300, 7)),
    "one-iteration": (LEMMA1_SWITCH, True, iq.OptimizerConfig(5, 1, 3)),
    "zero-start": (erasure_channel(Fraction(1, 4), 2), True, iq.OptimizerConfig(3, 200, 1)),
}


@pytest.mark.parametrize("case", list(LOCKSTEP_CASES))
def test_lockstep_nelder_mead_is_bit_identical_to_scipy(case):
    ch, want_private, cfg = LOCKSTEP_CASES[case]
    obj = iq._EnsembleObjective(ch, want_private)
    x0s = iq._starting_points(obj, iq._structured_starts(ch, obj), cfg)
    if case == "zero-start":
        # an all-zero start puts decode-failure rows into the first batches
        x0s = np.concatenate([x0s, np.zeros((1, obj.n_params()))])
    res = iq.minimize(lambda t: -obj.value(t), x0s, cfg.iterations)
    ref = _assert_matches_scipy(res, lambda t: -_reference_objective(obj, t), x0s, cfg.iterations)
    if case == "erasure-1/2":
        # starts leave the batch early, and some shrink (N evaluations in
        # one iteration, beyond the one or two every iteration makes)
        n = obj.n_params()
        assert min(s.nit for s in ref) < cfg.iterations
        assert any(s.nfev > n + 1 + 2 * s.nit for s in ref)


def test_lockstep_nelder_mead_breaks_ties_as_scipy_does():
    # a staircase: reflected, contracted and vertex values tie often, so
    # the strictness of each comparison decides the path
    def stairs(x):
        return np.floor(np.sum(np.abs(x), axis=-1))

    x0s = np.random.default_rng(3).standard_normal((30, 3)) * 5
    _assert_matches_scipy(iq.minimize(stairs, x0s, 200), stairs, x0s, 200)


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


def test_gamma_d_is_bit_identical_in_any_call_order():
    # gamma_d keeps the sum of its last call; the value must not depend on it
    ds = range(1, 5001)
    expect = {d: math.log(d) - math.fsum(1.0 / t for t in range(2, d + 1)) for d in ds}
    shuffled = list(ds)
    random.Random(5).shuffle(shuffled)
    for order in (list(ds), list(reversed(ds)), shuffled):
        assert [d for d in order if iq.gamma_d(d) != expect[d]] == []


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


# (mean, se) as float.hex, recorded before the Monte Carlo entropies moved
# into qcore.spectrum_entropy
HAAR_BITS = {
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


@pytest.mark.parametrize("state,samples", list(HAAR_BITS), ids=lambda v: str(v))
def test_haar_measured_entropy_bits_are_pinned(state, samples):
    rho = {
        "pure": basis_state(2, 0).to_density(),
        "mixed3": DensityOperator(SystemLayout((3,)), np.diag([0.5, 0.3, 0.2]).astype(complex)),
    }[state]
    got = [iq.haar_measured_entropy(rho, samples, seed) for seed in range(4)]
    assert [(m.hex(), se.hex()) for m, se in got] == HAAR_BITS[state, samples]


def test_measured_entropy_subentropy_constant():
    # <H(measured)> - Q = (H_d - 1) log2 e; exact at the maximally mixed
    # state where every basis gives entropy log2 d
    for d in (2, 3):
        gap = math.log2(d) - iq.subentropy(max_mixed(d))
        assert gap == pytest.approx((float(iq.harmonic(d)) - 1.0) * LOG2E, abs=1e-6)
