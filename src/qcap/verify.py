"""Seeded property suites tying the simulator to the closed-form bounds.

Each suite returns a list of named checks with deterministic detail strings
(floats at 9 significant digits), so identical seeds give byte-identical
reports. Suites: lemma1 (switch private value), lemma2-appendix (locking
constant, entropy gap, Haar measurement statistics), lemma3 (classical
additivity inequality), lower-bound (witness rate vs closed form).

lemma3 draws every sampled erasure pair and ensemble first, in the order
a per-sample loop would, and then evaluates all of them through
infoquant.holevo_bob_family: the channel kernel takes a family of
channels that share one block layout, so the samples cost one kernel call
per layout (at most nine: an erasure probability of 0 or 1 drops a
block), not one per sample.

lemma2-appendix does the same with its 200 entropy-gap states: the
specials, then the 195 Wishart states drawn from one standard_normal call
(the same stream as one call per state), go through one batched g g^dag,
one trace normalisation and one eigvalsh per dimension, and the entropy
and the subentropy of each state share its spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import as_fraction, bounds, channels as qch, fmt9, infoquant as iq, qcore


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: tuple[Check, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _child_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def _flag_mass(ens: qcore.CqEnsemble, component: int) -> float:
    total = 0.0
    for p, m in zip(ens.probs.tolist(), ens.states):
        rho = qcore.DensityOperator(ens.layout, m, check_psd=False)
        flag = qcore.partial_trace(rho, keep=[0])
        total += p * float(flag.matrix[component, component].real)
    return total


def run_lemma1(seed: int) -> SuiteResult:
    """The switch of two erasure channels attains the better component's
    private value on a flag-pinned ensemble."""
    sw = qch.switch_channel(
        [qch.erasure_channel(Fraction(1, 10), 2), qch.erasure_channel(Fraction(2, 5), 2)]
    )
    target = 0.8  # 1 - 2p of the better component

    lay = sw.in_layout
    # flag 0, data |0> and |1>
    pinned = qcore.CqEnsemble(lay, [0.5, 0.5], [qcore.basis_state(lay, i).matrix for i in (0, 1)])
    v_pinned = iq.private_value(sw, pinned).value
    checks = [
        Check(
            "pinned-ensemble-value",
            abs(v_pinned - target) <= 1e-9,
            f"value={fmt9(v_pinned)} target={fmt9(target)} tol=1e-09",
        )
    ]

    cfg = iq.OptimizerConfig(restarts=10, iterations=500, seed=_child_seed(seed, 1))
    v_opt, ens = iq.brute_force_p1(sw, cfg)
    checks.append(
        Check(
            "optimized-private-value",
            abs(v_opt - target) <= 2e-2,
            f"value={fmt9(v_opt)} target={fmt9(target)} tol=0.02",
        )
    )
    mass = _flag_mass(ens, 0)
    checks.append(
        Check(
            "optimum-is-flag-pinned",
            mass >= 0.95,
            f"weight on component 0 = {fmt9(mass)} (need >= 0.95)",
        )
    )
    return SuiteResult("lemma1", tuple(checks))


def _gap_states(seed: int) -> dict[int, np.ndarray]:
    """lemma2-appendix's entropy-gap states, as one (n, d, d) stack per
    dimension d = 2, 3, 4, each in draw order: the specials (the maximally
    mixed states, a random pure qutrit, a rank-2 qutrit), then 195 Wishart
    states g g^dag / tr(g g^dag), g a d x d complex Gaussian draw (its
    real, then its imaginary parts), for dimensions d = 2 + (i % 3) in
    turn. All of the Wishart draws come from one standard_normal call,
    which continues the generator's stream exactly as one call per state
    would, and each dimension's states from one batched g g^dag and one
    trace normalisation."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    specials = [qcore.max_mixed(2), qcore.max_mixed(3), qcore.max_mixed(4)]
    specials.append(qcore.random_pure((3,), rng))
    specials.append(
        qcore.DensityOperator(
            qcore.SystemLayout((3,)), np.diag([0.5, 0.5, 0.0]).astype(complex)
        )
    )
    dims = np.array([2 + (i % 3) for i in range(200 - len(specials))])
    sizes = 2 * dims**2  # the real, then the imaginary parts of a d x d draw
    z = rng.standard_normal(int(sizes.sum()))
    starts = np.cumsum(sizes) - sizes
    stacks = {}
    for d in (2, 3, 4):
        parts = z[starts[dims == d][:, None] + np.arange(2 * d * d)].reshape(-1, 2, d, d)
        g = parts[:, 0] + 1j * parts[:, 1]
        m = g @ g.conj().swapaxes(-1, -2)
        m /= np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
        fixed = np.reshape([rho.matrix for rho in specials if rho.dim == d], (-1, d, d))
        stacks[d] = np.concatenate([fixed, m])
    return stacks


def _entropy_gaps(mats: np.ndarray) -> np.ndarray:
    """H(rho) - Q(rho), entropy minus subentropy, for each state of a
    (n, d, d) stack, from one eigvalsh over the stack. The states are
    checked as a DensityOperator checks one: Hermitian and of unit trace
    (qcore.check_states), and no eigenvalue below -1e-9
    (qcore.check_eigenvalue_floor)."""
    qcore.check_states([mats], block="input state", state="input state")
    w = np.linalg.eigvalsh(mats)
    qcore.check_eigenvalue_floor(w)
    h = qcore.spectrum_entropy(w)
    return h - np.array([iq.spectrum_subentropy(row) for row in w])


def run_lemma2_appendix(seed: int, samples: int | None) -> SuiteResult:
    mc_samples = samples if samples is not None else 200000
    mc_samples = max(mc_samples, 2)
    checks = []

    lock = bounds.locking_upper(Fraction(1, 2), 2)
    checks.append(
        Check(
            "locking-value",
            abs(lock - 0.360674) <= 1e-6,
            f"value={fmt9(lock)} target=0.360674 tol=1e-06",
        )
    )

    g2 = iq.gamma_d(2)
    checks.append(
        Check(
            "gamma-2",
            abs(g2 - (math.log(2) - 0.5)) <= 1e-9,
            f"value={fmt9(g2)} target={fmt9(math.log(2) - 0.5)} tol=1e-09",
        )
    )
    g1e4 = iq.gamma_d(10000)
    checks.append(
        Check(
            "gamma-10000",
            abs(g1e4 - 0.422834) <= 1e-4,
            f"value={fmt9(g1e4)} target=0.422834 tol=0.0001",
        )
    )

    log2e = math.log2(math.e)
    bounds_by_dim = {d: float(iq.harmonic(d)) * log2e for d in (2, 3, 4)}
    count = violations = 0
    worst = -math.inf
    for d, mats in _gap_states(seed).items():
        gaps, bound = _entropy_gaps(mats), bounds_by_dim[d]
        count += len(gaps)
        worst = max(worst, float(np.max(gaps - bound)))
        violations += int(np.sum(gaps > bound + 1e-9))
    checks.append(
        Check(
            "entropy-minus-subentropy-bound",
            violations == 0,
            f"states={count} violations={violations} worst slack={fmt9(worst)}",
        )
    )

    pure = qcore.basis_state(2, 0)
    mean, se = iq.haar_measured_entropy(pure, mc_samples, _child_seed(seed, 4))
    target = log2e / 2
    ok = se > 0 and abs(mean - target) <= 3 * se
    checks.append(
        Check(
            "haar-entropy-pure-qubit",
            ok,
            f"mean={fmt9(mean)} target={fmt9(target)} se={fmt9(se)} (3 sigma)",
        )
    )

    mean1, _ = iq.haar_measured_entropy(qcore.max_mixed(2), 64, _child_seed(seed, 5))
    ident = iq.subentropy(qcore.max_mixed(2)) + (float(iq.harmonic(2)) - 1.0) * log2e
    checks.append(
        Check(
            "mean-entropy-constant",
            abs(mean1 - 1.0) <= 1e-12 and abs(ident - 1.0) <= 1e-12,
            f"measured I/2 mean={fmt9(mean1)}; Q(I/2)+(H_2-1)log2(e)={fmt9(ident)}",
        )
    )

    notes = (
        "mean measured entropy exceeds subentropy by (H_d - 1) log2(e), not "
        "H_d log2(e); the exact d=2 identity above pins the constant",
        "gamma_d = ln d - sum_{t=2..d} 1/t grows toward 1 - EulerGamma = "
        "0.422784, not toward EulerGamma = 0.577216 (gamma_10000 = "
        f"{fmt9(g1e4)})",
    )
    return SuiteResult("lemma2-appendix", tuple(checks), notes)


def run_lemma3(seed: int, samples: int | None) -> SuiteResult:
    count = samples if samples is not None else 200
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    erasures: dict[Fraction, qch.QuantumChannel] = {}  # p and q take 101 values
    chans, weights, normals, bound = [], [], [], []
    for _ in range(count):
        q = Fraction(int(rng.integers(0, 101)), 100)
        p = Fraction(int(rng.integers(0, 101)), 100)
        for x in (q, p):
            if x not in erasures:
                erasures[x] = qch.erasure_channel(x, 2)
        chans.append(qch.tensor_channels(erasures[q], erasures[p]))
        w = rng.random(3) + 1e-3
        weights.append(w / w.sum())
        # the real, then the imaginary parts of three pure states on (2, 2)
        normals.append(rng.standard_normal((3, 2, 4)))
        bound.append(float(bounds.classical_add_upper(1 - q, 1, p, 1)))
    z = np.reshape(normals, (count, 3, 2, 4))
    v = z[:, :, 0] + 1j * z[:, :, 1]
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    qcore.check_unit_norm(v)
    states = v[..., :, None] * v[..., None, :].conj()
    vals = iq.holevo_bob_family(chans, np.reshape(weights, (count, 3)), states)
    bound = np.array(bound)
    worst = float(np.max(vals - bound, initial=-math.inf))
    violations = int(np.sum(vals > bound + 1e-6))
    return SuiteResult(
        "lemma3",
        (
            Check(
                "holevo-additive-bound",
                violations == 0,
                f"ensembles={count} violations={violations} worst slack={fmt9(worst)}",
            ),
        ),
    )


def run_lower_bound(n: int, d: int, p, j: int) -> SuiteResult:
    p = as_fraction(p)
    res = iq.witness_coherent_info(n, p, d, j)
    rate = res.diagnostics["rate_per_use"]
    pairs = min(n, j - 1)
    closed = float(Fraction(pairs, j) * (1 - p)) * math.log2(d)
    checks = [
        Check(
            "witness-rate",
            abs(rate - closed) <= 1e-6,
            f"n={n} d={d} p={p} uses={j}: rate={fmt9(rate)} closed form={fmt9(closed)} tol=1e-06",
        )
    ]
    exact_log2d = d.bit_length() - 1
    if pairs == j - 1 and 2**exact_log2d == d and p <= Fraction(1, 2):
        ql = float(bounds.q_lower(bounds.BoundParams(n, p, Fraction(exact_log2d)), j))
        checks.append(
            Check(
                "matches-rate-formula",
                abs(rate - ql) <= 1e-6,
                f"(j-1)(1-p)/j*log2d = {fmt9(ql)} vs simulated {fmt9(rate)}",
            )
        )
    return SuiteResult("lower-bound", tuple(checks))


def run_suite(
    name: str,
    seed: int = 0,
    samples: int | None = None,
    n: int = 1,
    d: int = 2,
    p=Fraction(1, 4),
    uses: int = 2,
) -> list[SuiteResult]:
    if name == "lemma1":
        return [run_lemma1(seed)]
    if name == "lemma2-appendix":
        return [run_lemma2_appendix(seed, samples)]
    if name == "lemma3":
        return [run_lemma3(seed, samples)]
    if name == "lower-bound":
        return [run_lower_bound(n, d, p, uses)]
    if name == "all":
        return [
            run_lemma1(seed),
            run_lemma2_appendix(seed, samples),
            run_lemma3(seed, samples),
            run_lower_bound(1, 2, Fraction(1, 4), 2),
            run_lower_bound(2, 2, Fraction(1, 4), 3),
        ]
    raise ValueError(f"unknown suite {name!r}")


def render_report(results: list[SuiteResult], suite: str, seed: int) -> str:
    import json

    lines = []
    checks = 0
    failures = 0
    for res in results:
        for c in res.checks:
            checks += 1
            if not c.passed:
                failures += 1
            lines.append(f"{'PASS' if c.passed else 'FAIL'} {res.name}.{c.name}: {c.detail}")
        for note in res.notes:
            lines.append(f"NOTE {res.name}: {note}")
    summary = {
        "suite": suite,
        "seed": seed,
        "checks": checks,
        "failures": failures,
        "pass": failures == 0,
    }
    lines.append(json.dumps(summary, separators=(",", ":")))
    return "\n".join(lines) + "\n"
