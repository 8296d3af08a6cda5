"""Single-letter information quantities over finite-dimensional channels:
coherent information, Holevo quantities toward Bob and Eve, the private
value, subentropy, Haar-averaged measurement entropy, and brute-force
small-instance optimizers.

All quantities are in bits. Every random search is driven by an explicit
64-bit seed and is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize

from . import channels as qch
from . import qcore
from .channels import CqEnsemble, QuantumChannel
from .qcore import DensityOperator, PureState, SystemLayout

MAX_BRUTE_DIM = 8
MAX_ACCESS_DIM = 4


@dataclass(frozen=True)
class InfoResult:
    """A value in bits together with the sub-entropies it combines."""

    value: float
    components: dict
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 32
    iterations: int = 600
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.iterations < 1:
            raise ValueError("restarts and iterations must be positive")


def _entropy_with_residual(rho: DensityOperator) -> tuple[float, float]:
    w = np.linalg.eigvalsh(rho.matrix)
    return qcore.spectrum_entropy(w), abs(float(np.sum(w)) - 1.0)


def coherent_information(ch: QuantumChannel, rho: DensityOperator) -> InfoResult:
    """H(B) - H(E) for the given input."""
    hb, rb = _entropy_with_residual(qch.apply(ch, rho))
    he, re_ = _entropy_with_residual(qch.apply(qch.complementary(ch), rho))
    return InfoResult(
        value=hb - he,
        components={"H(B)": hb, "H(E)": he},
        diagnostics={"max_trace_residual": max(rb, re_)},
    )


def _holevo(ch: QuantumChannel, ens: CqEnsemble, side: str) -> InfoResult:
    outs = [(p, qch.apply(ch, rho)) for p, rho in ens.items]
    avg_m = sum(p * o.matrix for p, o in outs)
    avg = DensityOperator(ch.out_layout, avg_m, check_psd=False)
    h_avg, r0 = _entropy_with_residual(avg)
    h_cond = 0.0
    resid = r0
    for p, o in outs:
        h, r = _entropy_with_residual(o)
        h_cond += p * h
        resid = max(resid, r)
    label = f"I(X;{side})"
    return InfoResult(
        value=h_avg - h_cond,
        components={f"H({side} avg)": h_avg, f"H({side}|X)": h_cond, label: h_avg - h_cond},
        diagnostics={"max_trace_residual": resid},
    )


def holevo_bob(ch: QuantumChannel, ens: CqEnsemble) -> InfoResult:
    """I(X;B) = H(sum_x p_x N(rho_x)) - sum_x p_x H(N(rho_x))."""
    return _holevo(ch, ens, "B")


def holevo_eve(ch: QuantumChannel, ens: CqEnsemble) -> InfoResult:
    """I(X;E) through the canonical complement."""
    return _holevo(qch.complementary(ch), ens, "E")


def private_value(ch: QuantumChannel, ens: CqEnsemble) -> InfoResult:
    """I(X;B) - I(X;E) for a fixed classical-quantum ensemble."""
    b = holevo_bob(ch, ens)
    e = holevo_eve(ch, ens)
    return InfoResult(
        value=b.value - e.value,
        components={"I(X;B)": b.value, "I(X;E)": e.value},
        diagnostics={
            "max_trace_residual": max(
                b.diagnostics["max_trace_residual"], e.diagnostics["max_trace_residual"]
            )
        },
    )


# ---------------------------------------------------------------------------
# brute-force ensemble searches


class _EnsembleObjective:
    """Fast objective over pure-state ensembles.

    Parameter vector: m*(2*din) reals for the m = din state vectors
    followed by m reals whose squares give the probability weights.
    """

    def __init__(self, ch: QuantumChannel, want_private: bool):
        self.kraus = ch.kraus
        self.in_layout = ch.in_layout
        self.din = ch.in_dim
        self.dout = ch.out_dim
        self.nk = ch.n_kraus
        self.m = ch.in_dim
        self.want_private = want_private

    def n_params(self) -> int:
        return self.m * (2 * self.din + 1)

    def decode(self, theta: np.ndarray):
        m, d = self.m, self.din
        z = theta[: 2 * m * d].reshape(m, 2, d)
        vecs = z[:, 0, :] + 1j * z[:, 1, :]
        norms = np.linalg.norm(vecs, axis=1)
        if np.min(norms) < 1e-8:
            return None
        vecs = vecs / norms[:, None]
        w = theta[2 * m * d :] ** 2
        tot = float(np.sum(w))
        if tot < 1e-12:
            return None
        return vecs, w / tot

    def value(self, theta: np.ndarray) -> float:
        dec = self.decode(theta)
        if dec is None:
            return -1e3
        vecs, probs = dec
        # images[x] = stack of K_k |psi_x>, from which both Bob's output
        # (sum over k of outer products) and Eve's output (Gram in k) follow
        images = np.einsum("kab,xb->xka", self.kraus, vecs)
        bob = np.einsum("xka,xkb->xab", images, images.conj())
        avg_b = np.einsum("x,xab->ab", probs, bob)
        ixb = qcore.spectrum_entropy(np.linalg.eigvalsh(avg_b)) - float(
            np.sum(probs * [qcore.spectrum_entropy(np.linalg.eigvalsh(b)) for b in bob])
        )
        if not self.want_private:
            return ixb
        eve = np.einsum("xka,xla->xkl", images, images.conj())
        avg_e = np.einsum("x,xkl->kl", probs, eve)
        ixe = qcore.spectrum_entropy(np.linalg.eigvalsh(avg_e)) - float(
            np.sum(probs * [qcore.spectrum_entropy(np.linalg.eigvalsh(e)) for e in eve])
        )
        return ixb - ixe

    def to_ensemble(self, theta: np.ndarray) -> CqEnsemble:
        vecs, probs = self.decode(theta)
        lay = self.in_layout
        items = []
        for x in range(self.m):
            if probs[x] < 1e-12:
                continue
            items.append((probs[x], PureState(lay, vecs[x]).to_density()))
        total = sum(p for p, _ in items)
        return CqEnsemble(tuple((p / total, rho) for p, rho in items))


def _structured_starts(ch: QuantumChannel, obj: _EnsembleObjective) -> list[np.ndarray]:
    """Warm starts worth polishing before the random restarts: the full
    computational basis, and (for a switch) the computational basis pinned
    to each component in turn."""
    m, d = obj.m, obj.din

    def encode(states: list[int], weights: list[float]) -> np.ndarray:
        theta = np.zeros(obj.n_params())
        for x in range(m):
            theta[x * 2 * d + states[x]] = 1.0
            theta[2 * m * d + x] = weights[x]
        return theta

    starts = [encode([x % d for x in range(m)], [1.0] * m)]
    comps = qch.switch_components(ch)
    if comps:
        flag_dim = len(comps)
        data_dim = d // flag_dim
        for c, comp in enumerate(comps):
            idx = [c * data_dim + (x % data_dim) for x in range(m)]
            w = [1.0 if x < min(comp.in_dim, m) else 1e-3 for x in range(m)]
            starts.append(encode(idx, w))
    return starts


def _multistart(obj, warm_starts: list[np.ndarray], cfg: OptimizerConfig):
    """Maximize obj.value by adaptive Nelder-Mead from cfg.restarts starts:
    the warm starts first, then standard-normal draws, restart r drawing
    from stream r of SeedSequence(cfg.seed). Returns (best value, its
    parameters); ties keep the earlier restart."""
    neg = lambda t: -obj.value(t)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best_val, best_theta = -np.inf, None
    for r, stream in enumerate(streams):
        if r < len(warm_starts):
            x0 = warm_starts[r]
        else:
            x0 = np.random.default_rng(stream).standard_normal(obj.n_params())
        res = minimize(
            neg,
            x0,
            method="Nelder-Mead",
            options={"maxiter": cfg.iterations, "xatol": 1e-7, "fatol": 1e-10, "adaptive": True},
        )
        val = -float(res.fun)
        if val > best_val:
            best_val, best_theta = val, res.x
    return best_val, best_theta


def _search(ch: QuantumChannel, cfg: OptimizerConfig, want_private: bool):
    if ch.in_dim > MAX_BRUTE_DIM:
        raise ValueError(
            f"brute-force search capped at input dim {MAX_BRUTE_DIM}, got {ch.in_dim}"
        )
    obj = _EnsembleObjective(ch, want_private)
    best_val, best_theta = _multistart(obj, _structured_starts(ch, obj), cfg)
    return best_val, obj.to_ensemble(best_theta)


def brute_force_p1(ch: QuantumChannel, cfg: OptimizerConfig = OptimizerConfig()):
    """Best private value found over pure-state ensembles (lower bound)."""
    return _search(ch, cfg, want_private=True)


def brute_force_c1(ch: QuantumChannel, cfg: OptimizerConfig = OptimizerConfig()):
    """Best Holevo value toward Bob found over pure-state ensembles."""
    return _search(ch, cfg, want_private=False)


# ---------------------------------------------------------------------------
# witness state and its coherent information


@dataclass(frozen=True)
class WitnessLayout:
    """Register documentation for the j-use witness input."""

    registers: tuple[tuple[str, int], ...]
    pinned_flags: tuple[int, ...]
    paired_rockets: int


def witness_state(n: int, d: int, j: int) -> tuple[DensityOperator, WitnessLayout]:
    """Channel-input reduction of the j-use interleaving state.

    Use 1 selects the rocket bank (flag 0), uses 2..j the erasure branch
    (flag 1). Rocket k's first input carries half of a maximally entangled
    pair whose partner is kept as a reference (so it enters here maximally
    mixed); its second input is maximally entangled with the erasure data
    register of use k+1. Only min(n, j-1) rockets can be paired; every
    remaining input is the fixed pure state |0>.
    """
    if j < 2 or n < 1 or d < 2:
        raise ValueError(f"witness needs j >= 2, n >= 1, d >= 2; got n={n} d={d} j={j}")
    pad_dim = d ** (2 * n - 1)
    total = (2 * d ** (2 * n)) ** j
    qcore.check_dim(total, "witness state")
    m = min(n, j - 1)

    names: list[str] = []
    factors: list[DensityOperator] = []

    def add(name_list, rho):
        start = len(names)
        names.extend(name_list)
        factors.append(rho)
        return start

    add(["use1.flag"], qcore.basis_state(2, 0).to_density())
    for k in range(1, n + 1):
        if k <= m:
            add([f"use1.rocket{k}.a1"], qcore.max_mixed(d))
            add(
                [f"use1.rocket{k}.a2", f"use{k + 1}.data"],
                qcore.max_entangled(d).to_density(),
            )
        else:
            add([f"use1.rocket{k}.a1"], qcore.basis_state(d, 0).to_density())
            add([f"use1.rocket{k}.a2"], qcore.basis_state(d, 0).to_density())
    for u in range(2, j + 1):
        add([f"use{u}.flag"], qcore.basis_state(2, 1).to_density())
        if u - 1 > m:
            add([f"use{u}.data"], qcore.basis_state(d, 0).to_density())
        add([f"use{u}.pad"], qcore.basis_state(pad_dim, 0).to_density())

    rho = qcore.tensor_all(*factors)

    canonical = ["use1.flag"]
    for k in range(1, n + 1):
        canonical += [f"use1.rocket{k}.a1", f"use1.rocket{k}.a2"]
    for u in range(2, j + 1):
        canonical += [f"use{u}.flag", f"use{u}.data", f"use{u}.pad"]
    perm = [names.index(nm) for nm in canonical]
    rho = qcore.permute_systems(rho, perm)
    rho = DensityOperator(
        SystemLayout(rho.layout.dims, tuple(canonical)), rho.matrix, check_psd=False
    )

    dims = dict(zip(canonical, rho.layout.dims))
    layout_doc = WitnessLayout(
        registers=tuple((nm, dims[nm]) for nm in canonical),
        pinned_flags=(0,) + (1,) * (j - 1),
        paired_rockets=m,
    )
    return rho, layout_doc


def witness_coherent_info(
    n: int, p, d: int, j: int, ensemble: str = "pauli"
) -> InfoResult:
    """Coherent information of witness_state(n, d, j) through j uses of
    main_channel(n, p, d), evaluated with the flags pinned.

    With the flags pinned the switch acts as its selected component and the
    input factorizes over independent register groups (each paired rocket
    with its partner erasure data register; every remaining register alone),
    so output and environment entropies add over the groups. Equivalence
    with the full switch evaluation is property-tested at tiny dimensions.
    """
    if j < 2 or n < 1 or d < 2:
        raise ValueError(f"witness needs j >= 2, n >= 1, d >= 2; got n={n} d={d} j={j}")
    p = qch.as_fraction(p)
    m = min(n, j - 1)
    pad_dim = d ** (2 * n - 1)

    hb = 0.0
    he = 0.0
    resid = 0.0

    def accumulate(ch, rho, count):
        nonlocal hb, he, resid
        if count == 0:
            return
        b, rb = _entropy_with_residual(qch.apply(ch, rho))
        e, re_ = _entropy_with_residual(qch.apply(qch.complementary(ch), rho))
        hb += count * b
        he += count * e
        resid = max(resid, rb, re_)

    rocket = qch.rocket_channel(d, ensemble)
    erasure = qch.erasure_channel(p, d)

    # paired groups: (I/d on a1) x (Phi+ across a2 and the next use's data)
    pair_state = qcore.tensor(qcore.max_mixed(d), qcore.max_entangled(d).to_density())
    accumulate(qch.tensor_channels(rocket, erasure), pair_state, m)
    # unpaired rockets, unpaired erasure data registers, and the pads all
    # carry fixed pure product inputs
    sigma2 = qcore.tensor(
        qcore.basis_state(d, 0).to_density(), qcore.basis_state(d, 0).to_density()
    )
    accumulate(rocket, sigma2, n - m)
    accumulate(erasure, qcore.basis_state(d, 0).to_density(), (j - 1) - m)
    accumulate(qch.erasure_channel(1, pad_dim), qcore.basis_state(pad_dim, 0).to_density(), j - 1)
    # pinned flags pass through the switch deterministically and contribute
    # zero entropy on both sides

    value = hb - he
    return InfoResult(
        value=value,
        components={"H(B)": hb, "H(E)": he},
        diagnostics={
            "max_trace_residual": resid,
            "rate_per_use": value / j,
            "uses": j,
            "paired_rockets": m,
        },
    )


# ---------------------------------------------------------------------------
# subentropy and Haar-averaged measurement entropy


def harmonic(n: int) -> Fraction:
    """Exact harmonic number sum_{i=1..n} 1/i."""
    if n < 1:
        raise ValueError(f"harmonic needs n >= 1, got {n}")
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def gamma_d(d: int) -> float:
    """ln d - sum_{t=2..d} 1/t.

    Converges to 1 - euler_gamma ~ 0.4227843 as d grows (not to the Euler
    constant itself, despite the resemblance of the definition).
    """
    if d < 1:
        raise ValueError(f"gamma_d needs d >= 1, got {d}")
    return math.log(d) - math.fsum(1.0 / t for t in range(2, d + 1))


def _subentropy_sum(lam, dim: int, log2) -> float:
    """-sum_k [lam_k^dim / prod_{j!=k}(lam_k - lam_j)] log2(lam_k) over the
    positive lam_k, in the arithmetic of lam's entries and `log2`."""
    q = 0
    for k, lk in enumerate(lam):
        if lk <= 0:
            continue
        denom = 1
        for j, lj in enumerate(lam):
            if j != k:
                denom *= lk - lj
        q -= (lk**dim / denom) * log2(lk)
    return q


def subentropy(rho: DensityOperator) -> float:
    """Closed-form subentropy of the spectrum, in bits.

    Q = -sum_k [lam_k^d / prod_{j!=k}(lam_k - lam_j)] log2 lam_k over the
    nonzero eigenvalues; exact zeros only shrink the numerators. Degenerate
    spectra are evaluated by a symmetric epsilon-ladder perturbation at
    eps and eps/2 with a Richardson step, in high precision so the near
    cancellations are harmless.
    """
    w = np.linalg.eigvalsh(rho.matrix)
    dim = len(w)
    lam = [0.0 if x < 1e-12 else min(float(x), 1.0) for x in w]
    nonzero = sorted(x for x in lam if x > 0.0)
    degenerate = any(
        b - a < 1e-9 for a, b in zip(nonzero, nonzero[1:])
    )
    if not degenerate:
        q = _subentropy_sum(lam, dim, math.log2)
    else:
        import mpmath as mp

        with mp.workdps(60):
            eps = mp.mpf("1e-7")

            def perturbed(scale):
                out = [mp.mpf(x) for x in lam]
                i = 0
                vals = sorted(range(len(lam)), key=lambda t: lam[t])
                while i < len(vals):
                    grp = [vals[i]]
                    while (
                        i + 1 < len(vals)
                        and lam[vals[i + 1]] > 0
                        and lam[vals[i]] > 0
                        and lam[vals[i + 1]] - lam[vals[i]] < 1e-9
                    ):
                        i += 1
                        grp.append(vals[i])
                    if len(grp) > 1 and lam[grp[0]] > 0:
                        c = len(grp)
                        for t, idx in enumerate(grp):
                            out[idx] += scale * (t - (c - 1) / mp.mpf(2))
                    i += 1
                return out

            log2 = lambda x: mp.log(x) / mp.log(2)
            q1 = _subentropy_sum(perturbed(eps), dim, log2)
            q2 = _subentropy_sum(perturbed(eps / 2), dim, log2)
            if abs(q1 - q2) > 1e-5:
                raise ArithmeticError(
                    f"subentropy perturbation did not converge: {q1} vs {q2}"
                )
            q = float((4 * q2 - q1) / 3)
    if -1e-9 < q < 0.0:
        q = 0.0
    return q


def haar_measured_entropy(
    rho: DensityOperator, samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo mean of the measured entropy over Haar-random bases.

    Returns (mean bits, standard error). Deterministic given the seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    d = rho.dim
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ent = np.empty(samples)
    done = 0
    while done < samples:
        chunk = min(50000, samples - done)
        u = qcore.haar_unitaries(d, chunk, rng)
        probs = np.einsum("sji,jk,ski->si", u.conj(), rho.matrix, u).real
        probs = np.clip(probs, 0.0, 1.0)
        logs = np.log2(probs, out=np.zeros_like(probs), where=probs > 0.0)
        ent[done : done + chunk] = -np.sum(probs * logs, axis=1)
        done += chunk
    mean = float(np.mean(ent))
    se = float(np.std(ent, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return mean, se


# ---------------------------------------------------------------------------
# accessible information lower-bound search


class _PovmObjective:
    """Mutual information over rank-one POVMs built from m = d^2 free
    vectors v_i via E_i = M^(-1/2) v_i v_i^dag M^(-1/2), M = sum v v^dag."""

    def __init__(self, ens: CqEnsemble):
        self.d = ens.layout.total
        self.m = self.d * self.d
        self.px = np.array([p for p, _ in ens.items])
        self.states = np.stack([rho.matrix for _, rho in ens.items])

    def n_params(self) -> int:
        return 2 * self.m * self.d

    def decode(self, theta: np.ndarray):
        z = theta.reshape(self.m, 2, self.d)
        vecs = z[:, 0, :] + 1j * z[:, 1, :]
        mmat = np.einsum("ia,ib->ab", vecs, vecs.conj())
        w, v = np.linalg.eigh(mmat)
        if w[0] < 1e-10 * max(float(w[-1]), 1.0):
            return None
        inv_sqrt = (v * (w**-0.5)) @ v.conj().T
        return vecs @ inv_sqrt.T  # rows a_i with sum |a_i><a_i| = I

    def value(self, theta: np.ndarray) -> float:
        a = self.decode(theta)
        if a is None:
            return -1e3
        # p(y|x) = <a_y| rho_x |a_y>
        pyx = np.einsum("ya,xab,yb->xy", a.conj(), self.states, a).real
        pyx = np.clip(pyx, 0.0, None)
        joint = self.px[:, None] * pyx
        py = np.sum(joint, axis=0)
        return (
            qcore.shannon_entropy(self.px)
            + qcore.spectrum_entropy(py)
            - qcore.spectrum_entropy(joint.reshape(-1))
        )

    def povm(self, theta: np.ndarray) -> list[np.ndarray]:
        a = self.decode(theta)
        return [np.outer(a[i], a[i].conj()) for i in range(self.m)]


def accessible_info_search(ens: CqEnsemble, cfg: OptimizerConfig = OptimizerConfig()):
    """Best I(X;Y) found over rank-one POVMs with up to d^2 elements.

    A lower bound on the accessible information; deterministic given seed.
    """
    d = ens.layout.total
    if d > MAX_ACCESS_DIM:
        raise ValueError(f"accessible-information search capped at dim {MAX_ACCESS_DIM}")
    obj = _PovmObjective(ens)
    m = obj.m
    # warm start: eigenbasis of the average state, duplicated at half
    # weight to fill the m slots
    avg = sum(p * rho.matrix for p, rho in ens.items)
    _, eigvecs = np.linalg.eigh(avg)
    vecs = np.zeros((m, d), dtype=np.complex128)
    for i in range(m):
        vecs[i] = eigvecs[:, i % d] * (1.0 if i < d else 0.5)
    warm = np.stack([vecs.real, vecs.imag], axis=1).reshape(-1)
    best_val, best_theta = _multistart(obj, [warm], cfg)
    return best_val, obj.povm(best_theta)
