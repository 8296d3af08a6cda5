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
from typing import NamedTuple

import numpy as np

from . import as_fraction, qcore
from . import channels as qch
from .channels import BlockOutput, CqEnsemble, QuantumChannel
from .qcore import DensityOperator, PureState

MAX_BRUTE_DIM = 8


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


def _block_stacks(outs: list[BlockOutput]) -> list[np.ndarray]:
    """The blocks of outputs of one channel as one (len(outs), count, s, s)
    stack per block size s, sizes ascending."""
    sizes = [len(rows) for rows in outs[0].rows]
    return [
        np.array([[b for b, n in zip(o.blocks, sizes) if n == s] for o in outs])
        for s in sorted(set(sizes))
    ]


def _entropies(stacks: list[np.ndarray]) -> tuple[list[float], float]:
    """Entropies of the outputs whose blocks `stacks` holds (as from
    _block_stacks), from one eigvalsh per block size over those blocks of
    every output at once, and the largest distance of an output's spectrum
    sum from 1."""
    w = np.concatenate([np.linalg.eigvalsh(g).reshape(len(g), -1) for g in stacks], axis=1)
    resid = float(np.max(np.abs(np.sum(w, axis=1) - 1.0)))
    return qcore.spectrum_entropy(w).tolist(), resid


def coherent_information(ch: QuantumChannel, rho: DensityOperator) -> InfoResult:
    """H(B) - H(E) for the given input."""
    comp = qch.complementary(ch)
    (hb,), rb = _entropies(_block_stacks([qch.apply(ch, rho)]))
    (he,), re_ = _entropies(_block_stacks([qch.apply(comp, rho)]))
    return InfoResult(
        value=hb - he,
        components={"H(B)": hb, "H(E)": he},
        diagnostics={"max_trace_residual": max(rb, re_)},
    )


def _holevo(ch: QuantumChannel, ens: CqEnsemble, side: str) -> InfoResult:
    probs = [p for p, _ in ens.items]
    stacks = _block_stacks([qch.apply(ch, rho) for _, rho in ens.items])
    # the average output, block by block, summed in ensemble order
    avg = [sum(p * o for p, o in zip(probs, g)) for g in stacks]
    (h_avg, *hs), resid = _entropies([np.concatenate([a[None], g]) for a, g in zip(avg, stacks)])
    h_cond = 0.0
    for p, h in zip(probs, hs):
        h_cond += p * h
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
    """Fast objective over pure-state ensembles, a batch of parameter
    vectors at a time.

    Parameter vector: m*(2*din) reals for the m = din state vectors
    followed by m reals whose squares give the probability weights.

    `value` maps a (B, n_params) batch to (B,) values in one einsum chain.
    The Holevo value toward Bob takes one eigvalsh call on the stacked
    [average output; the m member outputs] of every row and one
    spectrum_entropy call on the spectra it returns. The private value
    needs only the two averages: a pure member psi_x leaves N(psi_x) and
    N^c(psi_x) with the same nonzero spectrum, so the members' entropies
    cancel and I(X;B) - I(X;E) = H(N(rho)) - H(N^c(rho)), the coherent
    information of the average input rho = sum_x p_x |psi_x><psi_x|. Both
    outputs are linear in rho, so one einsum of each row's rho against
    `superop`, the (din^2, dout^2 + nk^2) matrix of rho -> (N(rho),
    N^c(rho)) built once from the Kraus operators and kept to its nonzero
    rows and columns, gives them; when dout == nk one eigvalsh call takes
    both spectra. Each row's value is bit for bit the value of that row
    evaluated alone (einsum, unlike a BLAS product, sums every row in the
    same order in any batch), and, while the output and environment
    dimensions stay below 8 (6 and 6 for verify's lemma1 switch), the same
    sums of 1-D entropies.
    """

    def __init__(self, ch: QuantumChannel, want_private: bool):
        self.kraus = ch.kraus
        self.in_layout = ch.in_layout
        self.din = ch.in_dim
        self.m = ch.in_dim
        self.want_private = want_private
        if want_private:
            k = self.kraus
            # superop[(c, d), (a, b)] = <a|N(|c><d|)|b>, then <k|N^c(|c><d|)|l>
            bob = np.einsum("kac,kbd->cdab", k, k.conj()).reshape(self.din**2, -1)
            eve = np.einsum("kac,lad->cdkl", k, k.conj()).reshape(self.din**2, -1)
            superop = np.concatenate([bob, eve], axis=1)
            # Only its nonzero rows and columns enter the product (24 of its
            # 1,152 entries are nonzero for lemma1's switch). A dropped term
            # is an exact zero, so each output entry keeps its value.
            nz = superop != 0
            self.rows, self.cols = np.flatnonzero(nz.any(1)), np.flatnonzero(nz.any(0))
            self.superop = superop[np.ix_(self.rows, self.cols)]
            self.out_width = superop.shape[1]

    def n_params(self) -> int:
        return self.m * (2 * self.din + 1)

    def decode(self, theta: np.ndarray):
        """(unit vectors (B, m, din), probabilities (B, m), ok (B,)) of a
        (B, n_params) batch. A row with a vector of norm below 1e-8 or
        weights summing below 1e-12 has ok False; it is divided by ones,
        so its entries are finite and no warning is raised."""
        m, d = self.m, self.din
        z = theta[:, : 2 * m * d].reshape(-1, m, 2, d)
        vecs = z[:, :, 0, :] + 1j * z[:, :, 1, :]
        norms = np.linalg.norm(vecs, axis=2)
        w = theta[:, 2 * m * d :] ** 2
        tot = np.sum(w, axis=1)
        ok = ~(np.min(norms, axis=1) < 1e-8) & ~(tot < 1e-12)
        vecs = vecs / np.where(ok[:, None], norms, 1.0)[:, :, None]
        return vecs, w / np.where(ok, tot, 1.0)[:, None], ok

    def value(self, theta: np.ndarray) -> np.ndarray:
        """Objective of each row of a (B, n_params) batch; -1e3 where the
        row does not decode."""
        vecs, probs, ok = self.decode(theta)
        out = np.full(len(theta), -1e3)
        if not ok.all():
            vecs, probs = vecs[ok], probs[ok]
        if self.want_private:
            rho = np.einsum("yx,yxc,yxd->ycd", probs, vecs, vecs.conj()).reshape(len(probs), -1)
            outs = np.zeros((len(rho), self.out_width), dtype=complex)
            outs[:, self.cols] = np.einsum("yi,iz->yz", rho[:, self.rows], self.superop)
            nk, dout, _ = self.kraus.shape
            if nk == dout:  # one eigvalsh call takes both sides' spectra
                w = np.linalg.eigvalsh(outs.reshape(-1, 2, nk, nk))
                h_b, h_e = qcore.spectrum_entropy(w).T
            else:
                h_b, h_e = (
                    qcore.spectrum_entropy(np.linalg.eigvalsh(a.reshape(-1, n, n)))
                    for a, n in ((outs[:, : dout**2], dout), (outs[:, dout**2 :], nk))
                )
            out[ok] = h_b - h_e
            return out
        # images[y, x] = stack of K_k |psi_x> of row y; Bob's output is the
        # sum over k of their outer products
        images = np.einsum("kab,yxb->yxka", self.kraus, vecs)
        bob = np.einsum("yxka,yxkb->yxab", images, images.conj())
        avg_b = np.einsum("yx,yxab->yab", probs, bob)
        h = qcore.spectrum_entropy(np.linalg.eigvalsh(np.concatenate([avg_b[:, None], bob], 1)))
        out[ok] = h[:, 0] - np.sum(probs * h[:, 1:], axis=1)
        return out

    def to_ensemble(self, theta: np.ndarray) -> CqEnsemble:
        vecs, probs, _ = self.decode(theta[None])
        lay = self.in_layout
        items = []
        for x in range(self.m):
            if probs[0, x] < 1e-12:
                continue
            items.append((probs[0, x], PureState(lay, vecs[0, x]).to_density()))
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
    if ch.spec is not None and ch.spec["kind"] == "switch":
        flag_dim = len(ch.spec["components"])
        data_dim = d // flag_dim  # every component's input dimension
        for c in range(flag_dim):
            idx = [c * data_dim + (x % data_dim) for x in range(m)]
            w = [1.0 if x < min(data_dim, m) else 1e-3 for x in range(m)]
            starts.append(encode(idx, w))
    return starts


class SimplexResult(NamedTuple):
    """Per-start minimizers x (B, N) and minima fun (B,) of one lockstep
    search, and the objective evaluations nfev summed over the starts."""

    x: np.ndarray
    fun: np.ndarray
    nfev: int


def minimize(fun, x0s: np.ndarray, maxiter: int) -> SimplexResult:
    """Adaptive Nelder-Mead (Gao & Han, Comput. Optim. Appl. 51, 2012) from
    each row of x0s, all starts advancing in lockstep.

    `fun` maps a (k, N) batch of points to (k,) values. Each start follows
    scipy.optimize.minimize(method="Nelder-Mead", options={"maxiter":
    maxiter, "xatol": 1e-7, "fatol": 1e-10, "adaptive": True}) step for
    step, in the same arithmetic and order (its initial simplex, the two
    sorts after the first evaluation, the convergence test before each
    iteration), so its x, fun and nfev are scipy's bit for bit as long as
    `fun` values a row the same in any batch.

    An iteration makes at most three calls of `fun`: the reflections of
    every live start; the expansion, outside or inside contraction point
    that each start's reflected value picks; the shrunk vertices of the
    starts that shrink. A start leaves the batch when it converges; every
    start stops after maxiter - 1 iterations. _multistart calls this
    through the module attribute, which is where a tracer can wrap it.
    """
    x0s = np.array(x0s, dtype=float)
    B, N = x0s.shape
    rho, chi, psi, sigma = 1, 1 + 2 / N, 0.75 - 1 / (2 * N), 1 - 1 / N
    nonzdelt, zdelt = 0.05, 0.00025
    xatol, fatol = 1e-7, 1e-10

    sim = np.repeat(x0s[:, None, :], N + 1, axis=1)
    diag = np.arange(N)
    sim[:, diag + 1, diag] = np.where(x0s != 0, (1 + nonzdelt) * x0s, zdelt)
    fsim = fun(sim.reshape(-1, N)).reshape(B, N + 1)
    nfev = B * (N + 1)

    def order(s, f):
        rows, ind = np.arange(len(f))[:, None], np.argsort(f, axis=1)
        return s[rows, ind], f[rows, ind]

    sim, fsim = order(*order(sim, fsim))

    x, fmin = np.empty((B, N)), np.empty(B)
    live = np.arange(B)
    iterations = 1
    while True:
        if iterations < maxiter:
            stop = (np.max(np.abs(sim[:, 1:] - sim[:, :1]), axis=(1, 2)) <= xatol) & (
                np.max(np.abs(fsim[:, :1] - fsim[:, 1:]), axis=1) <= fatol
            )
        else:
            stop = np.ones(len(live), dtype=bool)
        if stop.any():
            x[live[stop]], fmin[live[stop]] = sim[stop, 0], np.min(fsim[stop], axis=1)
            live, sim, fsim = live[~stop], sim[~stop], fsim[~stop]
            if not len(live):
                return SimplexResult(x, fmin, nfev)

        # scipy's expressions term for term, so every product rounds alike
        xbar = np.add.reduce(sim[:, :-1], 1) / N
        worst = sim[:, -1]
        xr = (1 + rho) * xbar - rho * worst
        fxr = fun(xr)
        expand = fxr < fsim[:, 0]
        accept = ~expand & (fxr < fsim[:, -2])
        outside = ~expand & ~accept & (fxr < fsim[:, -1])
        inside = ~expand & ~accept & ~outside
        second = ~accept
        pts = np.where(
            expand[:, None],
            (1 + rho * chi) * xbar - rho * chi * worst,
            np.where(
                outside[:, None],
                (1 + psi * rho) * xbar - psi * rho * worst,
                (1 - psi) * xbar + psi * worst,
            ),
        )
        f2 = np.full(len(live), np.inf)
        if second.any():
            f2[second] = fun(pts[second])
        nfev += len(live) + int(np.count_nonzero(second))

        took_2 = (expand & (f2 < fxr)) | (outside & (f2 <= fxr)) | (inside & (f2 < fsim[:, -1]))
        took_r = accept | (expand & ~took_2)
        shrink = second & ~expand & ~took_2
        sim[took_r, -1], fsim[took_r, -1] = xr[took_r], fxr[took_r]
        sim[took_2, -1], fsim[took_2, -1] = pts[took_2], f2[took_2]
        if shrink.any():
            best = sim[shrink, :1]
            shrunk = best + sigma * (sim[shrink, 1:] - best)
            sim[shrink, 1:] = shrunk
            fsim[shrink, 1:] = fun(shrunk.reshape(-1, N)).reshape(-1, N)
            nfev += N * int(np.count_nonzero(shrink))
        iterations += 1
        sim, fsim = order(sim, fsim)


def _starting_points(obj, warm_starts: list[np.ndarray], cfg: OptimizerConfig) -> np.ndarray:
    """The (cfg.restarts, n_params) starts of a search: the warm starts
    first, then standard-normal draws, restart r drawing from stream r of
    SeedSequence(cfg.seed)."""
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    return np.stack([
        warm_starts[r] if r < len(warm_starts)
        else np.random.default_rng(stream).standard_normal(obj.n_params())
        for r, stream in enumerate(streams)
    ])


def _multistart(obj, warm_starts: list[np.ndarray], cfg: OptimizerConfig):
    """Maximize obj.value by adaptive Nelder-Mead from the starting points,
    run as one lockstep search. Returns (best value, its parameters); ties
    keep the earlier restart."""
    x0s = _starting_points(obj, warm_starts, cfg)
    res = minimize(lambda t: -obj.value(t), x0s, cfg.iterations)
    best = int(np.argmax(-res.fun))
    return -float(res.fun[best]), res.x[best]


def _search(ch: QuantumChannel, cfg: OptimizerConfig, want_private: bool):
    if ch.in_dim > MAX_BRUTE_DIM:
        raise ValueError(
            f"brute-force search capped at input dim {MAX_BRUTE_DIM}, got {ch.in_dim}"
        )
    obj = _EnsembleObjective(ch, want_private)
    best_val, best_theta = _multistart(obj, _structured_starts(ch, obj), cfg)
    return best_val, obj.to_ensemble(best_theta)


def brute_force_p1(ch: QuantumChannel, cfg: OptimizerConfig = OptimizerConfig()):
    """Best private value found over pure-state ensembles (lower bound).

    Over pure-state ensembles the private value is the coherent
    information of the average input (see _EnsembleObjective), so this
    search maximises that coherent information and cannot show P1 > Q1."""
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
    p = as_fraction(p)
    m = min(n, j - 1)
    pad_dim = d ** (2 * n - 1)

    hb = 0.0
    he = 0.0
    resid = 0.0

    def accumulate(ch, rho, count):
        nonlocal hb, he, resid
        if count == 0:
            return
        res = coherent_information(ch, rho)
        hb += count * res.components["H(B)"]
        he += count * res.components["H(E)"]
        resid = max(resid, res.diagnostics["max_trace_residual"])

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


# sum_{t=2..d} 1/t for the last d that gamma_d saw, held exactly as the
# two-term fsum partials [lo, hi]: hi is the rounded sum, lo the remainder.
_harmonic_tail = {"d": 1, "partials": [0.0, 0.0]}
_HARMONIC_CHUNK = 2**16  # terms held in memory at once


def gamma_d(d: int) -> float:
    """ln d - sum_{t=2..d} 1/t, the sum correctly rounded (math.fsum).

    Converges to 1 - euler_gamma ~ 0.4227843 as d grows (not to the Euler
    constant itself, despite the resemblance of the definition). The sum
    for the last d asked for is kept exactly, so calls with ascending d (a
    locking sweep) cost O(1) per step; a smaller d restarts from t = 2.
    The terms are summed in chunks of _HARMONIC_CHUNK, each carrying the
    exact partials of the ones before, so memory does not grow with d.
    """
    if d < 1:
        raise ValueError(f"gamma_d needs d >= 1, got {d}")
    last, partials = _harmonic_tail["d"], _harmonic_tail["partials"]
    if d < last:
        last, partials = 1, [0.0, 0.0]
    for start in range(last + 1, d + 1, _HARMONIC_CHUNK):
        stop = min(start + _HARMONIC_CHUNK, d + 1)
        terms = partials + [1.0 / t for t in range(start, stop)]
        hi = math.fsum(terms)
        # The exact sum S and hi are multiples of ulp(1/(stop-1)) and |S - hi|
        # is at most ulp(hi) / 2, so S - hi has about log2(stop) significant
        # bits and fsum returns it exactly: [S - hi, hi] sums to S unrounded.
        terms.append(-hi)
        partials = [math.fsum(terms), hi]
    _harmonic_tail.update(d=d, partials=partials)
    return math.log(d) - partials[1]


def subentropy(rho: DensityOperator) -> float:
    """Subentropy of the spectrum, in bits (Jozsa, Robb & Wootters, PRA 49, 668).

    Q = -g[lam_1, ..., lam_d], the divided difference of g(x) = x^d log2 x
    over the d eigenvalues, from one Newton table. Where a node repeats the
    table takes the Taylor coefficient g^(k)(x)/k! =
    C(d,k) x^(d-k) (log2 x + (H_d - H_(d-k)) log2 e), which is 0 at x = 0
    for every order k < d. Eigenvalues below 1e-12 count as 0, and runs of
    nonzero eigenvalues less than 1e-5 apart merge into one node at their
    mean, so a degenerate spectrum needs no second code path. Merging moves
    Q by an amount second order in the gap, while a difference quotient
    over a gap just above the cut divides rounding errors by it: at a 1e-9
    cut, a pair 1.1e-9 apart read 1.1e-7 bits off.
    """
    w = np.linalg.eigvalsh(rho.matrix)
    dim = len(w)
    lam = sorted(0.0 if x < 1e-12 else min(x, 1.0) for x in w.tolist())
    nodes, start = [], 0
    for i in range(1, dim + 1):
        if i == dim or lam[i - 1] == 0.0 or lam[i] - lam[i - 1] >= 1e-5:
            nodes += [sum(lam[start:i]) / (i - start)] * (i - start)
            start = i
    shift = [0.0]  # (H_d - H_(d-k)) log2 e for k = 0 .. d-1
    for t in range(dim, 1, -1):
        shift.append(shift[-1] + math.log2(math.e) / t)

    def taylor(x: float, k: int) -> float:
        if x == 0.0:
            return 0.0
        return math.comb(dim, k) * x ** (dim - k) * (math.log2(x) + shift[k])

    # table[i] holds g[nodes[i-k] .. nodes[i]] after pass k; the nodes are
    # sorted, so equal ends mean every node between them is equal too
    table = [taylor(x, 0) for x in nodes]
    for k in range(1, dim):
        for i in range(dim - 1, k - 1, -1):
            a, b = nodes[i - k], nodes[i]
            table[i] = taylor(b, k) if a == b else (table[i] - table[i - 1]) / (b - a)
    q = -table[-1]
    if -1e-9 < q <= 0.0:
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
        ent[done : done + chunk] = qcore.spectrum_entropy(probs)
        done += chunk
    mean = float(np.mean(ent))
    se = float(np.std(ent, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return mean, se
