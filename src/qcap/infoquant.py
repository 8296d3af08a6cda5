"""Single-letter information quantities over finite-dimensional channels:
coherent information, Holevo quantities toward Bob and Eve, the private
value, subentropy, Haar-averaged measurement entropy, and brute-force
single-use searches.

The searches maximise the private value (the coherent information of the
average input) or the Holevo value toward Bob over pure-state ensembles,
by an in-house L-BFGS ascent on the closed-form gradient, with every start
advancing in one batch. The private search runs once per switch component,
which is exact (see brute_force_p1).

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
from .channels import QuantumChannel
from .qcore import CqEnsemble, DensityOperator

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


def _block_stacks(blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Output stacks (..., s, s), one per block, as one (..., count, s, s)
    stack per block size s, sizes ascending."""
    sizes = [b.shape[-1] for b in blocks]
    return [
        np.moveaxis(np.array([b for b, n in zip(blocks, sizes) if n == s]), 0, -3)
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
    (hb,), rb = _entropies(_block_stacks(qch.apply(ch, rho)))
    (he,), re_ = _entropies(_block_stacks(qch.apply(comp, rho)))
    return InfoResult(
        value=hb - he,
        components={"H(B)": hb, "H(E)": he},
        diagnostics={"max_trace_residual": max(rb, re_)},
    )


def _holevo(probs: np.ndarray, blocks: list[np.ndarray]) -> tuple:
    """(H(avg), H(.|X)) per channel of a family, as (g,) arrays, and the
    largest trace residual, from the weights probs (g, n) and the kernel's
    (g, n, s, s) output stacks: one eigvalsh per block size in all."""
    g, n = probs.shape
    stacks = _block_stacks(blocks)
    # the average output, block by block, summed in ensemble order
    avg = [sum(probs[:, x, None, None, None] * st[:, x] for x in range(n)) for st in stacks]
    outs = [np.concatenate([a[:, None], st], axis=1) for a, st in zip(avg, stacks)]
    h, resid = _entropies([o.reshape((-1,) + o.shape[2:]) for o in outs])
    h = np.reshape(h, (g, n + 1))
    h_cond = 0.0
    for x in range(n):
        h_cond = h_cond + probs[:, x] * h[:, x + 1]
    return h[:, 0], h_cond, resid


def _holevo_result(ch: QuantumChannel, ens: CqEnsemble, side: str) -> InfoResult:
    h_avg, h_cond, resid = _holevo(ens.probs[None], qch._apply_factors([ch], ens.states[None]))
    h_avg, h_cond = float(h_avg[0]), float(h_cond[0])
    label = f"I(X;{side})"
    return InfoResult(
        value=h_avg - h_cond,
        components={f"H({side} avg)": h_avg, f"H({side}|X)": h_cond, label: h_avg - h_cond},
        diagnostics={"max_trace_residual": resid},
    )


def holevo_bob(ch: QuantumChannel, ens: CqEnsemble) -> InfoResult:
    """I(X;B) = H(sum_x p_x N(rho_x)) - sum_x p_x H(N(rho_x))."""
    return _holevo_result(ch, ens, "B")


def holevo_eve(ch: QuantumChannel, ens: CqEnsemble) -> InfoResult:
    """I(X;E) through the canonical complement."""
    return _holevo_result(qch.complementary(ch), ens, "E")


def holevo_bob_family(channels, probs, states) -> np.ndarray:
    """I(X;B) of channel i on the states[i] (n, d, d) at weights probs[i],
    for each i: one kernel call per block layout, values in input order.
    The weights and states pass the check a CqEnsemble makes
    (qcore.check_ensemble: weights >= 0 summing to 1 per row, states
    Hermitian and of unit trace). Their eigenvalue floor is not checked
    here: they are built in the program (lemma 3's pure states), not read
    from outside, and qcore checks the floor only where states enter."""
    probs = np.asarray(probs, dtype=np.float64)
    states = np.asarray(states, dtype=np.complex128)
    if probs.ndim != 2 or states.shape[:2] != probs.shape or len(channels) != len(probs):
        raise ValueError("need one weight row and one state stack per channel")
    if not len(channels):
        return np.empty(0)
    qcore.check_ensemble(probs, states)
    groups: dict[tuple, list[int]] = {}
    for i, ch in enumerate(channels):
        groups.setdefault(qch._layout(ch), []).append(i)
    values = np.empty(len(channels))
    for idx in groups.values():
        family = [channels[i] for i in idx]
        h_avg, h_cond, _ = _holevo(probs[idx], qch._apply_factors(family, states[idx]))
        values[idx] = h_avg - h_cond
    return values


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

# Eigenvalues are floored here inside a logarithm. Only null directions of
# an output fall below it, and the images K a vanish on those.
_EIG_FLOOR = 1e-20
_LBFGS_MEMORY = 8
_GTOL = 1e-10  # a start stops when no gradient entry exceeds this
_FTOL = 1e-13  # ... or when a step gains at most this, relative
_MAX_HALVINGS = 40


def _log2m(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, log2 m) of a stack of Hermitian matrices."""
    w, u = np.linalg.eigh(m)
    return w, (u * np.log2(np.maximum(w, _EIG_FLOOR))[..., None, :]) @ u.conj().swapaxes(-1, -2)


class _EnsembleObjective:
    """An objective over pure-state ensembles and its gradient, a batch of
    parameter vectors at a time.

    A parameter vector holds the real, then the imaginary parts of a
    din x din matrix A. Its columns a_x give the ensemble {p_x = |a_x|^2 / t,
    psi_x = a_x / |a_x|}, t = tr(A A^dag), of average input rho = A A^dag / t.

    The private value over pure ensembles is I_c(rho) = H(N(rho)) -
    H(N^c(rho)): a pure psi_x leaves N(psi_x) and N^c(psi_x) with the same
    nonzero spectrum, so the members' entropies cancel from I(X;B) - I(X;E).
    Its gradient in rho is G = N^c^dag(log2 N^c(rho)) - N^dag(log2 N(rho)),
    the log2(e) terms of dH cancelling because both maps preserve trace;
    in the parameters it is 2 (G - tr(G rho)) A / t, and tr(G rho) = I_c.
    The Holevo value toward Bob is chi = H(N(rho)) - sum_x p_x H(N(psi_x)),
    of gradient 2 [N^dag(log2 N(psi_x)) - N^dag(log2 N(rho)) - chi] a_x / t
    in column a_x.

    Every output comes block by block from the images K A, the Kraus blocks
    of one shape stacked, so ch.kraus is never read. Each row of a batch
    goes through the same operations as in a batch of one, so a start's
    path does not depend on which other starts are still running.
    """

    def __init__(self, ch: QuantumChannel, want_private: bool):
        self.din = ch.in_dim
        self.want_private = want_private
        shapes: dict[tuple, list] = {}
        for _, _, k in ch.blocks:
            shapes.setdefault(k.shape, []).append(k)
        self.stacks = [np.array(ks) for _, ks in sorted(shapes.items())]  # (G, ne, nr, din)
        self.adj = [k.reshape(-1, self.din).conj().T for k in self.stacks]

    def n_params(self) -> int:
        return 2 * self.din**2

    def matrices(self, theta: np.ndarray) -> np.ndarray:
        """The (B, din, din) matrices A of a (B, n_params) batch."""
        z = theta.reshape(len(theta), 2, self.din, self.din)
        return z[:, 0] + 1j * z[:, 1]

    def value(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objective of each row of a (B, n_params) batch, -1e3 where A = 0,
        and its (B, n_params) gradient, zero where A = 0."""
        n, d = len(theta), self.din
        t = np.sum(theta * theta, axis=1)
        ok = t > 0.0
        scale = np.sqrt(np.where(ok, t, 1.0))
        a = self.matrices(theta) / scale[:, None, None]  # tr(A A^dag) = 1
        # weights of the entropies subtracted: Eve's output once, or every
        # member's output at its probability
        p = np.ones((n, 1)) if self.want_private else np.sum((a.conj() * a).real, axis=1)
        inv = (1.0 / np.where(p > 0.0, p, 1.0))[:, :, None, None, None]
        avg_w, sub_w, ga = [], [], 0.0
        for k, adj in zip(self.stacks, self.adj):
            w = np.matmul(k.reshape(-1, d), a).reshape((n,) + k.shape)  # (B, G, ne, nr, x)
            _, g, ne, nr, _ = w.shape
            wb = w.transpose(0, 1, 3, 2, 4).reshape(n, g, nr, ne * d)
            ws = w.reshape(n, 1, g, ne, nr * d) if self.want_private else w.transpose(0, 4, 1, 3, 2)
            lam_b, log_b = _log2m(wb @ wb.conj().swapaxes(-1, -2))
            lam_s, log_s = _log2m((ws @ ws.conj().swapaxes(-1, -2)) * inv)
            avg_w.append(lam_b.reshape(n, -1))
            sub_w.append(lam_s.reshape(n, p.shape[1], -1))
            # the pull-backs K^dag (log2 out) K A, block by block
            v = log_s @ ws
            v = v.reshape(n, g, ne, nr, d) if self.want_private else v.transpose(0, 2, 4, 3, 1)
            v = v - (log_b @ wb).reshape(n, g, nr, ne, d).swapaxes(2, 3)
            ga = ga + np.matmul(adj, v.reshape(n, -1, d))
        val = qcore.spectrum_entropy(np.concatenate(avg_w, axis=1)) - np.sum(
            p * qcore.spectrum_entropy(np.concatenate(sub_w, axis=2)), axis=1
        )
        ga = (ga - val[:, None, None] * a) * (2 * ok / scale)[:, None, None]
        return np.where(ok, val, -1e3), np.concatenate([ga.real, ga.imag], axis=1).reshape(n, -1)


def _components(ch: QuantumChannel) -> list[tuple[np.ndarray, QuantumChannel]]:
    """The channel's blocks grouped by the input columns they read, as
    (columns, the channel of the group's blocks on those columns), groups
    in the order of their first column. A switch gives one group per flag
    value; a channel whose blocks all share columns is one group, itself."""
    groups: list[tuple[set, list]] = []  # (columns, block indices)
    for i, (_, _, k) in enumerate(ch.blocks):
        cols = set(np.flatnonzero(np.any(k != 0, axis=(0, 1))).tolist())
        meets = [grp for grp in groups if grp[0] & cols]
        groups = [grp for grp in groups if not grp[0] & cols]
        groups.append((cols.union(*(c for c, _ in meets)), sorted([i, *(j for _, b in meets for j in b)])))
    groups = [grp for grp in groups if grp[0]]  # an all-zero block adds to neither output
    if len(groups) == 1:
        return [(np.arange(ch.in_dim), ch)]
    out = []
    for cols, members in sorted(groups, key=lambda grp: min(grp[0])):
        cols, sub = np.array(sorted(cols)), [ch.blocks[i] for i in members]
        rows, env = (np.cumsum([0] + [len(b[axis]) for b in sub]) for axis in (0, 1))
        blocks = tuple((range(rows[j], rows[j + 1]), range(env[j], env[j + 1]), b[2][:, :, cols])
                       for j, b in enumerate(sub))
        out.append((cols, QuantumChannel((len(cols),), (int(rows[-1]),), (int(env[-1]),), blocks)))
    return out


class MinimizeResult(NamedTuple):
    """Per-start minimizers x (B, N) and minima fun (B,) of one batched
    search, and the objective evaluations nfev summed over the starts."""

    x: np.ndarray
    fun: np.ndarray
    nfev: int


def minimize(fun, x0s: np.ndarray, maxiter: int) -> MinimizeResult:
    """L-BFGS with Armijo backtracking from each row of x0s, all starts
    advancing in one batch.

    `fun` maps a (k, N) batch to its (k,) values and (k, N) gradients.
    Each iteration takes every live start's two-loop direction (-g / |g|
    without a curvature pair, or where it does not descend) and tries the
    step 1, halved until the value falls by 1e-4 of the decrease the slope
    predicts, one call of `fun` per trial on the starts still trying. A
    start stops when no gradient entry exceeds _GTOL, when a step gains at
    most _FTOL (1 + |value|), when _MAX_HALVINGS halvings find no descent,
    or after maxiter iterations. A start ends where it would end alone.
    _search calls this through the module attribute, where a tracer can
    wrap it.
    """
    x = np.array(x0s, dtype=float)
    f, g = fun(x)
    nfev = len(x)
    # curvature pairs, oldest first; r = 1 / (s . y), 0 in an empty slot,
    # which the two loops then leave alone
    s, y = np.zeros((2, len(x), _LBFGS_MEMORY, x.shape[1]))
    r = np.zeros((len(x), _LBFGS_MEMORY))
    live = np.flatnonzero(np.max(np.abs(g), axis=1) > _GTOL)
    for _ in range(maxiter):
        if not live.size:
            break
        gl, sl, yl, rl = g[live], s[live], y[live], r[live]
        q, alpha = gl.copy(), np.zeros(rl.shape)
        for i in reversed(range(_LBFGS_MEMORY)):
            alpha[:, i] = rl[:, i] * np.sum(sl[:, i] * q, axis=1)
            q -= alpha[:, i, None] * yl[:, i]
        yy = np.where(rl[:, -1] > 0.0, rl[:, -1] * np.sum(yl[:, -1] ** 2, axis=1), 0.0)
        q /= np.where(yy > 0.0, yy, np.sqrt(np.sum(gl * gl, axis=1)))[:, None]
        for i in range(_LBFGS_MEMORY):
            q += (alpha[:, i] - rl[:, i] * np.sum(yl[:, i] * q, axis=1))[:, None] * sl[:, i]
        d, slope = -q, -np.sum(q * gl, axis=1)
        up = ~(slope < 0.0)
        d[up] = -gl[up] / np.sqrt(np.sum(gl[up] ** 2, axis=1))[:, None]
        slope[up] = np.sum(d[up] * gl[up], axis=1)

        step = np.ones(len(live))
        x_new, f_new, g_new = x[live], f[live], gl.copy()
        moved = np.zeros(len(live), dtype=bool)
        trying = np.arange(len(live))
        for _ in range(_MAX_HALVINGS):
            xt = x[live[trying]] + step[trying, None] * d[trying]
            ft, gt = fun(xt)
            nfev += len(trying)
            ok = ft <= f[live[trying]] + 1e-4 * step[trying] * slope[trying]
            took = trying[ok]
            x_new[took], f_new[took], g_new[took], moved[took] = xt[ok], ft[ok], gt[ok], True
            trying = trying[~ok]
            if not trying.size:
                break
            step[trying] *= 0.5

        idx = live[moved]
        ds, dg = x_new[moved] - x[idx], g_new[moved] - g[idx]
        sy = np.sum(ds * dg, axis=1)
        keep = sy > 1e-12 * np.sqrt(np.sum(ds * ds, axis=1) * np.sum(dg * dg, axis=1))
        upd = idx[keep]
        s[upd] = np.concatenate([s[upd, 1:], ds[keep, None]], axis=1)
        y[upd] = np.concatenate([y[upd, 1:], dg[keep, None]], axis=1)
        r[upd] = np.concatenate([r[upd, 1:], 1.0 / sy[keep, None]], axis=1)
        gain = f[idx] - f_new[moved]
        x[idx], f[idx], g[idx] = x_new[moved], f_new[moved], g_new[moved]
        go = moved.copy()
        go[moved] = (gain > _FTOL * (1.0 + np.abs(f[idx]))) & (np.max(np.abs(g[idx]), axis=1) > _GTOL)
        live = live[go]
    return MinimizeResult(x, f, nfev)


def _ensemble(layout, a: np.ndarray) -> CqEnsemble:
    """The pure ensemble of the columns of a, less those of weight < 1e-12:
    the members |psi_x><psi_x| of the normalised columns psi_x, each of
    unit norm (qcore.check_unit_norm), from one product."""
    n_x = np.sum((a.conj() * a).real, axis=0)
    keep = [x for x in range(a.shape[1]) if n_x[x] / n_x.sum() >= 1e-12]
    total = sum(n_x[x] for x in keep)
    psi = (a[:, keep] / np.sqrt(n_x[keep])).T
    qcore.check_unit_norm(psi)
    states = psi[:, :, None] * psi[:, None, :].conj()
    return CqEnsemble(layout, [n_x[x] / total for x in keep], states)


def _starts(din: int, cfg: OptimizerConfig) -> np.ndarray:
    """The starts of a search: A = I (the computational basis), then start r
    a standard-normal draw from stream r of SeedSequence(cfg.seed)."""
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    eye = np.concatenate([np.eye(din).ravel(), np.zeros(din * din)])
    return np.stack([eye] + [np.random.default_rng(s).standard_normal(eye.size) for s in streams[1:]])


def _search(ch: QuantumChannel, cfg: OptimizerConfig, want_private: bool):
    """Best value and its ensemble over the search of each group (the
    private search) or of the whole channel (the Holevo search); ties keep
    the earlier group and start."""
    parts = _components(ch) if want_private else [(np.arange(ch.in_dim), ch)]
    dim = max(len(cols) for cols, _ in parts)
    if dim > MAX_BRUTE_DIM:
        raise ValueError(f"brute-force search capped at input dim {MAX_BRUTE_DIM}, got {dim}")
    best = None
    for cols, part in parts:
        obj = _EnsembleObjective(part, want_private)

        def negated(theta):
            val, grad = obj.value(theta)
            return -val, -grad

        res = minimize(negated, _starts(obj.din, cfg), cfg.iterations)
        i = int(np.argmin(res.fun))
        if best is None or -res.fun[i] > best[0]:
            best = (-float(res.fun[i]), cols, obj.matrices(res.x[i : i + 1])[0])
    val, cols, a = best
    lifted = np.zeros((ch.in_dim, len(cols)), dtype=complex)
    lifted[cols] = a
    return val, _ensemble(ch.in_layout, lifted)


def brute_force_p1(ch: QuantumChannel, cfg: OptimizerConfig = OptimizerConfig()):
    """Best private value found over pure-state ensembles (lower bound).

    Over pure-state ensembles the private value is the coherent information
    of the average input (see _EnsembleObjective), so this search maximises
    I_c and cannot show P1 > Q1. It runs once per group of _components, and
    that is exact. Let group g's blocks read the input columns C_g, which no
    other group reads, and P_g project on C_g. Its Kraus operators vanish
    off C_g, so its output and environment blocks depend on rho only through
    P_g rho P_g = q_g rho_g; the groups own disjoint output rows and Kraus
    indices, so N(rho) and N^c(rho) are the direct sums over g of
    q_g N_g(rho_g) and q_g N_g^c(rho_g), N_g the group's channel on C_g
    (trace preserving: its sum of K^dag K is P_g). A direct sum of
    q_g sigma_g has entropy H(q) + sum_g q_g H(sigma_g), so H(q) cancels and
    I_c(N, rho) = sum_g q_g I_c(N_g, rho_g). That mean is at most its largest
    term, which q pinned to one group attains: the channel's best value is
    the best group's, reached by its ensemble put back on its columns. For a
    switch the groups are the flag values (the flag is measured, and Bob and
    Eve both hold it). MAX_BRUTE_DIM caps the largest group's dimension."""
    return _search(ch, cfg, want_private=True)


def brute_force_c1(ch: QuantumChannel, cfg: OptimizerConfig = OptimizerConfig()):
    """Best Holevo value toward Bob found over pure-state ensembles (lower
    bound). The search does not split a switch: the flag value itself
    carries information to Bob."""
    return _search(ch, cfg, want_private=False)


# ---------------------------------------------------------------------------
# the multi-use witness


def witness_coherent_info(
    n: int, p, d: int, j: int, ensemble: str = "pauli"
) -> InfoResult:
    """Coherent information of the j-use interleaving input through j uses
    of main_channel(n, p, d), evaluated with the flags pinned.

    Use 1 selects the rocket bank (flag 0), uses 2..j the erasure branch
    (flag 1). Rocket k's first input carries half of a maximally entangled
    pair whose partner is kept as a reference (so it enters maximally
    mixed); its second input is maximally entangled with the erasure data
    register of use k+1. Only min(n, j-1) rockets can be paired; every
    remaining input is the fixed pure state |0>.

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

    rocket = qch.rocket_channel(d, ensemble)
    erasure = qch.erasure_channel(p, d)
    zero = qcore.basis_state(d, 0)
    groups = [
        # paired groups: (I/d on a1) x (Phi+ across a2 and the next use's data)
        (qch.tensor_channels(rocket, erasure),
         qcore.tensor(qcore.max_mixed(d), qcore.max_entangled(d)), m),
        # unpaired rockets, unpaired erasure data registers, and the pads
        # all carry fixed pure product inputs
        (rocket, qcore.tensor(zero, zero), n - m),
        (erasure, zero, (j - 1) - m),
        (qch.erasure_channel(1, pad_dim), qcore.basis_state(pad_dim, 0), j - 1),
    ]
    # pinned flags pass through the switch deterministically and contribute
    # zero entropy on both sides
    hb = he = resid = 0.0
    for ch, rho, count in groups:
        if count:
            res = coherent_information(ch, rho)
            hb += count * res.components["H(B)"]
            he += count * res.components["H(E)"]
            resid = max(resid, res.diagnostics["max_trace_residual"])

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
    """Subentropy of rho, in bits: spectrum_subentropy of its eigenvalues."""
    return spectrum_subentropy(np.linalg.eigvalsh(rho.matrix))


def spectrum_subentropy(w: np.ndarray) -> float:
    """Subentropy of a spectrum, in bits (Jozsa, Robb & Wootters, PRA 49, 668).

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
    rho is factored once (channels.rank_factors) as sum_j s_j a_j a_j^dag,
    so the outcome probabilities of sample U are <u_i|rho|u_i> =
    sum_j s_j |<a_j|u_i>|^2 over its columns u_i: one matrix product of
    the rank factor with every sample's columns, and one with the signs,
    per chunk of 50000 samples. For any unitary U the d probabilities sum
    to tr rho = sum_j s_j ||a_j||^2, so only the first d-1 columns are
    drawn to the end (qcore.haar_unitaries' `columns`), and the last
    outcome's probability is that trace minus the other d-1; at d = 1 it
    is the trace itself. The difference can dip below 0 by rounding,
    which spectrum_entropy clips.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    d = rho.dim
    a, sign = qch.rank_factors(rho.matrix)
    a_dag = a.conj().T
    trace = float(sign @ np.sum(a.real**2 + a.imag**2, axis=0))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ent = np.empty(samples)
    done = 0
    while done < samples:
        chunk = min(50000, samples - done)
        u = qcore.haar_unitaries(d, chunk, rng, columns=d - 1)
        # <a_j|u_i> for the first d-1 columns u_i of every sample, from one product
        x = a_dag @ u.transpose(1, 0, 2).reshape(d, -1)
        head = (sign @ (x.real**2 + x.imag**2)).reshape(chunk, d - 1)
        probs = np.concatenate([head, trace - np.sum(head, axis=1, keepdims=True)], axis=1)
        ent[done : done + chunk] = qcore.spectrum_entropy(probs)
        done += chunk
    mean = float(np.mean(ent))
    se = float(np.std(ent, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return mean, se
