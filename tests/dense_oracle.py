"""Dense oracles the tests check the program against: the whole j-use
witness input as one density matrix, and the tensor and subsystem-permutation
helpers that build it; the von Neumann entropy of one state; and one
Wishart-style random state per call. The program evaluates the witness
group by group (infoquant.witness_coherent_info) and never forms this
state; these helpers exist so that the factored route can be compared with
a full evaluation at tiny dimensions. The program takes entropies of
stacked spectra only and draws its Wishart states in one batch
(verify._gap_states); von_neumann_entropy and random_density are the
per-state references, and random_density keeps the seeded tests' draws."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qcap import qcore
from qcap.qcore import DensityOperator, SystemLayout, layout_of


def von_neumann_entropy(rho: DensityOperator) -> float:
    """H(rho) = -sum(lam log2 lam) in bits, eigenvalues clipped to [0, 1]."""
    w = np.linalg.eigvalsh(rho.matrix)
    if w[0] < -qcore.TOL_EIG:
        raise ValueError(f"minimum eigenvalue {w[0]:.3e} below -1e-9")
    return float(qcore.spectrum_entropy(w[None])[0])


def random_density(dims, rng: np.random.Generator, rank: int | None = None) -> DensityOperator:
    """Wishart-style random state: GG*/tr(GG*) with G of shape (d, rank)."""
    lay = layout_of(dims)
    d = lay.total
    if rank is None:
        rank = d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityOperator(lay, m, check_psd=False)


def tensor_all(*ops: DensityOperator) -> DensityOperator:
    out = ops[0]
    for op in ops[1:]:
        out = qcore.tensor(out, op)
    return out


def permute_systems(rho: DensityOperator, perm) -> DensityOperator:
    """Reorder subsystems: position i of the result holds subsystem perm[i]."""
    dims = rho.layout.dims
    n = len(dims)
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    a = rho.matrix.reshape(dims + dims)
    a = np.transpose(a, perm + tuple(p + n for p in perm))
    new_dims = tuple(dims[p] for p in perm)
    return DensityOperator(SystemLayout(new_dims), a.reshape(rho.dim, rho.dim), check_psd=False)


@dataclass(frozen=True)
class WitnessLayout:
    """Register documentation for the j-use witness input."""

    registers: tuple[tuple[str, int], ...]
    pinned_flags: tuple[int, ...]
    paired_rockets: int


def witness_state(n: int, d: int, j: int) -> tuple[DensityOperator, WitnessLayout]:
    """Channel-input reduction of the j-use interleaving state that
    infoquant.witness_coherent_info describes, as one dense matrix on the
    input registers of j uses of main_channel(n, p, d) (any p), in
    canonical order."""
    if j < 2 or n < 1 or d < 2:
        raise ValueError(f"witness needs j >= 2, n >= 1, d >= 2; got n={n} d={d} j={j}")
    pad_dim = d ** (2 * n - 1)
    total = (2 * d ** (2 * n)) ** j
    qcore.check_dim(total, "witness state")
    m = min(n, j - 1)

    names: list[str] = []
    factors: list[DensityOperator] = []

    def add(name_list, rho):
        names.extend(name_list)
        factors.append(rho)

    add(["use1.flag"], qcore.basis_state(2, 0))
    for k in range(1, n + 1):
        if k <= m:
            add([f"use1.rocket{k}.a1"], qcore.max_mixed(d))
            add([f"use1.rocket{k}.a2", f"use{k + 1}.data"], qcore.max_entangled(d))
        else:
            add([f"use1.rocket{k}.a1"], qcore.basis_state(d, 0))
            add([f"use1.rocket{k}.a2"], qcore.basis_state(d, 0))
    for u in range(2, j + 1):
        add([f"use{u}.flag"], qcore.basis_state(2, 1))
        if u - 1 > m:
            add([f"use{u}.data"], qcore.basis_state(d, 0))
        add([f"use{u}.pad"], qcore.basis_state(pad_dim, 0))

    rho = tensor_all(*factors)

    canonical = ["use1.flag"]
    for k in range(1, n + 1):
        canonical += [f"use1.rocket{k}.a1", f"use1.rocket{k}.a2"]
    for u in range(2, j + 1):
        canonical += [f"use{u}.flag", f"use{u}.data", f"use{u}.pad"]
    perm = [names.index(nm) for nm in canonical]
    rho = permute_systems(rho, perm)

    dims = dict(zip(canonical, rho.layout.dims))
    layout_doc = WitnessLayout(
        registers=tuple((nm, dims[nm]) for nm in canonical),
        pinned_flags=(0,) + (1,) * (j - 1),
        paired_rockets=m,
    )
    return rho, layout_doc
