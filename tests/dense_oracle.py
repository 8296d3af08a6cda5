"""Dense oracles the tests check the program against: the whole j-use
witness input as one density matrix, and the tensor and subsystem-permutation
helpers that build it. The program evaluates the witness group by group
(infoquant.witness_coherent_info) and never forms this state; these
helpers exist so that the factored route can be compared with a full
evaluation at tiny dimensions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qcap import qcore
from qcap.qcore import DensityOperator, SystemLayout


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
