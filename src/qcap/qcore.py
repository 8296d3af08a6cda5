"""Dense complex linear algebra over labeled multipartite systems.

States live on a SystemLayout (an ordered tuple of subsystem dimensions);
matrices are plain numpy complex128 arrays in row-major order. All entropies
are in bits.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

LOG2E = math.log2(math.e)

# Tolerances. Hermiticity and trace checks are tight; oracle-style
# comparisons elsewhere use 1e-9.
TOL_HERMITIAN = 1e-10
TOL_TRACE = 1e-10
TOL_EIG = 1e-9

DEFAULT_DIM_CAP = 2**13


class DimensionCapError(RuntimeError):
    """Raised when a construction would exceed the global dimension cap."""


class DimCapSettingError(RuntimeError):
    """Raised when QCAP_DIM_CAP is not an integer >= 2."""


def dim_cap() -> int:
    """Current global dimension cap (env override: QCAP_DIM_CAP)."""
    raw = os.environ.get("QCAP_DIM_CAP")
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 2:
        raise DimCapSettingError(f"QCAP_DIM_CAP must be an integer >= 2, got {raw!r}")
    return cap


def check_dim(total: int, what: str = "operator space") -> int:
    cap = dim_cap()
    if total > cap:
        raise DimensionCapError(f"{what} dimension {total} exceeds cap {cap}")
    return total


@dataclass(frozen=True)
class SystemLayout:
    """Ordered subsystem dimensions, with optional unique labels."""

    dims: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("layout needs at least one subsystem")
        if any(d < 1 for d in dims):
            raise ValueError(f"subsystem dimensions must be >= 1: {dims}")
        if self.labels is not None:
            labels = tuple(self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != len(dims):
                raise ValueError("labels must match dims in length")
            if len(set(labels)) != len(labels):
                raise ValueError("labels must be unique")

    @property
    def total(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out

    def __len__(self) -> int:
        return len(self.dims)

    def concat(self, other: "SystemLayout") -> "SystemLayout":
        labels = None
        if self.labels is not None and other.labels is not None:
            labels = self.labels + other.labels
        return SystemLayout(self.dims + other.dims, labels)


def layout_of(dims) -> SystemLayout:
    """Coerce an int, iterable of ints, or SystemLayout to a SystemLayout."""
    if isinstance(dims, SystemLayout):
        return dims
    if isinstance(dims, int):
        return SystemLayout((dims,))
    return SystemLayout(tuple(dims))


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class PureState:
    """Normalized state vector on a layout."""

    layout: SystemLayout
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "layout", layout_of(self.layout))
        v = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if v.size != self.layout.total:
            raise ValueError(
                f"amplitude count {v.size} does not match layout total {self.layout.total}"
            )
        n = float(np.linalg.norm(v))
        if abs(n - 1.0) > 1e-10:
            raise ValueError(f"norm deviates from 1 by {abs(n - 1.0):.3e}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    def to_density(self) -> "DensityOperator":
        v = self.amplitudes
        return DensityOperator(self.layout, np.outer(v, v.conj()), check_psd=False)


@dataclass(frozen=True)
class DensityOperator:
    """Positive unit-trace operator on a layout.

    check_psd=False skips the O(d^3) eigenvalue floor check for matrices
    that are positive by construction (channel outputs, tensor products);
    Hermiticity and trace are always verified.
    """

    layout: SystemLayout
    matrix: np.ndarray = field(repr=False)
    check_psd: bool = True

    def __post_init__(self):
        object.__setattr__(self, "layout", layout_of(self.layout))
        m = _as_matrix(self.matrix)
        if m.shape[0] != self.layout.total:
            raise ValueError(
                f"matrix dimension {m.shape[0]} does not match layout total {self.layout.total}"
            )
        herm = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
        if herm > TOL_HERMITIAN:
            raise ValueError(f"matrix is not Hermitian (deviation {herm:.3e})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TOL_TRACE:
            raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        if self.check_psd and m.shape[0] > 1:
            w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
            if w[0] < -TOL_EIG:
                raise ValueError(f"minimum eigenvalue {w[0]:.3e} below -1e-9")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.layout.total


def max_mixed(dims) -> DensityOperator:
    lay = layout_of(dims)
    d = lay.total
    return DensityOperator(lay, np.eye(d, dtype=np.complex128) / d, check_psd=False)


def basis_state(dims, index: int) -> PureState:
    lay = layout_of(dims)
    v = np.zeros(lay.total, dtype=np.complex128)
    v[index] = 1.0
    return PureState(lay, v)


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product; layout is the concatenation of the factors."""
    lay = a.layout.concat(b.layout)
    check_dim(lay.total, "tensor product")
    return DensityOperator(lay, np.kron(a.matrix, b.matrix), check_psd=False)


def tensor_all(*ops: DensityOperator) -> DensityOperator:
    out = ops[0]
    for op in ops[1:]:
        out = tensor(out, op)
    return out


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Trace out every subsystem not in `keep`; kept dims stay in order."""
    dims = rho.layout.dims
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise IndexError(f"keep indices {keep} out of range for {n} subsystems")
    if len(keep) == n:
        return rho
    a = rho.matrix.reshape(dims + dims)
    # contract row/column index pairs of each traced subsystem
    traced = [i for i in range(n) if i not in keep]
    for offset, i in enumerate(traced):
        ax = i - offset  # earlier traces shift the remaining axes left
        a = np.trace(a, axis1=ax, axis2=ax + (n - offset))
    kept_dims = tuple(dims[k] for k in keep)
    total = 1
    for d in kept_dims:
        total *= d
    labels = None
    if rho.layout.labels is not None:
        labels = tuple(rho.layout.labels[k] for k in keep)
    return DensityOperator(
        SystemLayout(kept_dims, labels), a.reshape(total, total), check_psd=False
    )


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
    labels = None
    if rho.layout.labels is not None:
        labels = tuple(rho.layout.labels[p] for p in perm)
    return DensityOperator(
        SystemLayout(new_dims, labels),
        a.reshape(rho.dim, rho.dim),
        check_psd=False,
    )


def spectrum_entropy(w):
    """-sum(lam log2 lam) in bits of a spectrum or probability vector,
    entries clipped to [0, 1].

    A 1-D input gives a float, summed over its positive entries only. A
    stack of shape (..., n) gives one entropy per row, as an array: the
    logs of the entries <= 0 are filled with zeros, so every row sums over
    all n entries. Below 8 entries per row the two forms agree bit for bit
    (numpy's pairwise sum adds fewer than 8 terms in order, and a zero term
    changes nothing); from 8 entries on, the zeros shift its partial sums.
    """
    lam = np.clip(w, 0.0, 1.0)
    if lam.ndim == 1:
        nz = lam[lam > 0.0]
        return float(-np.sum(nz * np.log2(nz)))
    logs = np.log2(lam, out=np.zeros_like(lam), where=lam > 0.0)
    return -np.sum(lam * logs, axis=-1)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """H(rho) = -sum(lam log2 lam) in bits, eigenvalues clipped to [0, 1]."""
    w = np.linalg.eigvalsh(rho.matrix)
    if w[0] < -TOL_EIG:
        raise ValueError(f"minimum eigenvalue {w[0]:.3e} below -1e-9")
    return spectrum_entropy(w)


def max_entangled(d: int) -> PureState:
    """|Phi+> = (1/sqrt(d)) sum_i |ii> on layout [d, d]."""
    if d < 2:
        raise ValueError(f"maximally entangled state needs d >= 2, got {d}")
    amp = np.zeros(d * d, dtype=np.complex128)
    for i in range(d):
        amp[i * d + i] = 1.0 / math.sqrt(d)
    return PureState(SystemLayout((d, d)), amp)


# ---------------------------------------------------------------------------
# seeded sampling helpers (Monte Carlo and optimizer restarts)


def haar_unitaries(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of `count` Haar-random d x d unitaries (QR with phase fix)."""
    g = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    q, r = np.linalg.qr(g)
    diag = np.einsum("sii->si", r)
    phase = diag / np.abs(diag)
    return q * phase[:, None, :]


def random_pure(dims, rng: np.random.Generator) -> PureState:
    lay = layout_of(dims)
    v = rng.standard_normal(lay.total) + 1j * rng.standard_normal(lay.total)
    return PureState(lay, v / np.linalg.norm(v))


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
