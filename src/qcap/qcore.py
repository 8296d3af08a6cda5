"""Dense complex linear algebra over multipartite systems.

States live on a SystemLayout (an ordered tuple of subsystem dimensions);
matrices are plain numpy complex128 arrays in row-major order. All entropies
are in bits.

A state has one form, the DensityOperator; a pure state is its rank-one
case (pure_state). An ensemble has one form, the CqEnsemble's weights and
stacked states. The checks on both live here, beside their tolerances,
one function per concept: check_states (Hermitian, unit trace),
check_eigenvalue_floor, check_unit_norm and check_ensemble (the weights).
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
    """Ordered subsystem dimensions."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("layout needs at least one subsystem")
        if any(d < 1 for d in dims):
            raise ValueError(f"subsystem dimensions must be >= 1: {dims}")

    @property
    def total(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out

    def __len__(self) -> int:
        return len(self.dims)

    def concat(self, other: "SystemLayout") -> "SystemLayout":
        return SystemLayout(self.dims + other.dims)


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


def check_states(blocks, block: str = "output block", state: str = "output") -> None:
    """Raise ValueError unless the states held in `blocks`, one (..., m, s, s)
    stack per block, are Hermitian within TOL_HERMITIAN block by block and
    have block traces that sum to 1 within TOL_TRACE for each of the m
    states. A whole matrix is one block of one state. `block` and `state`
    name a block and a whole state in the messages."""
    herm = float(max((abs(b - b.conj().swapaxes(-1, -2)).max() for b in blocks), default=0.0))
    if herm > TOL_HERMITIAN:
        raise ValueError(f"{block} is not Hermitian (deviation {herm:.3e})")
    dev = float(np.max(np.abs(sum(b.trace(axis1=-2, axis2=-1) for b in blocks) - 1.0)))
    if dev > TOL_TRACE:
        raise ValueError(f"{state} trace deviates from 1 by {dev:.3e}")


def check_eigenvalue_floor(w) -> None:
    """Raise ValueError if a spectrum of the stack w (..., n), each in
    ascending order as eigvalsh returns it, dips below -TOL_EIG."""
    low = float(np.min(w[..., 0]))
    if low < -TOL_EIG:
        raise ValueError(f"minimum eigenvalue {low:.3e} below -1e-9")


def check_unit_norm(v) -> None:
    """Raise ValueError unless every vector along the last axis of v has
    norm 1 within 1e-10."""
    dev = float(np.max(np.abs(np.linalg.norm(v, axis=-1) - 1.0), initial=0.0))
    if dev > 1e-10:
        raise ValueError(f"norm deviates from 1 by {dev:.3e}")


def check_ensemble(probs: np.ndarray, states: np.ndarray) -> None:
    """Raise ValueError unless the (g, n) weights probs and the (g, n, d, d)
    states form g ensembles: every weight >= 0, each row summing to 1
    within 1e-9, and every state Hermitian and of unit trace
    (check_states). The eigenvalue floor is not checked here: states that
    enter from outside are DensityOperators, which check it."""
    if np.any(probs < 0):
        raise ValueError("ensemble probabilities must be nonnegative")
    dev = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    if dev > 1e-9:
        raise ValueError(f"ensemble probabilities miss a sum of 1 by {dev:.3e}")
    check_states([states], block="input state", state="input state")


@dataclass(frozen=True)
class DensityOperator:
    """Positive unit-trace operator on a layout: Hermitian and of unit trace
    (check_states), and with no eigenvalue below -TOL_EIG.

    check_psd=False skips the O(d^3) eigenvalue floor check for matrices
    that are positive by construction (channel outputs, tensor products,
    pure states); Hermiticity and trace are always verified.
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
        check_states([m], block="matrix", state="matrix")
        if self.check_psd and m.shape[0] > 1:
            check_eigenvalue_floor(np.linalg.eigvalsh((m + m.conj().T) / 2.0))
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.layout.total


@dataclass(frozen=True)
class CqEnsemble:
    """Classical-quantum ensemble on one layout: read-only weights probs
    (n,) and states (n, d, d), d the layout's total, checked by
    check_ensemble."""

    layout: SystemLayout
    probs: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "layout", layout_of(self.layout))
        probs = np.array(self.probs, dtype=np.float64)
        states = np.array(self.states, dtype=np.complex128)
        d = self.layout.total
        if probs.ndim != 1 or states.shape != (len(probs), d, d):
            raise ValueError(f"need one weight and one {d} x {d} state per member")
        check_ensemble(probs[None], states[None])
        for a in (probs, states):
            a.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)


def max_mixed(dims) -> DensityOperator:
    lay = layout_of(dims)
    d = lay.total
    return DensityOperator(lay, np.eye(d, dtype=np.complex128) / d, check_psd=False)


def pure_state(dims, v) -> DensityOperator:
    """|v><v| on a layout, for an amplitude vector v of the layout's total
    length and of unit norm (check_unit_norm)."""
    lay = layout_of(dims)
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != lay.total:
        raise ValueError(f"amplitude count {v.size} does not match layout total {lay.total}")
    check_unit_norm(v)
    return DensityOperator(lay, np.outer(v, v.conj()), check_psd=False)


def basis_state(dims, index: int) -> DensityOperator:
    lay = layout_of(dims)
    v = np.zeros(lay.total, dtype=np.complex128)
    v[index] = 1.0
    return pure_state(lay, v)


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product; layout is the concatenation of the factors."""
    lay = a.layout.concat(b.layout)
    check_dim(lay.total, "tensor product")
    return DensityOperator(lay, np.kron(a.matrix, b.matrix), check_psd=False)


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
    return DensityOperator(SystemLayout(kept_dims), a.reshape(total, total), check_psd=False)


def spectrum_entropy(w: np.ndarray) -> np.ndarray:
    """-sum(lam log2 lam) in bits of each spectrum or probability vector in
    a stack of shape (..., n), entries clipped to [0, 1], as an array of
    shape (...). The logs of the entries <= 0 are filled with zeros, so
    every row sums over all n entries; below 8 entries a row's sum is bit
    for bit the sum over its positive entries alone (numpy's pairwise sum
    adds fewer than 8 terms in order, and a zero term changes nothing).
    """
    lam = np.clip(w, 0.0, 1.0)
    logs = np.log2(lam, out=np.zeros_like(lam), where=lam > 0.0)
    return -np.sum(lam * logs, axis=-1)


def max_entangled(d: int) -> DensityOperator:
    """|Phi+> = (1/sqrt(d)) sum_i |ii> on layout [d, d]."""
    if d < 2:
        raise ValueError(f"maximally entangled state needs d >= 2, got {d}")
    amp = np.zeros(d * d, dtype=np.complex128)
    for i in range(d):
        amp[i * d + i] = 1.0 / math.sqrt(d)
    return pure_state(SystemLayout((d, d)), amp)


# ---------------------------------------------------------------------------
# seeded sampling helpers (Monte Carlo and optimizer restarts)


def haar_unitaries(
    d: int, count: int, rng: np.random.Generator, columns: int | None = None
) -> np.ndarray:
    """Stack of `count` Haar-random d x d unitaries, or their first
    `columns` columns, of shape (count, d, columns).

    Each is the Q factor of a complex Gaussian matrix G = QR whose R has a
    positive real diagonal (Mezzadri, Notices AMS 54, 592, 2007). That
    factor is unique, so this is LAPACK's QR with R's diagonal phases moved
    into Q, up to rounding. G's real parts, then its imaginary parts, are
    drawn as two (count, d, d) blocks into one buffer, and the columns
    asked for are written into the real and imaginary views of one complex
    array: bit for bit G = a + 1j*b, without that sum's temporaries.
    Gram-Schmidt computes Q over every sample at once in column steps:
    step j removes the finished columns' components from column j twice
    (once loses orthogonality in proportion to G's condition number; twice
    is enough, Giraud et al., Numer. Math. 101, 2005) and normalises it. Q
    is then unitary to a few ulp and as close to the exact factor as
    LAPACK's is. Step j reads only the columns before it, so the first k
    columns cost k steps and are bit for bit those of the full Q. All of G
    is drawn whatever `columns` is, so the generator's stream goes on alike.
    """
    cols = d if columns is None else columns
    buf = rng.standard_normal((count, d, d))
    g = np.empty((count, d, cols), dtype=np.complex128)
    g.real = buf[:, :, :cols]
    g.imag = rng.standard_normal(out=buf)[:, :, :cols]
    for j in range(cols):
        col, done = g[:, :, j], g[:, :, :j]
        for _ in range(2 if j else 0):
            col -= np.einsum("sak,sk->sa", done, np.einsum("sak,sa->sk", done.conj(), col))
        col /= np.linalg.norm(col, axis=1)[:, None]
    return g


def random_pure(dims, rng: np.random.Generator) -> DensityOperator:
    lay = layout_of(dims)
    v = rng.standard_normal(lay.total) + 1j * rng.standard_normal(lay.total)
    return pure_state(lay, v / np.linalg.norm(v))

