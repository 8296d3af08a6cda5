"""CPTP maps as Kraus families, their canonical complements, and the
switched rocket/erasure constructions, plus a JSON channel-spec format.

A channel is an immutable bundle of Kraus operators stacked into one
(n_kraus, out_dim, in_dim) array. The canonical complement is derived
directly from the Kraus family: N_c(rho)[i,j] = Tr(K_i rho K_j^dag). Its
stack is a read-only view of the channel's own, with the first two axes
swapped, so complementing copies no Kraus operator.

`apply` never forms K rho K^dag operator by operator. It factors the input
as rho = sum_j s_j a_j a_j^dag over its numerically nonzero eigenpairs
(s_j = +-1), so the output is one matrix product W diag(s) W^dag of the
images W = [K_k a_j] stacked side by side: the work scales with the rank
of the input, and both products run in BLAS. The complement's output
comes from the same kernel, since its Kraus operators are the rows of the
K_k.

The switch flag and the rocket's announced label are classical registers
that Bob and Eve both see, so the stacks built here are mostly zeros.
The trace-preservation check sums only over Kraus rows that are not all
zero, and from an output dimension of qcore.SPARSE_MIN_DIM on `apply`
multiplies only the nonzero rows and columns of W.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import as_fraction
from .qcore import (
    SPARSE_MIN_DIM,
    DensityOperator,
    SystemLayout,
    check_dim,
    layout_of,
)

TOL_CPTP = 1e-9
# Kraus entries (16 MiB) per block of whole Kraus operators in the
# trace-preservation check, whose temporaries are one block at most
_GRAM_BLOCK = 1 << 20


class ChannelSpecError(ValueError):
    """Malformed channel description (schema, CPTP, or parameter errors)."""


@dataclass(frozen=True)
class ChannelSpec:
    """Declarative channel tree; serializes to the JSON schema."""

    kind: str
    p: Fraction | None = None
    d: int | None = None
    ensemble: str | None = None
    components: tuple["ChannelSpec", ...] | None = None
    factors: tuple["ChannelSpec", ...] | None = None
    matrices: tuple | None = None  # raw kraus, tuple of ndarrays


@dataclass(frozen=True)
class QuantumChannel:
    """Kraus family with input/output/environment layouts.

    kraus has shape (n_kraus, out_dim, in_dim); env_layout describes the
    grouping of the Kraus index (the canonical environment). The channel
    keeps a read-only stack: an array its caller could still change (one
    that is writable, or a view of a writable array) is copied, and one
    handed over read-only is kept as it is, when its rows are contiguous
    and it owns its data or is a view of a read-only array that does (a
    complement's stack).
    """

    in_layout: SystemLayout
    out_layout: SystemLayout
    env_layout: SystemLayout
    kraus: np.ndarray = field(repr=False)
    spec: ChannelSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "in_layout", layout_of(self.in_layout))
        object.__setattr__(self, "out_layout", layout_of(self.out_layout))
        object.__setattr__(self, "env_layout", layout_of(self.env_layout))
        k = np.asarray(self.kraus, dtype=np.complex128)
        if k.ndim != 3:
            raise ChannelSpecError(f"kraus stack must be 3-d, got shape {k.shape}")
        nk, dout, din = k.shape
        if dout != self.out_layout.total or din != self.in_layout.total:
            raise ChannelSpecError(
                f"kraus shape {k.shape} inconsistent with layouts "
                f"(out {self.out_layout.total}, in {self.in_layout.total})"
            )
        if nk != self.env_layout.total:
            raise ChannelSpecError(
                f"{nk} kraus operators but env layout total {self.env_layout.total}"
            )
        owner = k if k.flags.owndata else k.base
        if (
            k.flags.writeable
            or not isinstance(owner, np.ndarray)
            or not owner.flags.owndata
            or owner.flags.writeable
            or k.strides[-1] != k.itemsize
        ):
            k = k.copy()
            k.setflags(write=False)
        # sum_k K_k^dag K_k over the rows that are not all zero, a block of
        # Kraus operators at a time, so a view is never copied whole. A row
        # counts as zero when its squared norm is: one whose entries all lie
        # below 1e-154 in size adds less than 1e-300 to the Gram.
        gram = np.zeros((din, din), dtype=np.complex128)
        step = max(1, _GRAM_BLOCK // (dout * din))
        for start in range(0, nk, step):
            block = k[start : start + step]
            re_im = block.view(np.float64)
            rows = block[np.einsum("kmi,kmi->km", re_im, re_im) != 0]
            gram += rows.conj().T @ rows
        if np.max(np.abs(gram - np.eye(din))) > TOL_CPTP:
            raise ChannelSpecError("not trace preserving")
        object.__setattr__(self, "kraus", k)

    @property
    def n_kraus(self) -> int:
        return self.kraus.shape[0]

    @property
    def in_dim(self) -> int:
        return self.in_layout.total

    @property
    def out_dim(self) -> int:
        return self.out_layout.total


@dataclass(frozen=True)
class CqEnsemble:
    """Classical-quantum ensemble: (probability, state) pairs on one layout."""

    items: tuple[tuple[float, DensityOperator], ...]

    def __post_init__(self):
        items = tuple((float(p), rho) for p, rho in self.items)
        object.__setattr__(self, "items", items)
        if not items:
            raise ValueError("ensemble needs at least one item")
        probs = [p for p, _ in items]
        if min(probs) < 0:
            raise ValueError("ensemble probabilities must be nonnegative")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError(f"ensemble probabilities sum to {sum(probs)!r}")
        dims0 = items[0][1].layout.dims
        for _, rho in items[1:]:
            if rho.layout.dims != dims0:
                raise ValueError("ensemble states must share one layout")

    @property
    def layout(self) -> SystemLayout:
        return self.items[0][1].layout


def _handover(k: np.ndarray) -> np.ndarray:
    """Mark a Kraus stack that its builder has just made read-only, so
    QuantumChannel keeps it instead of copying it."""
    k.setflags(write=False)
    return k


# ---------------------------------------------------------------------------
# application and complement


def apply(ch: QuantumChannel, rho: DensityOperator) -> DensityOperator:
    """Sum_k K_k rho K_k^dag on the channel's output layout.

    rho = sum_j s_j a_j a_j^dag with a_j = sqrt|lam_j| v_j over the
    eigenpairs above the matrix_rank cut (|lam| > max|lam| * in_dim * eps)
    and s_j the sign of lam_j: the slightly negative eigenvalues that a
    DensityOperator admits keep their sign, so the output trace stays
    exact. The images W[m, (k, j)] = (K_k a_j)[m] form one
    (out, n_kraus * rank) matrix and the output is W diag(s) W^dag. From
    an output dimension of qcore.SPARSE_MIN_DIM on, that product runs only
    over the rows and columns of W that are not all zero.
    """
    if rho.layout.total != ch.in_dim:
        raise ValueError(
            f"state dimension {rho.layout.total} does not match channel input {ch.in_dim}"
        )
    lam, vecs = np.linalg.eigh(rho.matrix)
    mag = np.abs(lam)
    keep = mag > mag.max() * ch.in_dim * np.finfo(np.float64).eps
    a = vecs[:, keep] * np.sqrt(mag[keep])
    # one small GEMM per output row m over the strided view K[:, m, :]
    w = np.matmul(ch.kraus.swapaxes(0, 1), a)  # (out, nk, rank)
    ws = w.conj()
    ws *= np.sign(lam[keep])
    w, ws = w.reshape(ch.out_dim, -1), ws.reshape(ch.out_dim, -1)
    if ch.out_dim < SPARSE_MIN_DIM:
        out = w @ ws.T
    else:
        # the product over the nonzero rows and columns of W only,
        # scattered into the zero output
        rows = np.flatnonzero(w.any(axis=1))
        sub = np.ix_(rows, np.flatnonzero(w.any(axis=0)))
        out = np.zeros((ch.out_dim, ch.out_dim), dtype=np.complex128)
        out[np.ix_(rows, rows)] = w[sub] @ ws[sub].T
    return DensityOperator(ch.out_layout, out, check_psd=False)


def complementary(ch: QuantumChannel) -> QuantumChannel:
    """Canonical complement from V|psi> = sum_i K_i|psi> x |i>_E.

    The complement's Kraus operator for output row m collects the m-th rows
    of every K_i, so that N_c(rho)[i,j] = Tr(K_i rho K_j^dag). Its stack is
    the read-only view ch.kraus.swapaxes(0, 1) of the channel's own stack,
    (out, nk, in) with kraus[m][i, :] = K_i[m, :]; nothing is copied.
    """
    return QuantumChannel(
        in_layout=ch.in_layout,
        out_layout=ch.env_layout,
        env_layout=ch.out_layout,
        kraus=ch.kraus.swapaxes(0, 1),
    )


def tensor_channels(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """Pairwise Kronecker products of the Kraus families."""
    in_lay = a.in_layout.concat(b.in_layout)
    out_lay = a.out_layout.concat(b.out_layout)
    env_lay = a.env_layout.concat(b.env_layout)
    check_dim(in_lay.total, "tensor channel input")
    check_dim(out_lay.total, "tensor channel output")
    check_dim(env_lay.total, "tensor channel environment")
    (na, oa, ia), (nb, ob, ib) = a.kraus.shape, b.kraus.shape
    kraus = np.empty((na * nb, oa * ob, ia * ib), dtype=np.complex128)
    # written in place through a 6-d view, so the stack owns its data
    np.einsum("iab,jcd->ijacbd", a.kraus, b.kraus, out=kraus.reshape(na, nb, oa, ob, ia, ib))
    spec = None
    if a.spec is not None and b.spec is not None:
        spec = ChannelSpec(kind="tensor", factors=(a.spec, b.spec))
    return QuantumChannel(in_lay, out_lay, env_lay, _handover(kraus), spec)


def tensor_power(ch: QuantumChannel, n: int) -> QuantumChannel:
    out = ch
    for _ in range(n - 1):
        out = tensor_channels(out, ch)
    return out


# ---------------------------------------------------------------------------
# constructors


def identity_channel(d: int) -> QuantumChannel:
    if d < 1:
        raise ChannelSpecError(f"identity needs d >= 1, got {d}")
    check_dim(d, "identity")
    k = np.eye(d, dtype=np.complex128)[None, :, :]
    return QuantumChannel(
        SystemLayout((d,)),
        SystemLayout((d,)),
        SystemLayout((1,)),
        k,
        ChannelSpec(kind="identity", d=d),
    )


def erasure_channel(p, d: int) -> QuantumChannel:
    """Erasure with flag: rho -> (1-p) rho (+) p |e><e|, output dim d+1.

    Kraus: sqrt(1-p) embed(I_d) plus sqrt(p)|e><i| for each basis i;
    exactly-zero operators (p = 0 or 1) are dropped.
    """
    p = as_fraction(p)
    if p < 0 or p > 1:
        raise ChannelSpecError(f"erasure probability must be in [0,1], got {p}")
    if d < 1:
        raise ChannelSpecError(f"erasure needs d >= 1, got {d}")
    check_dim(d + 1, "erasure output")
    pf = float(p)
    ops = []
    if p != 1:
        k0 = np.zeros((d + 1, d), dtype=np.complex128)
        k0[:d, :] = math.sqrt(1.0 - pf) * np.eye(d)
        ops.append(k0)
    if p != 0:
        for i in range(d):
            k = np.zeros((d + 1, d), dtype=np.complex128)
            k[d, i] = math.sqrt(pf)
            ops.append(k)
    kind = "full_erasure" if p == 1 else "erasure"
    spec = ChannelSpec(kind=kind, p=None if p == 1 else p, d=d)
    return QuantumChannel(
        SystemLayout((d,)),
        SystemLayout((d + 1,)),
        SystemLayout((len(ops),)),
        _handover(np.stack(ops)),
        spec,
    )


def padded_erasure(n: int, p, d: int) -> QuantumChannel:
    """erasure(p, d) on the data register, full erasure on a d^(2n-1) pad."""
    if n < 1 or d < 2:
        raise ChannelSpecError(f"padded erasure needs n >= 1, d >= 2, got n={n} d={d}")
    pad_dim = d ** (2 * n - 1)
    check_dim(d * pad_dim, "padded erasure input")
    return tensor_channels(erasure_channel(p, d), erasure_channel(1, pad_dim))


def _pauli_x(d: int) -> np.ndarray:
    x = np.zeros((d, d), dtype=np.complex128)
    for i in range(d):
        x[(i + 1) % d, i] = 1.0
    return x


def _pauli_z(d: int) -> np.ndarray:
    w = cmath.exp(2j * math.pi / d)
    return np.diag(np.array([w**i for i in range(d)], dtype=np.complex128))


def unitary_pair_ensemble(d: int, kind: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """Named unitary-pair families for the rocket: "pauli" (d^4 pairs of
    generalized Paulis X^a Z^b) or "identity" (the singleton (I, I))."""
    if kind == "identity":
        eye = np.eye(d, dtype=np.complex128)
        return [(eye, eye)]
    if kind == "pauli":
        x, z = _pauli_x(d), _pauli_z(d)
        singles = [
            np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
            for a in range(d)
            for b in range(d)
        ]
        return [(u, v) for u in singles for v in singles]
    raise ChannelSpecError(f"unknown rocket ensemble kind {kind!r}")


def rocket_channel(d: int, ensemble: str = "pauli") -> QuantumChannel:
    """Two d-dimensional inputs; dephasing P = sum w^(ij)|i><i|x|j><j| after a
    uniformly drawn unitary pair (U_r, V_r); the second register is discarded
    and the label r is handed to Bob as a classical output register.

    The canonical complement gives the environment the discarded register
    together with the Kraus index, which contains r.
    """
    if d < 2:
        raise ChannelSpecError(f"rocket needs d >= 2, got {d}")
    check_dim(d * d, "rocket input")
    if ensemble == "pauli":  # d^4 pairs: check the output before building them
        check_dim(d**5, "rocket output")
    pairs = unitary_pair_ensemble(d, ensemble)
    nr = len(pairs)
    w = cmath.exp(2j * math.pi / d)
    dephase = np.diag(
        np.array([w ** (i * j) for i in range(d) for j in range(d)], dtype=np.complex128)
    )
    kraus = np.zeros((nr * d, nr * d, d * d), dtype=np.complex128)
    scale = 1.0 / math.sqrt(nr)
    for r, (u, v) in enumerate(pairs):
        wr = dephase @ np.kron(u, v)
        for m in range(d):
            block = wr[m::d, :]  # rows (i, j=m): contents of A1 after projecting A2 on |m>
            k = kraus[r * d + m]
            k[r * d : (r + 1) * d, :] = scale * block
    return QuantumChannel(
        SystemLayout((d, d)),
        SystemLayout((nr, d)),
        SystemLayout((nr, d)),
        _handover(kraus),
        ChannelSpec(kind="rocket", d=d, ensemble=ensemble),
    )


def switch_channel(components) -> QuantumChannel:
    """Flag register measured in the standard basis, component applied,
    outputs embedded isometrically into the max-dimension output space with
    the flag kept as a classical register."""
    comps = list(components)
    if len(comps) < 2:
        raise ChannelSpecError("switch needs at least 2 components")
    din = comps[0].in_dim
    for c in comps[1:]:
        if c.in_dim != din:
            raise ChannelSpecError(
                f"switch components disagree on input dim: {[c.in_dim for c in comps]}"
            )
    m = len(comps)
    dout = max(c.out_dim for c in comps)
    check_dim(m * din, "switch input")
    check_dim(m * dout, "switch output")
    n_total = sum(c.n_kraus for c in comps)
    kraus = np.zeros((n_total, m * dout, m * din), dtype=np.complex128)
    idx = 0
    for i, c in enumerate(comps):
        rows = slice(i * dout, i * dout + c.out_dim)
        cols = slice(i * din, (i + 1) * din)
        for k in c.kraus:
            kraus[idx][rows, cols] = k
            idx += 1
    spec = None
    if all(c.spec is not None for c in comps):
        spec = ChannelSpec(kind="switch", components=tuple(c.spec for c in comps))
    return QuantumChannel(
        SystemLayout((m, din)),
        SystemLayout((m, dout)),
        SystemLayout((n_total,)),
        _handover(kraus),
        spec,
    )


def main_channel(n: int, p, d: int, ensemble: str = "pauli") -> QuantumChannel:
    """Switch between n rockets and a padded erasure, 2-dimensional flag.

    Input layout [2] + [d]*2n: the data registers read as n rocket input
    pairs, or equivalently as the erasure data register plus the pad.
    """
    if n < 1 or d < 2:
        raise ChannelSpecError(f"main channel needs n >= 1, d >= 2, got n={n} d={d}")
    rockets = tensor_power(rocket_channel(d, ensemble), n)
    sw = switch_channel([rockets, padded_erasure(n, p, d)])
    in_lay = SystemLayout((2,) + (d,) * (2 * n))
    return QuantumChannel(in_lay, sw.out_layout, sw.env_layout, sw.kraus, sw.spec)


# ---------------------------------------------------------------------------
# JSON schema


def _complex_to_json(z: complex) -> list:
    return [z.real, z.imag]


def _matrix_to_json(m: np.ndarray) -> list:
    return [[_complex_to_json(complex(x)) for x in row] for row in m]


def _matrix_from_json(obj) -> np.ndarray:
    try:
        rows = [[complex(e[0], e[1]) for e in row] for row in obj]
        m = np.array(rows, dtype=np.complex128)
    except (TypeError, IndexError, KeyError, ValueError, OverflowError) as exc:
        raise ChannelSpecError(f"bad matrix entry: {exc}") from None
    if m.ndim != 2 or m.size == 0:
        raise ChannelSpecError("matrix must be a nonempty list of equal-length rows")
    if not np.isfinite(m).all():
        raise ChannelSpecError("matrix entries must be finite")
    return m


def spec_to_json(spec: ChannelSpec) -> dict:
    if spec.kind == "erasure":
        return {"kind": "erasure", "p": str(spec.p), "d": spec.d}
    if spec.kind == "full_erasure":
        return {"kind": "full_erasure", "d": spec.d}
    if spec.kind == "rocket":
        return {"kind": "rocket", "d": spec.d, "ensemble": spec.ensemble}
    if spec.kind == "identity":
        return {"kind": "identity", "d": spec.d}
    if spec.kind == "switch":
        return {"kind": "switch", "components": [spec_to_json(s) for s in spec.components]}
    if spec.kind == "tensor":
        return {"kind": "tensor", "factors": [spec_to_json(s) for s in spec.factors]}
    if spec.kind == "kraus":
        return {"kind": "kraus", "matrices": [_matrix_to_json(m) for m in spec.matrices]}
    raise ChannelSpecError(f"unknown spec kind {spec.kind!r}")


def _dim_from_json(value) -> int:
    """A dimension field: a number or string that reads as an integer."""
    d = as_fraction(value)
    if d.denominator != 1:
        raise ChannelSpecError(f"dimension must be an integer, got {value!r}")
    return int(d)


def json_to_spec(obj) -> ChannelSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ChannelSpecError("channel spec must be an object with a \"kind\" field")
    kind = obj["kind"]
    try:
        if kind == "erasure":
            return ChannelSpec(kind="erasure", p=as_fraction(obj["p"]), d=_dim_from_json(obj["d"]))
        if kind == "full_erasure":
            return ChannelSpec(kind="full_erasure", d=_dim_from_json(obj["d"]))
        if kind == "rocket":
            return ChannelSpec(
                kind="rocket",
                d=_dim_from_json(obj["d"]),
                ensemble=str(obj.get("ensemble", "pauli")),
            )
        if kind == "identity":
            return ChannelSpec(kind="identity", d=_dim_from_json(obj["d"]))
        if kind == "switch":
            return ChannelSpec(
                kind="switch", components=tuple(json_to_spec(s) for s in obj["components"])
            )
        if kind == "tensor":
            factors = tuple(json_to_spec(s) for s in obj["factors"])
            if not factors:
                raise ChannelSpecError("tensor needs at least one factor")
            return ChannelSpec(kind="tensor", factors=factors)
        if kind == "kraus":
            mats = tuple(_matrix_from_json(m) for m in obj["matrices"])
            return ChannelSpec(kind="kraus", matrices=mats)
    except KeyError as exc:
        raise ChannelSpecError(f"channel spec {kind!r} missing field {exc}") from None
    except ChannelSpecError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ChannelSpecError(f"bad channel spec {kind!r}: {exc}") from None
    raise ChannelSpecError(f"unknown channel kind {kind!r}")


def spec_to_channel(spec: ChannelSpec) -> QuantumChannel:
    if spec.kind == "erasure":
        return erasure_channel(spec.p, spec.d)
    if spec.kind == "full_erasure":
        return erasure_channel(1, spec.d)
    if spec.kind == "rocket":
        return rocket_channel(spec.d, spec.ensemble)
    if spec.kind == "identity":
        return identity_channel(spec.d)
    if spec.kind == "switch":
        return switch_channel([spec_to_channel(s) for s in spec.components])
    if spec.kind == "tensor":
        ch = spec_to_channel(spec.factors[0])
        for s in spec.factors[1:]:
            ch = tensor_channels(ch, spec_to_channel(s))
        return ch
    if spec.kind == "kraus":
        mats = [np.asarray(m, dtype=np.complex128) for m in spec.matrices]
        if not mats:
            raise ChannelSpecError("kraus spec needs at least one matrix")
        dout, din = mats[0].shape
        if any(m.shape != (dout, din) for m in mats):
            raise ChannelSpecError("kraus matrices must share one shape")
        check_dim(max(dout, din), "kraus channel")
        return QuantumChannel(
            SystemLayout((din,)),
            SystemLayout((dout,)),
            SystemLayout((len(mats),)),
            _handover(np.stack(mats)),
            spec,
        )
    raise ChannelSpecError(f"unknown spec kind {spec.kind!r}")


def serialize_channel_spec(ch: QuantumChannel | ChannelSpec) -> str:
    """JSON text for a channel; falls back to a raw Kraus dump when the
    channel carries no declarative spec."""
    if isinstance(ch, ChannelSpec):
        spec = ch
    elif ch.spec is not None:
        spec = ch.spec
    else:
        spec = ChannelSpec(kind="kraus", matrices=tuple(np.asarray(k) for k in ch.kraus))
    return json.dumps(spec_to_json(spec), separators=(",", ":"))
