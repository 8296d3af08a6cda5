"""CPTP maps as direct sums of Kraus blocks, their canonical complements,
and the switched rocket/erasure constructions, plus a JSON channel-spec
format.

The switch flag and the rocket's announced label are classical registers
that Bob and Eve both see, so a channel is stored block by block: a block
(rows, env, kraus) holds the Kraus operators K_e, e in env, cut down to the
output rows they reach, as one (len(env), len(rows), in_dim) array. No two
blocks share an output row or a Kraus index, so every output is block
diagonal over the blocks' rows and every environment output over their
env indices, and nothing outside the blocks is stored. Erasure is two
blocks (data sent, flag raised), the rocket one block per announced label,
a switch its components' blocks shifted by the flag, and a tensor product
the pairwise Kronecker products of blocks. The canonical complement,
N_c(rho)[i,j] = Tr(K_i rho K_j^dag), is the same blocks with rows and env,
and the first two axes of kraus, swapped.

`apply` never forms K rho K^dag operator by operator. It factors the input
as rho = sum_j s_j a_j a_j^dag over its numerically nonzero eigenpairs
(s_j = +-1), so each block's output is one matrix product W diag(s) W^dag
of the images W = [K_k a_j] stacked side by side: the work scales with the
rank of the input and the size of the blocks, and both products run in
BLAS.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import as_fraction
from .qcore import DensityOperator, SystemLayout, check_dim, layout_of

TOL_CPTP = 1e-9


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
    """Kraus family with input/output/environment layouts, as blocks.

    Each block (rows, env, kraus) holds kraus[i, j, :] = K_env[i][rows[j], :],
    of shape (len(env), len(rows), in_dim); every entry of a Kraus operator
    outside its block's rows is zero. No two blocks share an output row or a
    Kraus index. env_layout describes the grouping of the Kraus index (the
    canonical environment). The channel keeps read-only copies of the blocks
    it is given, so its caller cannot change it afterwards. `kraus` is the
    dense (n_kraus, out_dim, in_dim) stack, built on first access.
    """

    in_layout: SystemLayout
    out_layout: SystemLayout
    env_layout: SystemLayout
    blocks: tuple = field(repr=False)
    spec: ChannelSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "in_layout", layout_of(self.in_layout))
        object.__setattr__(self, "out_layout", layout_of(self.out_layout))
        object.__setattr__(self, "env_layout", layout_of(self.env_layout))
        din = self.in_dim
        blocks = tuple(
            (
                np.array(rows, dtype=np.intp),
                np.array(env, dtype=np.intp),
                np.array(k, dtype=np.complex128, order="C"),
            )
            for rows, env, k in self.blocks
        )
        for rows, env, k in blocks:
            if rows.ndim != 1 or env.ndim != 1 or k.shape != (len(env), len(rows), din):
                raise ChannelSpecError(
                    f"kraus block of shape {k.shape} does not hold {env.size} operators "
                    f"on {rows.size} output rows and {din} inputs"
                )
            for a in (rows, env, k):
                a.setflags(write=False)
        flat = np.concatenate([k.reshape(-1, din) for _, _, k in blocks])
        if np.max(np.abs(flat.conj().T @ flat - np.eye(din))) > TOL_CPTP:
            raise ChannelSpecError("not trace preserving")
        for axis, total in ((0, self.out_dim), (1, self.n_kraus)):
            idx = np.concatenate([b[axis] for b in blocks]).tolist()
            if len(set(idx)) < len(idx) or min(idx) < 0 or max(idx) >= total:
                what = ("output rows", "kraus indices")[axis]
                raise ChannelSpecError(f"blocks need distinct {what} below {total}")
        object.__setattr__(self, "blocks", blocks)

    @cached_property
    def kraus(self) -> np.ndarray:
        """The dense, read-only (n_kraus, out_dim, in_dim) Kraus stack."""
        k = np.zeros((self.n_kraus, self.out_dim, self.in_dim), dtype=np.complex128)
        for rows, env, block in self.blocks:
            k[np.ix_(env, rows)] = block
        k.setflags(write=False)
        return k

    @property
    def n_kraus(self) -> int:
        return self.env_layout.total

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


# ---------------------------------------------------------------------------
# application and complement


def apply(ch: QuantumChannel, rho: DensityOperator) -> DensityOperator:
    """Sum_k K_k rho K_k^dag on the channel's output layout.

    rho = sum_j s_j a_j a_j^dag with a_j = sqrt|lam_j| v_j over the
    eigenpairs above the matrix_rank cut (|lam| > max|lam| * in_dim * eps)
    and s_j the sign of lam_j: the slightly negative eigenvalues that a
    DensityOperator admits keep their sign, so the output trace stays
    exact. In each block the images W[m, (k, j)] = (K_k a_j)[m] form one
    (len(rows), len(env) * rank) matrix, and W diag(s) W^dag fills the
    block's rows and columns of the output; every other entry is zero.
    """
    if rho.layout.total != ch.in_dim:
        raise ValueError(
            f"state dimension {rho.layout.total} does not match channel input {ch.in_dim}"
        )
    lam, vecs = np.linalg.eigh(rho.matrix)
    mag = np.abs(lam)
    keep = mag > mag.max() * ch.in_dim * np.finfo(np.float64).eps
    a = vecs[:, keep] * np.sqrt(mag[keep])
    sign = np.sign(lam[keep])
    out = np.zeros((ch.out_dim, ch.out_dim), dtype=np.complex128)
    for rows, _, k in ch.blocks:
        # one small GEMM per output row m over the strided view K[:, m, :]
        w = np.matmul(k.swapaxes(0, 1), a)  # (rows, env, rank)
        ws = w.conj()
        ws *= sign
        out[rows[:, None], rows] = w.reshape(len(rows), -1) @ ws.reshape(len(rows), -1).T
    return DensityOperator(ch.out_layout, out, check_psd=False)


def complementary(ch: QuantumChannel) -> QuantumChannel:
    """Canonical complement from V|psi> = sum_i K_i|psi> x |i>_E.

    The complement's Kraus operator for output row m collects the m-th rows
    of every K_i, so that N_c(rho)[i,j] = Tr(K_i rho K_j^dag). Each block
    (rows, env, kraus) therefore becomes (env, rows, kraus.swapaxes(0, 1)):
    its Kraus operators are the block's output rows, and its output rows
    the block's Kraus indices.
    """
    return QuantumChannel(
        in_layout=ch.in_layout,
        out_layout=ch.env_layout,
        env_layout=ch.out_layout,
        blocks=tuple((env, rows, k.swapaxes(0, 1)) for rows, env, k in ch.blocks),
    )


def tensor_channels(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """Pairwise Kronecker products of the Kraus families, block by block."""
    in_lay = a.in_layout.concat(b.in_layout)
    out_lay = a.out_layout.concat(b.out_layout)
    env_lay = a.env_layout.concat(b.env_layout)
    check_dim(in_lay.total, "tensor channel input")
    check_dim(out_lay.total, "tensor channel output")
    check_dim(env_lay.total, "tensor channel environment")
    blocks = []
    for ra, ea, ka in a.blocks:
        for rb, eb, kb in b.blocks:
            (na, oa, ia), (nb, ob, ib) = ka.shape, kb.shape
            k = np.einsum("iab,jcd->ijacbd", ka, kb).reshape(na * nb, oa * ob, ia * ib)
            rows = np.add.outer(ra * b.out_dim, rb).ravel()
            env = np.add.outer(ea * b.n_kraus, eb).ravel()
            blocks.append((rows, env, k))
    spec = None
    if a.spec is not None and b.spec is not None:
        spec = ChannelSpec(kind="tensor", factors=(a.spec, b.spec))
    return QuantumChannel(in_lay, out_lay, env_lay, tuple(blocks), spec)


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
    return QuantumChannel(
        SystemLayout((d,)),
        SystemLayout((d,)),
        SystemLayout((1,)),
        ((range(d), [0], np.eye(d)[None]),),
        ChannelSpec(kind="identity", d=d),
    )


def erasure_channel(p, d: int) -> QuantumChannel:
    """Erasure with flag: rho -> (1-p) rho (+) p |e><e|, output dim d+1.

    Kraus: sqrt(1-p) embed(I_d) plus sqrt(p)|e><i| for each basis i, as
    two blocks (data sent, flag raised); a block of exactly-zero operators
    (p = 0 or 1) is dropped.
    """
    p = as_fraction(p)
    if p < 0 or p > 1:
        raise ChannelSpecError(f"erasure probability must be in [0,1], got {p}")
    if d < 1:
        raise ChannelSpecError(f"erasure needs d >= 1, got {d}")
    check_dim(d + 1, "erasure output")
    pf = float(p)
    blocks = []
    if p != 1:
        blocks.append((range(d), [0], math.sqrt(1.0 - pf) * np.eye(d)[None]))
    if p != 0:
        first = len(blocks)
        blocks.append(([d], range(first, first + d), math.sqrt(pf) * np.eye(d)[:, None]))
    kind = "full_erasure" if p == 1 else "erasure"
    spec = ChannelSpec(kind=kind, p=None if p == 1 else p, d=d)
    n_kraus = (p != 1) + d * (p != 0)
    return QuantumChannel(
        SystemLayout((d,)), SystemLayout((d + 1,)), SystemLayout((n_kraus,)), tuple(blocks), spec
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

    Label r is one block: output rows (r, i) and Kraus indices (r, m) for
    the d outcomes m of the discarded register. The canonical complement
    gives the environment the discarded register together with the Kraus
    index, which contains r.
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
    scale = 1.0 / math.sqrt(nr)
    blocks = []
    for r, (u, v) in enumerate(pairs):
        wr = dephase @ np.kron(u, v)
        # operator m holds rows (i, j=m): the contents of A1 after projecting A2 on |m>
        labels = range(r * d, (r + 1) * d)
        blocks.append((labels, labels, scale * wr.reshape(d, d, d * d).swapaxes(0, 1)))
    return QuantumChannel(
        SystemLayout((d, d)),
        SystemLayout((nr, d)),
        SystemLayout((nr, d)),
        tuple(blocks),
        ChannelSpec(kind="rocket", d=d, ensemble=ensemble),
    )


def switch_channel(components) -> QuantumChannel:
    """Flag register measured in the standard basis, component applied,
    outputs embedded isometrically into the max-dimension output space with
    the flag kept as a classical register.

    Component c's blocks move to output rows c*dout + row and to the Kraus
    indices after those of the components before it, and read the input
    columns of flag value c."""
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
    blocks = []
    first = 0
    for i, c in enumerate(comps):
        for rows, env, k in c.blocks:
            wide = np.zeros(k.shape[:2] + (m * din,), dtype=np.complex128)
            wide[:, :, i * din : (i + 1) * din] = k
            blocks.append((rows + i * dout, env + first, wide))
        first += c.n_kraus
    spec = None
    if all(c.spec is not None for c in comps):
        spec = ChannelSpec(kind="switch", components=tuple(c.spec for c in comps))
    return QuantumChannel(
        SystemLayout((m, din)),
        SystemLayout((m, dout)),
        SystemLayout((first,)),
        tuple(blocks),
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
    return QuantumChannel(in_lay, sw.out_layout, sw.env_layout, sw.blocks, sw.spec)


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
            ((range(dout), range(len(mats)), np.stack(mats)),),
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
