"""CPTP maps as direct sums of Kraus blocks, their canonical complements,
and the switched rocket/erasure constructions, plus a JSON channel-spec
format: a channel's spec is its canonical JSON object, which the
constructors store in QuantumChannel.spec, spec_to_channel checks and builds
from in one pass, and serialize_channel_spec dumps.

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

One kernel, _apply_factors, applies a family of g channels that share one
block layout (rows, env indices and Kraus block shapes) to m states each,
and never forms K rho K^dag operator by operator. It factors every state
(rank_factors: one batched eigh) as rho = sum_j s_j a_j a_j^dag over its
numerically nonzero eigenpairs (s_j = +-1), so each block's output is
W diag(s) W^dag of the images W = [K_k a_j] stacked side by side: one
matmul call per block forms the images of every state under the stacked
Kraus blocks, and one product every state's block. The work scales with
the rank of the inputs and the size of the blocks, and both products run
in BLAS. A channel output has one form, the kernel's: one read-only
(g, m, s, s) stack per block, in block order, checked as a DensityOperator
would be (qcore.check_states). `apply` is the family of one channel on one
state, infoquant's Holevo quantities the family of one channel on an
ensemble's states, and verify's lemma3 makes one call per layout for all
its sampled channels (infoquant.holevo_bob_family). The dense
out_dim x out_dim matrix is never formed.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import as_fraction
from .qcore import DensityOperator, SystemLayout, check_dim, check_states, layout_of

TOL_CPTP = 1e-9


class ChannelSpecError(ValueError):
    """Malformed channel description (schema, CPTP, or parameter errors)."""


@dataclass(frozen=True)
class QuantumChannel:
    """Kraus family with input/output/environment layouts, as blocks.

    Each block (rows, env, kraus) holds kraus[i, j, :] = K_env[i][rows[j], :],
    of shape (len(env), len(rows), in_dim); every entry of a Kraus operator
    outside its block's rows is zero. No two blocks share an output row or a
    Kraus index. env_layout describes the grouping of the Kraus index (the
    canonical environment). The channel keeps read-only copies of the blocks
    it is given, so its caller cannot change it afterwards, and records in
    _tp_dev the deviation of sum_k K_k^dag K_k from I that its check
    measured (a bound on it for a product, see tensor_channels). `kraus` is the
    dense (n_kraus, out_dim, in_dim) stack, built on first access. `spec`
    is the canonical JSON object, or None (a complement, for instance).
    """

    in_layout: SystemLayout
    out_layout: SystemLayout
    env_layout: SystemLayout
    blocks: tuple = field(repr=False)
    spec: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "in_layout", layout_of(self.in_layout))
        object.__setattr__(self, "out_layout", layout_of(self.out_layout))
        object.__setattr__(self, "env_layout", layout_of(self.env_layout))
        if isinstance(self.blocks, _ProductBlocks):
            dev = self.blocks.tp_dev
            if dev > TOL_CPTP:
                raise ChannelSpecError("not trace preserving")
            object.__setattr__(self, "blocks", tuple(self.blocks))
            object.__setattr__(self, "_tp_dev", dev)
            return
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
        dev = float(np.max(np.abs(flat.conj().T @ flat - np.eye(din))))
        if dev > TOL_CPTP:
            raise ChannelSpecError("not trace preserving")
        for axis, total in ((0, self.out_dim), (1, self.n_kraus)):
            idx = np.concatenate([b[axis] for b in blocks]).tolist()
            if len(set(idx)) < len(idx) or min(idx) < 0 or max(idx) >= total:
                what = ("output rows", "kraus indices")[axis]
                raise ChannelSpecError(f"blocks need distinct {what} below {total}")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_tp_dev", dev)

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


# ---------------------------------------------------------------------------
# application and complement


def rank_factors(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors (a, s) of a Hermitian (d, d) matrix, or of each matrix of a
    (..., d, d) stack of them, with mats[..., :, :] = a diag(s) a^dag.

    The columns of a are sqrt|lam_j| v_j over the eigenpairs above the
    matrix_rank cut (|lam| > max|lam| * d * eps), in ascending order, and
    s_j the sign of lam_j: the slightly negative eigenvalues that a
    DensityOperator admits keep their sign, so traces stay exact. One
    batched eigh factors a whole stack; a member of lower rank than the
    stack's is padded with zero columns of sign 0.
    """
    lam, vecs = np.linalg.eigh(mats)
    mag = np.abs(lam)
    keep = mag > mag.max(axis=-1, keepdims=True) * mats.shape[-1] * np.finfo(np.float64).eps
    cols = keep.reshape(-1, keep.shape[-1]).any(axis=0)  # the pairs some member keeps
    lam = np.where(keep, lam, 0.0)[..., cols]
    return vecs[..., cols] * np.sqrt(np.abs(lam))[..., None, :], np.sign(lam)


def _layout(ch: QuantumChannel) -> tuple:
    """The block layout of ch: its blocks' rows, env indices and Kraus
    shapes, as a hashable key."""
    return tuple((rows.tobytes(), env.tobytes(), k.shape) for rows, env, k in ch.blocks)


def _apply_factors(family, mats: np.ndarray) -> list[np.ndarray]:
    """The outputs of a family of g channels of one block layout (else
    ValueError), channel i on the states mats[i] of a (g, m, in_dim, in_dim)
    stack, as one read-only (g, m, len(rows), len(rows)) stack per block, in
    block order, checked by qcore.check_states.

    With every state factored by rank_factors into a diag(s) a^dag, the
    images W[r, (k, j)] = (K_k a_j)[r] come from one matmul call per block
    over the family's stacked Kraus blocks (a family of one is not copied),
    and W diag(s) W^dag, every state's block, from one batched product.
    """
    ch = family[0]
    if mats.shape[-1] != ch.in_dim:
        raise ValueError(
            f"state dimension {mats.shape[-1]} does not match channel input {ch.in_dim}"
        )
    if len(family) > 1 and len({_layout(c) for c in family}) > 1:
        raise ValueError("the channels of a family must share one block layout")
    a, sign = rank_factors(mats)
    g, m = a.shape[:2]
    a, sign = a[:, :, None], sign[:, :, None, None, :]
    out = []
    for i, (rows, _, k) in enumerate(ch.blocks):
        if len(family) > 1:
            k = np.stack([c.blocks[i][2] for c in family])[:, None]
        # one small GEMM per state and output row over the strided view K[:, row, :]
        w = np.matmul(k.swapaxes(-3, -2), a)  # (g, m, rows, env, rank)
        ws = w.conj()
        ws *= sign
        n = len(rows)
        block = w.reshape(g, m, n, -1) @ ws.reshape(g, m, n, -1).swapaxes(-1, -2)
        block.setflags(write=False)
        out.append(block)
    check_states(out)
    return out


def apply(ch: QuantumChannel, rho: DensityOperator) -> list[np.ndarray]:
    """Sum_k K_k rho K_k^dag, block diagonal over the rows of ch's blocks:
    the kernel _apply_factors on one channel and one state, so one
    read-only (1, len(rows), len(rows)) stack per block of ch."""
    return [b[0] for b in _apply_factors([ch], rho.matrix[None, None])]


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


class _ProductBlocks(tuple):
    """Read-only blocks that tensor_channels built, with a bound tp_dev on
    their deviation from trace preservation: QuantumChannel takes them as
    they are, without the copy, the CPTP product or the index scan."""

    tp_dev: float


def tensor_channels(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """Pairwise Kronecker products of the Kraus families, block by block.

    The product is not checked again. Its rows ra * out_b + rb and Kraus
    indices ea * n_kraus_b + eb are distinct, since the factors' are. With
    A^dag A = I + E_a and B^dag B = I + E_b, the product's is
    I + E_a x I + I x E_b + E_a x E_b, so its deviation from I is at most
    da + db + da db. The pad 4 eps (ma + mb + ma mb + 8), with ma, mb the
    factors' stacked Kraus rows, covers the rounding of the three Gram
    products and of the Kronecker entries: the product is refused whenever
    a full check of its blocks would refuse it."""
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
            k = np.einsum("iab,jcd->ijacbd", ka, kb, order="C").reshape(na * nb, oa * ob, ia * ib)
            rows = np.add.outer(ra * b.out_dim, rb).ravel()
            env = np.add.outer(ea * b.n_kraus, eb).ravel()
            for x in (rows, env, k):
                x.setflags(write=False)
            blocks.append((rows, env, k))
    blocks = _ProductBlocks(blocks)
    ma, mb = (sum(k.shape[0] * k.shape[1] for _, _, k in c.blocks) for c in (a, b))
    da, db = a._tp_dev, b._tp_dev
    blocks.tp_dev = da + db + da * db + 4 * np.finfo(np.float64).eps * (ma + mb + ma * mb + 8)
    spec = None
    if a.spec is not None and b.spec is not None:
        spec = {"kind": "tensor", "factors": [a.spec, b.spec]}
    return QuantumChannel(in_lay, out_lay, env_lay, blocks, spec)


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
        {"kind": "identity", "d": d},
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
    if p == 1:
        spec = {"kind": "full_erasure", "d": d}
    else:
        spec = {"kind": "erasure", "p": str(p), "d": d}
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
        {"kind": "rocket", "d": d, "ensemble": ensemble},
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
        spec = {"kind": "switch", "components": [c.spec for c in comps]}
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


def _dim_from_json(value) -> int:
    """A dimension field: a number or string that reads as an integer."""
    d = as_fraction(value)
    if d.denominator != 1:
        raise ChannelSpecError(f"dimension must be an integer, got {value!r}")
    return int(d)


def spec_to_channel(obj) -> QuantumChannel:
    """Check a decoded JSON channel object and build the channel in one
    pass, so the first fault in document order is the one raised. Plain
    loops keep nesting at one frame per level, below the JSON decoder's."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ChannelSpecError("channel spec must be an object with a \"kind\" field")
    kind = obj["kind"]
    try:
        if kind == "erasure":
            return erasure_channel(as_fraction(obj["p"]), _dim_from_json(obj["d"]))
        if kind == "full_erasure":
            return erasure_channel(1, _dim_from_json(obj["d"]))
        if kind == "rocket":
            return rocket_channel(_dim_from_json(obj["d"]), str(obj.get("ensemble", "pauli")))
        if kind == "identity":
            return identity_channel(_dim_from_json(obj["d"]))
        if kind == "switch":
            comps = []
            for s in obj["components"]:
                comps.append(spec_to_channel(s))
            return switch_channel(comps)
        if kind == "tensor":
            ch = None
            for s in obj["factors"]:
                factor = spec_to_channel(s)
                ch = factor if ch is None else tensor_channels(ch, factor)
            if ch is None:
                raise ChannelSpecError("tensor needs at least one factor")
            return ch
        if kind == "kraus":
            mats = [_matrix_from_json(m) for m in obj["matrices"]]
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
                {"kind": "kraus", "matrices": [_matrix_to_json(m) for m in mats]},
            )
    except KeyError as exc:
        raise ChannelSpecError(f"channel spec {kind!r} missing field {exc}") from None
    except ChannelSpecError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ChannelSpecError(f"bad channel spec {kind!r}: {exc}") from None
    raise ChannelSpecError(f"unknown channel kind {kind!r}")


def serialize_channel_spec(ch: QuantumChannel) -> str:
    """JSON text for a channel; falls back to a raw Kraus dump when the
    channel carries no declarative spec."""
    spec = ch.spec
    if spec is None:
        spec = {"kind": "kraus", "matrices": [_matrix_to_json(k) for k in ch.kraus]}
    return json.dumps(spec, separators=(",", ":"))
