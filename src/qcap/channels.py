"""CPTP maps as Kraus families, their canonical complements, and the
switched rocket/erasure constructions, plus a JSON channel-spec format.

A channel is an immutable bundle of Kraus operators stacked into one
(n_kraus, out_dim, in_dim) array. The canonical complement is derived
directly from the Kraus family: N_c(rho)[i,j] = Tr(K_i rho K_j^dag).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .qcore import (
    DensityOperator,
    SystemLayout,
    check_dim,
    layout_of,
)

TOL_CPTP = 1e-9


class ChannelSpecError(ValueError):
    """Malformed channel description (schema, CPTP, or parameter errors)."""


def as_fraction(x) -> Fraction:
    """Coerce int, Fraction, "a/b" string, or decimal float to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ChannelSpecError(f"bad rational {x!r}: {exc}") from None
    raise ChannelSpecError(f"cannot interpret {x!r} as a rational")


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
    grouping of the Kraus index (the canonical environment).
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
        gram = np.einsum("kab,kac->bc", k.conj(), k)
        if np.max(np.abs(gram - np.eye(din))) > TOL_CPTP:
            raise ChannelSpecError("not trace preserving")
        k = k.copy()
        k.setflags(write=False)
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


# ---------------------------------------------------------------------------
# application and complement


def apply(ch: QuantumChannel, rho: DensityOperator) -> DensityOperator:
    """Sum_k K rho K^dag on the channel's output layout."""
    if rho.layout.total != ch.in_dim:
        raise ValueError(
            f"state dimension {rho.layout.total} does not match channel input {ch.in_dim}"
        )
    t = ch.kraus @ rho.matrix  # (nk, out, in)
    out = np.einsum("kab,kcb->ac", t, ch.kraus.conj())
    return DensityOperator(ch.out_layout, out, check_psd=False)


def complementary(ch: QuantumChannel) -> QuantumChannel:
    """Canonical complement from V|psi> = sum_i K_i|psi> x |i>_E.

    The complement's Kraus operator for output row m collects the m-th rows
    of every K_i, so that N_c(rho)[i,j] = Tr(K_i rho K_j^dag).
    """
    # (out, nk, in): kraus[m][i, :] = K_i[m, :]
    comp = np.ascontiguousarray(np.swapaxes(ch.kraus, 0, 1))
    return QuantumChannel(
        in_layout=ch.in_layout,
        out_layout=ch.env_layout,
        env_layout=ch.out_layout,
        kraus=comp,
    )


def tensor_channels(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """Pairwise Kronecker products of the Kraus families."""
    in_lay = a.in_layout.concat(b.in_layout)
    out_lay = a.out_layout.concat(b.out_layout)
    env_lay = a.env_layout.concat(b.env_layout)
    check_dim(in_lay.total, "tensor channel input")
    check_dim(out_lay.total, "tensor channel output")
    check_dim(env_lay.total, "tensor channel environment")
    ka, kb = a.kraus, b.kraus
    kraus = np.einsum("iab,jcd->ijacbd", ka, kb).reshape(
        ka.shape[0] * kb.shape[0],
        ka.shape[1] * kb.shape[1],
        ka.shape[2] * kb.shape[2],
    )
    spec = None
    if a.spec is not None and b.spec is not None:
        spec = ChannelSpec(kind="tensor", factors=(a.spec, b.spec))
    return QuantumChannel(in_lay, out_lay, env_lay, kraus, spec)


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
        np.stack(ops),
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


def rocket_channel(d: int, ensemble="pauli") -> QuantumChannel:
    """Two d-dimensional inputs; dephasing P = sum w^(ij)|i><i|x|j><j| after a
    uniformly drawn unitary pair (U_r, V_r); the second register is discarded
    and the label r is handed to Bob as a classical output register.

    The canonical complement gives the environment the discarded register
    together with the Kraus index, which contains r.
    """
    if d < 2:
        raise ChannelSpecError(f"rocket needs d >= 2, got {d}")
    spec = None
    if isinstance(ensemble, str):
        spec = ChannelSpec(kind="rocket", d=d, ensemble=ensemble)
        ensemble = unitary_pair_ensemble(d, ensemble)
    pairs = list(ensemble)
    if not pairs:
        raise ChannelSpecError("rocket ensemble must be nonempty")
    nr = len(pairs)
    check_dim(nr * d, "rocket output")
    w = cmath.exp(2j * math.pi / d)
    dephase = np.diag(
        np.array([w ** (i * j) for i in range(d) for j in range(d)], dtype=np.complex128)
    )
    eye = np.eye(d)
    kraus = np.zeros((nr * d, nr * d, d * d), dtype=np.complex128)
    scale = 1.0 / math.sqrt(nr)
    for r, (u, v) in enumerate(pairs):
        for mat in (u, v):
            m = np.asarray(mat, dtype=np.complex128)
            if m.shape != (d, d) or np.max(np.abs(m.conj().T @ m - eye)) > TOL_CPTP:
                raise ChannelSpecError(f"ensemble member {r} is not unitary on dim {d}")
        wr = dephase @ np.kron(pairs[r][0], pairs[r][1])
        for m in range(d):
            block = wr[m::d, :]  # rows (i, j=m): contents of A1 after projecting A2 on |m>
            k = kraus[r * d + m]
            k[r * d : (r + 1) * d, :] = scale * block
    return QuantumChannel(
        SystemLayout((d, d)),
        SystemLayout((nr, d)),
        SystemLayout((nr, d)),
        kraus,
        spec,
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
        kraus,
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


def switch_components(ch: QuantumChannel) -> list[QuantumChannel] | None:
    """Component channels of a switch-built channel, or None."""
    if ch.spec is None or ch.spec.kind != "switch":
        return None
    return [spec_to_channel(s) for s in ch.spec.components]


# ---------------------------------------------------------------------------
# JSON schema


def _complex_to_json(z: complex) -> list:
    return [z.real, z.imag]


def _matrix_to_json(m: np.ndarray) -> list:
    return [[_complex_to_json(complex(x)) for x in row] for row in m]


def _matrix_from_json(obj) -> np.ndarray:
    try:
        rows = [[complex(e[0], e[1]) for e in row] for row in obj]
    except (TypeError, IndexError) as exc:
        raise ChannelSpecError(f"bad matrix entry: {exc}") from None
    m = np.array(rows, dtype=np.complex128)
    if m.ndim != 2:
        raise ChannelSpecError("matrix rows have inconsistent lengths")
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


def json_to_spec(obj) -> ChannelSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ChannelSpecError("channel spec must be an object with a \"kind\" field")
    kind = obj["kind"]
    try:
        if kind == "erasure":
            return ChannelSpec(kind="erasure", p=as_fraction(obj["p"]), d=int(obj["d"]))
        if kind == "full_erasure":
            return ChannelSpec(kind="full_erasure", d=int(obj["d"]))
        if kind == "rocket":
            return ChannelSpec(
                kind="rocket", d=int(obj["d"]), ensemble=str(obj.get("ensemble", "pauli"))
            )
        if kind == "identity":
            return ChannelSpec(kind="identity", d=int(obj["d"]))
        if kind == "switch":
            return ChannelSpec(
                kind="switch", components=tuple(json_to_spec(s) for s in obj["components"])
            )
        if kind == "tensor":
            return ChannelSpec(
                kind="tensor", factors=tuple(json_to_spec(s) for s in obj["factors"])
            )
        if kind == "kraus":
            mats = tuple(_matrix_from_json(m) for m in obj["matrices"])
            return ChannelSpec(kind="kraus", matrices=mats)
    except KeyError as exc:
        raise ChannelSpecError(f"channel spec {kind!r} missing field {exc}") from None
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
            np.stack(mats),
            spec,
        )
    raise ChannelSpecError(f"unknown spec kind {spec.kind!r}")


def parse_channel_spec(text) -> QuantumChannel:
    """Parse a JSON document (string or already-loaded object) to a channel."""
    if isinstance(text, (str, bytes)):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ChannelSpecError(f"invalid JSON: {exc}") from None
    else:
        obj = text
    return spec_to_channel(json_to_spec(obj))


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
