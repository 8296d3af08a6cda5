"""In-memory spans around calls into qcap's public functions.

The tracer replaces module attributes (and two class attributes) with
wrappers while it is installed, so the program's own files stay untouched.
Calls made through a name bound at import time (``from x import f``) are
not seen; every call that the per-layer metrics need goes through a module
attribute. Spans are kept in a list and written out once, when the run
ends.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter


class Tracer:
    """Spans as [name, start, end, parent index, workload, pass, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self.workload = ""
        self.pass_index = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, extra=None) -> None:
        """Record a span for each call of owner.attr; `extra(args, result)`
        computes a number stored with the span, outside the timed interval."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                    self.workload, self.pass_index, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if extra is not None:
                span[6] = extra(args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def outermost(self, name: str, workload: str) -> list[list]:
        """Spans of `name` in `workload` with no enclosing span of the same
        name, so recursive calls count once."""
        out = []
        for span in self.spans:
            if span[0] != name or span[4] != workload:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out.append(span)
        return out

    def write(self, path) -> None:
        """One JSON array per line: the field names first, then each span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "workload", "pass", "extra"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of the six qcap modules that the per-layer
    metrics read."""
    import numpy as np

    from qcap import bounds, channels, cli, infoquant, qcore, verify

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(bounds, "theorem_report", "bounds.theorem_report",
                lambda args, report: len(report.rows))
    for fn in ("locking_upper", "conjecture_threshold"):
        tracer.wrap(bounds, fn, f"bounds.{fn}")

    for fn in ("main_channel", "spec_to_channel", "tensor_channels", "complementary"):
        tracer.wrap(channels, fn, f"channels.{fn}")
    tracer.wrap(channels, "apply", "channels.apply", _apply_work)
    # every QuantumChannel copies its Kraus stack in __post_init__
    tracer.wrap(channels.QuantumChannel, "__post_init__", "channels.QuantumChannel",
                lambda args, _: args[0].kraus.nbytes)

    tracer.wrap(np.linalg, "eigvalsh", "qcore.eigvalsh")
    for fn in ("haar_unitaries", "partial_trace"):
        tracer.wrap(qcore, fn, f"qcore.{fn}")

    for fn in ("coherent_information", "holevo_bob", "private_value", "brute_force_p1",
               "subentropy", "witness_coherent_info", "gamma_d"):
        tracer.wrap(infoquant, fn, f"infoquant.{fn}")
    tracer.wrap(infoquant, "minimize", "infoquant.nelder_mead", lambda args, res: res.nfev)
    tracer.wrap(infoquant._EnsembleObjective, "value", "infoquant.objective_eval")
    tracer.wrap(infoquant, "haar_measured_entropy", "infoquant.haar_measured_entropy",
                lambda args, _: args[1])

    for fn in ("run_lemma1", "run_lemma2_appendix", "run_lemma3", "run_lower_bound"):
        tracer.wrap(verify, fn, f"verify.{fn}")
    tracer.wrap(verify, "run_suite", "verify.run_suite",
                lambda args, results: sum(len(r.checks) for r in results))


def _apply_work(args, _result) -> list:
    """[nonzero Kraus entries, Kraus entries, flops computed] of one apply:
    K @ rho costs nk*out*in*in complex multiply-adds, the contraction
    against K^dag nk*out*out*in, 8 real flops each."""
    import numpy as np

    kraus = args[0].kraus
    nk, dout, din = kraus.shape
    flops = 8 * (nk * dout * din * din + nk * dout * dout * din)
    return [int(np.count_nonzero(kraus)), int(kraus.size), flops]
