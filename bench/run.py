"""qcap benchmark: four workloads over the exact and the dense lane.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qcap is imported from ./src, no
install needed. With --trace 0 the named workload runs whole passes over
its fixed list of commands until the passes add up to S seconds (and at
least three passes), and the last line of stdout is a JSON object with the
end-to-end metrics wall_s (the median pass), peak_rss_mb and setup_s (the
median of fresh interpreters timed before the first pass and after each
pass). With --trace 1 every workload
runs traced passes, one after the other, until S seconds have passed, and
the JSON carries the per-layer metrics instead. Outputs of every command
are checked against computations made apart from the program (checks.py);
a check that fails sets "correct" to false. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

# One BLAS/OpenMP thread: the dense lane's hot loop is single-threaded numpy
# and every other matrix is tiny, so a second thread only adds scheduling
# noise on a shared machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def time_child(code: str) -> float:
    """Wall time of a fresh interpreter that runs `code` and exits."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - t0


def timed_in_child(code: str) -> float:
    """A time that `code` measures itself in a fresh interpreter and prints."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return float(proc.stdout.split()[-1])


def run_in_process(argv: tuple) -> tuple[int | None, str]:
    from qcap import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except Exception:
            traceback.print_exc(file=sys.__stderr__)
            rc = None
    return rc, out.getvalue()


def run_cold(argv: tuple) -> tuple[int | None, str]:
    proc = subprocess.run([sys.executable, "-m", "qcap", *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout


def seeded_p(rng: random.Random) -> Fraction:
    """A rational in (0, 1/2] with denominator 24."""
    return Fraction(rng.randint(1, 12), 24)


class Workload:
    """A fixed list of qcap commands, each with the check of its stdout."""

    name = ""
    setup_code = ""  # imports plus one-off construction, timed in fresh interpreters
    in_process = True

    def __init__(self, seed: int):
        self.seed = seed
        self.ops: list[tuple[tuple, object]] = []

    def add(self, argv, check) -> None:
        self.ops.append((tuple(str(a) for a in argv), check))

    def prepare(self) -> dict:
        """Run the set-up in this process; returns its namespace."""
        namespace = {}
        exec(self.setup_code, namespace)
        return namespace

    def run(self, argv: tuple):
        return run_in_process(argv) if self.in_process else run_cold(argv)


class ExactSweep(Workload):
    name = "exact-sweep"
    setup_code = (
        "import qcap.cli\nfrom fractions import Fraction\nfrom qcap import bounds\n"
        "bounds.locking_upper(Fraction(1, 2), 2)\n"
    )
    LOCKING_D = (2, 2000)
    # One round takes 0.6-0.9 s. On a shared host the speed of
    # interpreter-bound code shifts by tens of percent from one few-second
    # stretch to the next, so a pass runs ten rounds and lasts 6-9 s: each
    # pass then averages over several stretches, and the median of three
    # such passes repeats better from run to run than the median of many
    # short passes (README.md gives the figures).
    ROUNDS = 10

    def __init__(self, seed):
        super().__init__(seed)
        rng = random.Random(seed)
        lo, hi = self.LOCKING_D
        p = Fraction(1, 2)
        for _ in range(self.ROUNDS):
            for n in range(2, 65):
                self.add(("bounds", "theorem", "--n", n, "--format", "csv"),
                         lambda out, n=n: checks.check_theorem_csv(out, n))
            self.add(("sweep", "locking", "--p", p, "--d", f"{lo}:{hi}"),
                     lambda out: checks.check_locking_csv(out, p, lo, hi))
            for _ in range(4):
                cp, cn = seeded_p(rng), rng.randint(2, 64)
                self.add(("bounds", "conjecture", "--p", cp, "--n", cn),
                         lambda out, cp=cp, cn=cn: checks.check_conjecture(out, cp, cn))


class CliCold(Workload):
    name = "cli-cold"
    setup_code = "import qcap.cli\n"
    in_process = False

    def __init__(self, seed):
        super().__init__(seed)
        rng = random.Random(seed)
        n = rng.randint(2, 16)
        self.add(("bounds", "theorem", "--n", n, "--format", "csv"),
                 lambda out: checks.check_theorem_csv(out, n))
        lp, ld = seeded_p(rng), rng.randint(2, 64)
        self.add(("bounds", "locking", "--p", lp, "--d", ld),
                 lambda out: checks.check_locking_json(out, lp, ld))
        cp, cn = seeded_p(rng), rng.randint(2, 64)
        self.add(("bounds", "conjecture", "--p", cp, "--n", cn),
                 lambda out: checks.check_conjecture(out, cp, cn))
        sn = rng.randint(3, 16)
        klo = rng.randint(1, sn - 1)
        khi = rng.randint(klo, sn - 1)
        self.add(("sweep", "bounds", "--n", sn, "--k", f"{klo}:{khi}"),
                 lambda out: checks.check_theorem_csv(out, sn, range(klo, khi + 1)))
        sp = seeded_p(rng)
        self.add(("sweep", "locking", "--p", sp, "--d", "2:64"),
                 lambda out: checks.check_locking_csv(out, sp, 2, 64))


class VerifySeeded(Workload):
    name = "verify-seeded"
    setup_code = "import qcap.cli, qcap.verify\n"
    # verify's own seeds stay fixed: the suites hold statistical checks (a
    # 3-sigma Monte Carlo bound) that a small share of seeds fails by design
    VERIFY_SEEDS = (0, 1, 2)
    VERIFY_ALL_CHECKS = 14

    def __init__(self, seed):
        super().__init__(seed)
        rng = random.Random(seed)
        for s in self.VERIFY_SEEDS:
            self.add(("verify", "all", "--seed", s),
                     lambda out, s=s: checks.check_verify_report(out, "all", s, self.VERIFY_ALL_CHECKS))
        p = seeded_p(rng)
        self.add(("verify", "lower-bound", "--n", 2, "--d", 2, "--p", p, "--uses", 3),
                 lambda out: checks.check_verify_report(out, "lower-bound", 0, 2))


class DenseSwitch(Workload):
    name = "dense-switch"
    P = Fraction(1, 4)
    D = 3
    setup_code = (
        "import qcap.cli, qcap.infoquant\nfrom fractions import Fraction\n"
        "from qcap import channels\n"
        f"spec = channels.serialize_channel_spec(channels.main_channel(1, Fraction('{P}'), {D}))\n"
    )

    def __init__(self, seed):
        super().__init__(seed)
        self.channel_file = OUT / f"{self.name}-channel.json"
        self.erasure_file = OUT / f"{self.name}-erasure-input.json"
        self.pure_file = OUT / f"{self.name}-pure-input.json"
        erasure_value = (1 - 2 * self.P) * math.log2(self.D)
        self.add(("info", "coherent", "--channel", self.channel_file, "--state", self.erasure_file),
                 lambda out: checks.check_coherent(out, erasure_value))
        self.add(("info", "coherent", "--channel", self.channel_file, "--state", self.pure_file),
                 lambda out: checks.check_coherent(out, 0))

    def prepare(self) -> dict:
        namespace = super().prepare()
        self.channel_file.write_text(namespace["spec"])
        d = self.D
        dims = (2, d, d)  # flag, then the erasure data register and its pad
        # flag pinned to the erasure branch, maximally mixed data, pad |0>
        erasure = [[0j] * (2 * d * d) for _ in range(2 * d * d)]
        for i in range(d):
            erasure[d * d + i * d][d * d + i * d] = complex(1 / d)
        rng = random.Random(self.seed)
        amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2 * d * d)]
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
        amps = [a / norm for a in amps]
        pure = [[a * b.conjugate() for b in amps] for a in amps]
        for path, matrix in ((self.erasure_file, erasure), (self.pure_file, pure)):
            obj = {"layout": list(dims), "matrix": [[[z.real, z.imag] for z in row] for row in matrix]}
            path.write_text(json.dumps(obj))
        return namespace


WORKLOADS = {w.name: w for w in (ExactSweep, CliCold, VerifySeeded, DenseSwitch)}


def run_pass(w: Workload, tally: "Tally") -> float:
    gc.collect()  # start every pass from the same heap state
    t0 = perf_counter()
    results = [w.run(argv) for argv, _ in w.ops]
    dt = perf_counter() - t0
    tally.add(results)
    return dt


class Tally:
    """Operations attempted and failed, and the distinct stdout of each
    command line; only distinct outputs are kept, so memory does not grow
    with the number of passes or rounds."""

    def __init__(self, w: Workload):
        self.w = w
        self.attempted = self.failed = 0
        self.checks = dict(w.ops)  # the same command line has the same check
        self.outputs = {argv: set() for argv in self.checks}

    def add(self, results: list) -> None:
        for (argv, _), (rc, out) in zip(self.w.ops, results):
            self.attempted += 1
            if rc != 0:
                self.failed += 1
            else:
                self.outputs[argv].add(out)

    def errors(self) -> list[str]:
        """Check each distinct output; output that differs between runs of
        one command line is itself an error, since identical commands must
        print identical bytes."""
        errors = []
        for argv, seen in self.outputs.items():
            for out in seen:
                errors += self.checks[argv](out)
            if len(seen) > 1:
                errors.append(f"{self.w.name}: `qcap {' '.join(argv)}` printed {len(seen)} different outputs")
        return errors


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def timed_run(w: Workload, seconds: int) -> dict:
    # One set-up is timed before the passes and one after each pass, so the
    # set-up samples spread over the whole run, as the passes do, instead of
    # all falling into the same few seconds of the host's speed.
    setup = [time_child(w.setup_code)]
    w.prepare()
    tally = Tally(w)
    times = []
    while len(times) < MIN_PASSES or sum(times) < seconds:
        times.append(run_pass(w, tally))
        setup.append(time_child(w.setup_code))
    errors = tally.errors()
    for e in errors:
        print(e, file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "wall_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(w.in_process), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        },
    }


COLD_IMPORT = "import time\nt = time.perf_counter()\nimport qcap.cli\nprint(time.perf_counter() - t)\n"
COLD_LOCKING = (
    "import time\nfrom fractions import Fraction\nfrom qcap import bounds\n"
    "t = time.perf_counter()\nbounds.locking_upper(Fraction(1, 2), 2)\n"
    "print(time.perf_counter() - t)\n"
)


def traced_run(name: str, seed: int, seconds: int) -> dict:
    import tracing

    cold = {
        "cli.import": statistics.median(timed_in_child(COLD_IMPORT) for _ in range(SETUP_REPEATS)),
        "bounds.locking_upper.first_call": statistics.median(
            timed_in_child(COLD_LOCKING) for _ in range(SETUP_REPEATS)),
    }
    tracer = tracing.Tracer()
    tracing.install(tracer)
    order = [name] + [n for n in WORKLOADS if n != name]
    workloads = [WORKLOADS[n](seed) for n in order]
    tracer.pass_index = -1
    for w in workloads:
        tracer.workload = w.name
        w.prepare()
    tallies = {w.name: Tally(w) for w in workloads}
    times = {w.name: [] for w in workloads}
    start = perf_counter()
    while not times[order[-1]] or perf_counter() - start < seconds:
        for w in workloads:
            tracer.workload = w.name
            tracer.pass_index = len(times[w.name])
            times[w.name].append(run_pass(w, tallies[w.name]))
    tracer.uninstall()
    tracer.write(OUT / "trace.jsonl")

    errors = [e for t in tallies.values() for e in t.errors()]
    for e in errors:
        print(e, file=sys.stderr)
    counts = {n: len(t) for n, t in times.items()}
    metrics = layer_metrics(tracer, counts, cold)
    metrics["trace.wall_s"] = (statistics.median(times[name]), "s")
    return {
        "correct": not errors,
        "attempted": sum(t.attempted for t in tallies.values()),
        "failed": sum(t.failed for t in tallies.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(tr, passes: dict, cold: dict) -> dict:
    """Per-layer metrics, each read from the workload that exercises it
    (README.md lists which). Times are medians per outermost call; counts
    are per pass of that workload."""
    ex, ve, de = "exact-sweep", "verify-seeded", "dense-switch"

    def spans(name, w, first_pass=0):
        return [s for s in tr.outermost(name, w) if s[5] >= first_pass]

    def med(name, w, scale=1.0, first_pass=0):
        return statistics.median(s[2] - s[1] for s in spans(name, w, first_pass)) * scale

    def per_pass(total, w):
        q, r = divmod(total, passes[w])
        return q if r == 0 and isinstance(total, int) else total / passes[w]

    def calls(name, w):
        return per_pass(len(spans(name, w)), w)

    def extra_sum(name, w):
        return per_pass(sum(s[6] for s in spans(name, w)), w)

    applies = spans("channels.apply", de)
    haar = spans("infoquant.haar_measured_entropy", ve)
    return {
        "cli.import.s": (cold["cli.import"], "s"),
        "cli.main.s": (med("cli.main", ex), "s"),
        "cli.main.calls": (calls("cli.main", ex), "count"),
        "bounds.theorem_report.s": (med("bounds.theorem_report", ex), "s"),
        "bounds.theorem_report.calls": (calls("bounds.theorem_report", ex), "count"),
        "bounds.theorem_rows": (extra_sum("bounds.theorem_report", ex), "count"),
        "bounds.locking_upper.s": (med("bounds.locking_upper", ex), "s"),
        "bounds.locking_upper.calls": (calls("bounds.locking_upper", ex), "count"),
        "bounds.locking_upper.first_call_s": (cold["bounds.locking_upper.first_call"], "s"),
        "bounds.conjecture_threshold.s": (med("bounds.conjecture_threshold", ex), "s"),
        # built once per run, while the inputs are written
        "channels.main_channel.s": (med("channels.main_channel", de, first_pass=-1), "s"),
        "channels.spec_to_channel.s": (med("channels.spec_to_channel", de), "s"),
        "channels.tensor_channels.s": (med("channels.tensor_channels", de), "s"),
        "channels.complementary.s": (med("channels.complementary", de), "s"),
        "channels.apply.s": (med("channels.apply", de), "s"),
        "channels.apply.calls": (calls("channels.apply", de), "count"),
        "channels.kraus_mb": (extra_sum("channels.QuantumChannel", de) / 2**20, "MB"),
        "channels.kraus_nonzero_fraction": (
            sum(s[6][0] for s in applies) / sum(s[6][1] for s in applies), "ratio"),
        "channels.apply.gflop_computed": (sum(s[6][2] for s in applies) / passes[de] / 1e9, "GFLOP"),
        "qcore.eigvalsh.s": (med("qcore.eigvalsh", ve), "s"),
        "qcore.eigvalsh.calls": (calls("qcore.eigvalsh", ve), "count"),
        "qcore.haar_unitaries.s": (med("qcore.haar_unitaries", ve), "s"),
        "qcore.partial_trace.s": (med("qcore.partial_trace", ve), "s"),
        "infoquant.coherent_information.s": (med("infoquant.coherent_information", de), "s"),
        "infoquant.holevo_bob.s": (med("infoquant.holevo_bob", ve), "s"),
        "infoquant.private_value.s": (med("infoquant.private_value", ve), "s"),
        "infoquant.brute_force_p1.s": (med("infoquant.brute_force_p1", ve), "s"),
        "infoquant.nelder_mead.restarts": (calls("infoquant.nelder_mead", ve), "count"),
        "infoquant.nelder_mead.nfev": (extra_sum("infoquant.nelder_mead", ve), "count"),
        "infoquant.nelder_mead.s": (med("infoquant.nelder_mead", ve), "s"),
        "infoquant.objective_eval.us": (med("infoquant.objective_eval", ve, 1e6), "us"),
        "infoquant.haar_measured_entropy.s_per_1e5": (
            sum(s[2] - s[1] for s in haar) / sum(s[6] for s in haar) * 1e5, "s"),
        "infoquant.subentropy.s": (med("infoquant.subentropy", ve), "s"),
        "infoquant.subentropy.calls": (calls("infoquant.subentropy", ve), "count"),
        "infoquant.witness_coherent_info.s": (med("infoquant.witness_coherent_info", ve), "s"),
        "infoquant.gamma_d.s": (med("infoquant.gamma_d", ex), "s"),
        "verify.run_lemma1.s": (med("verify.run_lemma1", ve), "s"),
        "verify.run_lemma2_appendix.s": (med("verify.run_lemma2_appendix", ve), "s"),
        "verify.run_lemma3.s": (med("verify.run_lemma3", ve), "s"),
        "verify.run_lower_bound.s": (med("verify.run_lower_bound", ve), "s"),
        "verify.checks": (extra_sum("verify.run_suite", ve), "count"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qcap" / "cli.py").is_file():
        print(f"bench: no qcap sources under {SRC}; run from a qcap checkout", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.trace:
        result = traced_run(args.workload, args.seed, args.seconds)
    else:
        result = timed_run(WORKLOADS[args.workload](args.seed), args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
