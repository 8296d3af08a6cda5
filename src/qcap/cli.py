"""qcap command line: bounds, info, verify, sweep.

Standard output carries the report (JSON or CSV), standard error carries
diagnostics. Exit codes: 0 success, 2 a bound or property check failed,
64 usage error, 65 malformed input data, 70 dimension cap exceeded.
Identical flags and seed give byte-identical standard output. Heavy
numeric imports happen inside the handlers that need them, so the exact
rational commands start fast.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import fmt9

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_DIM_CAP = 70


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse's default exit code is 2, which this tool reserves for
    failed bound checks; remap parse problems to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational like 11/24, got {text!r}")


def _range_arg(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a range like 2:10, got {text!r}")


def _round9(x: float) -> float:
    return float(fmt9(x))


def _emit_json(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qcap", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dim-cap",
        type=int,
        metavar="N",
        help="override the total-dimension safety cap (default 8192)",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_bounds = sub.add_parser("bounds", help="exact rational capacity bounds")
    bsub = p_bounds.add_subparsers(dest="target", required=True, parser_class=_Parser)
    b_thm = bsub.add_parser("theorem", help="k-use upper vs (k+1)-use lower bounds")
    b_thm.add_argument("--n", type=int, required=True)
    b_thm.add_argument("--format", choices=("json", "csv"), default="json")
    b_lock = bsub.add_parser("locking", help="measured-adversary key-rate bound")
    b_lock.add_argument("--p", type=_fraction_arg, required=True)
    b_lock.add_argument("--d", type=int, required=True)
    b_lock.add_argument("--format", choices=("json", "csv"), default="json")
    b_conj = bsub.add_parser("conjecture", help="epsilon threshold of the sharper bound")
    b_conj.add_argument("--p", type=_fraction_arg, required=True)
    b_conj.add_argument("--n", type=int, required=True)

    p_info = sub.add_parser("info", help="information quantities of a channel")
    p_info.add_argument(
        "quantity", choices=("coherent", "holevo", "private"), metavar="quantity"
    )
    p_info.add_argument("--channel", required=True, metavar="FILE")
    p_info.add_argument("--state", metavar="FILE")
    p_info.add_argument("--ensemble", metavar="FILE")
    p_info.add_argument("--seed", type=int, default=0)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument(
        "suite",
        choices=("lemma1", "lemma2-appendix", "lemma3", "lower-bound", "all"),
        metavar="suite",
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=int, default=None)
    p_verify.add_argument("--n", type=int, default=1)
    p_verify.add_argument("--d", type=int, default=2)
    p_verify.add_argument("--p", type=_fraction_arg, default=Fraction(1, 4))
    p_verify.add_argument("--uses", type=int, default=2)

    p_sweep = sub.add_parser("sweep", help="tabulate bounds over a grid (CSV)")
    ssub = p_sweep.add_subparsers(dest="target", required=True, parser_class=_Parser)
    s_lock = ssub.add_parser("locking")
    s_lock.add_argument("--p", type=_fraction_arg, required=True)
    s_lock.add_argument("--d", type=_range_arg, required=True, metavar="LO:HI")
    s_bounds = ssub.add_parser("bounds")
    s_bounds.add_argument("--n", type=int, required=True)
    s_bounds.add_argument("--k", type=_range_arg, required=True, metavar="LO:HI")

    return parser


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}")


def _load_channel(path: str):
    from . import channels as qch

    try:
        return qch.parse_channel_spec(_load_json_file(path))
    except qch.ChannelSpecError as exc:
        raise DataError(f"{path}: {exc}")


def _state_from_obj(obj, path: str):
    from . import qcore
    from .channels import ChannelSpecError, _matrix_from_json

    try:
        dims = tuple(int(d) for d in obj["layout"])
        matrix = _matrix_from_json(obj["matrix"])
        return qcore.DensityOperator(qcore.SystemLayout(dims), matrix)
    except ChannelSpecError as exc:
        raise DataError(f"{path}: {exc}")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad state object: {exc}")


def _load_state(path: str):
    return _state_from_obj(_load_json_file(path), path)


def _load_ensemble(path: str):
    from . import channels as qch

    obj = _load_json_file(path)
    try:
        raw = obj["items"]
        items = tuple(
            (float(qch.as_fraction(it["p"])), _state_from_obj(it["state"], path))
            for it in raw
        )
        return qch.CqEnsemble(items)
    except DataError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad ensemble object: {exc}")


def _cmd_bounds(args) -> int:
    from . import bounds

    if args.target == "theorem":
        if args.n < 2:
            raise UsageError("bounds theorem needs --n >= 2")
        report = bounds.theorem_report(args.n)
        if args.format == "csv":
            sys.stdout.write(report.to_csv())
        else:
            _emit_json(report.to_json_obj())
        return EXIT_OK if report.passed else EXIT_CHECK_FAILED

    if args.target == "locking":
        if args.d < 1 or args.p > Fraction(1, 2) or args.p < 0:
            raise UsageError("bounds locking needs --d >= 1 and 0 <= --p <= 1/2")
        value = bounds.locking_upper(args.p, args.d)
        if args.format == "csv":
            sys.stdout.write("p,d,upper_bits\n")
            sys.stdout.write(f"{args.p},{args.d},{fmt9(value)}\n")
        else:
            _emit_json(
                {"p": str(args.p), "d": args.d, "value": _round9(value), "unit": "bits"}
            )
        return EXIT_OK

    if args.n < 2 or not 0 < args.p <= Fraction(1, 2):
        raise UsageError("bounds conjecture needs --n >= 2 and 0 < --p <= 1/2")
    _emit_json({"epsilon_threshold": str(bounds.conjecture_threshold(args.p, args.n))})
    return EXIT_OK


def _cmd_info(args) -> int:
    from . import infoquant as iq

    ch = _load_channel(args.channel)
    if args.quantity == "coherent":
        if args.state is None:
            raise UsageError("info coherent needs --state")
        res = iq.coherent_information(ch, _load_state(args.state))
    else:
        if args.ensemble is None:
            raise UsageError(f"info {args.quantity} needs --ensemble")
        ens = _load_ensemble(args.ensemble)
        res = iq.holevo_bob(ch, ens) if args.quantity == "holevo" else iq.private_value(ch, ens)
    _emit_json(
        {
            "quantity": args.quantity,
            "value": _round9(res.value),
            "unit": "bits",
            "components": {k: _round9(v) for k, v in res.components.items()},
            "seed": args.seed,
        }
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify

    if args.suite == "lower-bound" and (args.n < 1 or args.d < 2 or args.uses < 2):
        raise UsageError("verify lower-bound needs --n >= 1, --d >= 2, --uses >= 2")
    if not 0 <= args.p <= 1:
        raise UsageError("--p must lie in [0, 1]")
    if args.samples is not None and args.samples < 1:
        raise UsageError("--samples must be positive")
    results = verify.run_suite(
        args.suite,
        seed=args.seed,
        samples=args.samples,
        n=args.n,
        d=args.d,
        p=args.p,
        uses=args.uses,
    )
    sys.stdout.write(verify.render_report(results, args.suite, args.seed))
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def _cmd_sweep(args) -> int:
    from . import bounds

    if args.target == "locking":
        if args.p > Fraction(1, 2) or args.p < 0:
            raise UsageError("sweep locking needs 0 <= --p <= 1/2")
        lo, hi = args.d
        sys.stdout.write("p,d,upper_bits\n")
        for d in range(max(lo, 1), hi + 1):
            sys.stdout.write(f"{args.p},{d},{fmt9(bounds.locking_upper(args.p, d))}\n")
        return EXIT_OK

    if args.n < 2:
        raise UsageError("sweep bounds needs --n >= 2")
    lo, hi = args.k
    report = bounds.theorem_report(args.n)
    rows = [r for r in report.rows if lo <= r.k <= hi]
    lines = report.to_csv().splitlines()
    sys.stdout.write(lines[0] + "\n")
    for row, line in zip(report.rows, lines[1:]):
        if lo <= row.k <= hi:
            sys.stdout.write(line + "\n")
    return EXIT_OK if all(r.ok for r in rows) else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    previous_cap = os.environ.get("QCAP_DIM_CAP")
    if args.dim_cap is not None:
        if args.dim_cap < 2:
            print("qcap: error: --dim-cap must be >= 2", file=sys.stderr)
            return EXIT_USAGE
        os.environ["QCAP_DIM_CAP"] = str(args.dim_cap)
    handlers = {
        "bounds": _cmd_bounds,
        "info": _cmd_info,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"qcap: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"qcap: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # dimension cap is raised deep inside numerics
        from .qcore import DimensionCapError

        if isinstance(exc, DimensionCapError):
            print(f"qcap: error: {exc}", file=sys.stderr)
            return EXIT_DIM_CAP
        raise
    finally:
        # --dim-cap holds for this call only
        if previous_cap is None:
            os.environ.pop("QCAP_DIM_CAP", None)
        else:
            os.environ["QCAP_DIM_CAP"] = previous_cap


if __name__ == "__main__":
    sys.exit(main())
