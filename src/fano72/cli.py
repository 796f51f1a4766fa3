"""Command-line front end: verification suites and small graded-ring utilities.

Exit codes: 0 all checks pass, 1 at least one failure or output cut short by
a closed pipe, 2 configuration error or any other failed write to standard
output (a full disk).  ``main`` returns the code;
``console_main``, which ``python -m fano72`` and the ``fano72`` script run,
exits with it.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from time import perf_counter

# Each command imports what only it runs (the certifier for verify, wps for wps),
# so hilbert loads cli and grading alone.
from . import EXTRA_SUITES, SUITES, ConfigurationError
from .grading import clip, enumerate_monomials, hilbert_count, monomial_text

# Most monomials `hilbert --list` or `wps --basis` prints, checked from the count,
# and most exponents (monomials times weights): each monomial is a tuple of k of them.
MAX_LISTED = 10 ** 5
MAX_LISTED_EXPONENTS = 4 * 10 ** 6


def _parse_weights(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    weights = []
    for index, part in enumerate(parts):
        try:
            weights.append(int(part))
        except ValueError:
            raise ConfigurationError(f"weights must be a comma-separated integer list, "
                                     f"got {clip(part)!r} at entry {index} of {len(parts)}")
    return tuple(weights)


def _count(weights: tuple[int, ...], degree: int, listing: str | None) -> int:
    """The Hilbert count, refusing a listing (named by its flag) above either cap."""
    try:
        count = hilbert_count(weights, degree)
    except ValueError as error:
        raise ConfigurationError(str(error))
    if listing and (count > MAX_LISTED or count * len(weights) > MAX_LISTED_EXPONENTS):
        raise ConfigurationError(f"{listing} would print {clip(count)} monomials of "
                                 f"{len(weights)} exponents, past the caps {MAX_LISTED} and {MAX_LISTED_EXPONENTS}")
    return count


def _print_monomials(weights: tuple[int, ...], degree: int) -> None:
    names = [f"x{i}" for i in range(1, len(weights) + 1)]
    for exponents in enumerate_monomials(weights, degree):
        print(f"  {monomial_text(exponents, names) or '1'}")


def _print_records(records: list) -> None:
    width = max(len(r.check_id) for r in records)
    for r in records:
        value = r.computed if r.status == "PASS" else f"{r.computed}, expected {r.expected}"
        print(f"{r.status:<4}  {r.check_id:<{width}}  {value}  | {r.claim}")


def _unwritable(path: str, error: OSError) -> ConfigurationError:
    return ConfigurationError(f"cannot write --json output {clip(path, 60)!r}: {error.strerror}")


def _open_json(path: str | None):
    """The --json output, opened before any check runs so a bad path fails fast."""
    if path is None:
        return nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as error:
        raise _unwritable(path, error)


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the suites; the summary reports the command's wall time, setup included."""
    started = perf_counter()
    from .checks import VerifyConfig, run_all
    config = VerifyConfig(xi_text=args.xi, suite=args.suite, seed=args.seed)
    config.pencil    # a bad pencil stops here, before --json can truncate or create its file
    with _open_json(args.json) as handle:
        records = run_all(config)
        _print_records(records)
        if handle:
            import json
            # a record's __dict__: its fields in declaration order, as asdict, uncopied
            lines = (json.dumps(vars(r)) + "\n" for r in records)
            try:
                with handle:    # closing flushes: a full disk raises here, once
                    handle.writelines(lines)
            except OSError as error:
                raise _unwritable(args.json, error)
    failed = sum(1 for r in records if r.status == "FAIL")
    print(f"{len(records)} checks: {len(records) - failed} passed, "
          f"{failed} failed ({perf_counter() - started:.2f}s)")
    return 1 if failed else 0


def cmd_hilbert(args: argparse.Namespace) -> int:
    weights = _parse_weights(args.weights)
    count = _count(weights, args.degree, "--list" if args.list else None)
    print(f"weights {weights}, degree {args.degree}: {count} monomials")
    if args.list:
        _print_monomials(weights, args.degree)
    return 0


def cmd_wps(args: argparse.Namespace) -> int:
    """Anticanonical data; the basis is counted, and enumerated only for --basis."""
    from .wps import WeightedProjectiveSpace
    weights = _parse_weights(args.weights)
    try:
        space = WeightedProjectiveSpace(weights)
    except ValueError as error:
        raise ConfigurationError(str(error))
    degree = space.anticanonical_weight()
    size = _count(weights, degree, "--basis" if args.basis else None)
    try:
        volume = str(space.anticanonical_selfintersection())
    except ValueError:      # str() refuses over 4300 digits, as from 1400 unit weights
        raise ConfigurationError(f"the anticanonical self-intersection of {len(weights)} "
                                 f"weights has too many digits to print")
    print(f"P{space.weights}")
    print(f"  anticanonical weight:            {degree}")
    print(f"  anticanonical self-intersection: {volume}")
    print(f"  anticanonical basis size:        {size} (projective dimension {size - 1})")
    if args.basis:
        _print_monomials(weights, degree)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """One configuration-error line: words cut to 20 characters, the line to 160."""
        raise ConfigurationError(clip(" ".join(map(clip, message.split())), 160))

    def _get_values(self, action, arg_strings):
        # argparse (CPython 3.11) strips a value of exactly "--", as in --degree=--, and
        # would hand the command [] in place of a string or a number
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            self.error(f"argument {action.option_strings[0]}: expected one argument, got '--'")
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fano72",
        description="Exact certification that the degree-72 scroll-cone threefold "
                    "is anticanonically embedded P(1,1,4,6).")
    sub = parser.add_subparsers(dest="command", required=True)

    suite_names = ("all",) + SUITES + EXTRA_SUITES
    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("suite", nargs="?", default="all", choices=suite_names,
                        help="suite to run (default: all)")
    verify.add_argument("--xi", default=None, metavar="CUBIC",
                        help="pencil cubic in x1, x2, e.g. "
                             "'x2^3 - 6*x1*x2^2 + 11*x1^2*x2 - 6*x1^3'")
    verify.add_argument("--seed", type=int, default=0,
                        help="seed for the random-member sample checks")
    verify.add_argument("--json", default=None, metavar="PATH",
                        help="also write one JSON record per check to PATH")
    verify.set_defaults(func=cmd_verify)

    hilbert = sub.add_parser("hilbert", help="count monomials of a weighted degree")
    hilbert.add_argument("--weights", required=True, help="comma-separated weights, e.g. 1,1,4,6")
    hilbert.add_argument("--degree", type=int, required=True)
    hilbert.add_argument("--list", action="store_true", help="also print the monomials")
    hilbert.set_defaults(func=cmd_hilbert)

    wps = sub.add_parser("wps", help="anticanonical data of a weighted projective space")
    wps.add_argument("--weights", required=True, help="comma-separated weights, e.g. 1,1,4,6")
    wps.add_argument("--basis", action="store_true", help="also print the basis monomials")
    wps.set_defaults(func=cmd_wps)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()     # a closed pipe raises here, not at interpreter exit
        return code
    except ConfigurationError as error:
        print(f"configuration error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        # stdout refused a write: point it at devnull so the exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(error, BrokenPipeError):      # the reader went away: stop quietly
            return 1
        print(f"configuration error: cannot write standard output: {error.strerror}",
              file=sys.stderr)
        return 2


def console_main():
    """Run ``main`` and exit with its code, skipping interpreter teardown; never returns.

    Once stdout and stderr are flushed nothing is left to do: the --json file
    is closed inside ``cmd_verify`` and fano72 registers no exit hook.  So the
    process ends in ``os._exit``, without clearing its modules and collecting
    their objects (verify all --json: 68 -> 58 ms, medians of 30 runs on a
    2-core x86 host, CPython 3.11); an embedding's ``atexit`` hooks do not
    run.  An exception out of ``main``, or a failed flush, takes the
    interpreter's normal exit.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)      # the normal exit's own flush reports the failure, as it always did
    os._exit(code)


if __name__ == "__main__":
    console_main()
