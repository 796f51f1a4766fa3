"""Command-line front end: verification suites and small graded-ring utilities.

Exit codes: 0 all checks pass, 1 at least one failure or output cut short by
a closed pipe, 2 configuration error or any other failed write to standard
output (a full disk).  ``main`` returns the code;
``console_main``, which ``python -m fano72`` and the ``fano72`` script run,
exits with it.

``parse_args`` reads argv from one table, ``COMMANDS``.  It reads a plain
argv (the command, then whole flags with their values, and verify's suite)
itself, and hands every other argv to argparse, imported only then: help
screens, unique prefixes (``--deg 3``), ``--opt=value``, ``--`` and the
refusal texts are argparse's own.  One reading differs from argparse's:
``--opt=--`` hands ``--`` to the option's converter, where argparse made it
an empty list.
"""

from __future__ import annotations

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


def cmd_verify(args: dict) -> int:
    """Run the suites; the summary reports the command's wall time, setup included."""
    started = perf_counter()
    from .checks import VerifyConfig, run_all
    config = VerifyConfig(xi_text=args["xi"], suite=args["suite"], seed=args["seed"])
    config.pencil    # a bad pencil stops here, before --json can truncate or create its file
    with _open_json(args["json"]) as handle:
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
                raise _unwritable(args["json"], error)
    failed = sum(1 for r in records if r.status == "FAIL")
    print(f"{len(records)} checks: {len(records) - failed} passed, "
          f"{failed} failed ({perf_counter() - started:.2f}s)")
    return 1 if failed else 0


def cmd_hilbert(args: dict) -> int:
    weights, degree = _parse_weights(args["weights"]), args["degree"]
    count = _count(weights, degree, "--list" if args["list"] else None)
    print(f"weights {weights}, degree {degree}: {count} monomials")
    if args["list"]:
        _print_monomials(weights, degree)
    return 0


def cmd_wps(args: dict) -> int:
    """Anticanonical data; the basis is counted, and enumerated only for --basis."""
    from .wps import WeightedProjectiveSpace
    weights = _parse_weights(args["weights"])
    try:
        space = WeightedProjectiveSpace(weights)
    except ValueError as error:
        raise ConfigurationError(str(error))
    degree = space.anticanonical_weight()
    size = _count(weights, degree, "--basis" if args["basis"] else None)
    try:
        volume = str(space.anticanonical_selfintersection())
    except ValueError:      # str() refuses over 4300 digits, as from 1400 unit weights
        raise ConfigurationError(f"the anticanonical self-intersection of {len(weights)} "
                                 f"weights has too many digits to print")
    print(f"P{space.weights}")
    print(f"  anticanonical weight:            {degree}")
    print(f"  anticanonical self-intersection: {volume}")
    print(f"  anticanonical basis size:        {size} (projective dimension {size - 1})")
    if args["basis"]:
        _print_monomials(weights, degree)
    return 0


_DESCRIPTION = ("Exact certification that the degree-72 scroll-cone threefold "
               "is anticanonically embedded P(1,1,4,6).")
_WEIGHTS = ("--weights", "WEIGHTS", str, True, None, "comma-separated weights, e.g. 1,1,4,6")
# command -> (handler, help line, positional (name, choices, default, help) or None, options),
# an option (flag, metavar or None for a switch, converter, required, default, help)
COMMANDS = {
    "verify": (cmd_verify, "run verification suites",
               ("suite", ("all",) + SUITES + EXTRA_SUITES, "all", "suite to run (default: all)"), (
        ("--xi", "CUBIC", str, False, None,
         "pencil cubic in x1, x2, e.g. 'x2^3 - 6*x1*x2^2 + 11*x1^2*x2 - 6*x1^3'"),
        ("--seed", "SEED", int, False, 0, "seed for the random-member sample checks"),
        ("--json", "PATH", str, False, None, "also write one JSON record per check to PATH"))),
    "hilbert": (cmd_hilbert, "count monomials of a weighted degree", None, (
        _WEIGHTS, ("--degree", "DEGREE", int, True, None, "the weighted degree"),
        ("--list", None, None, False, False, "also print the monomials"))),
    "wps": (cmd_wps, "anticanonical data of a weighted projective space", None, (
        _WEIGHTS, ("--basis", None, None, False, False, "also print the basis monomials"))),
}


def _plain(argv: list[str]) -> dict | None:
    """The values of a plain argv, read without argparse, or None for any other argv.

    Plain: the command first, then whole flags, each valued one followed by its
    value, and verify's suite at most once, anywhere; every required flag given
    and every value converted.  A value may start with "-" only if it holds a
    space and its second character is neither "-" nor "h", which argparse may
    read as options.  Argparse, imported for any other argv, would add 4.5 ms
    to a 45 ms ``fano72 hilbert`` and 5.8 ms to a 63 ms ``fano72 verify all
    --json`` (medians of 30 alternating subprocess pairs against this reader
    forced to defer; 2-core x86, CPython 3.11).
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, _, positional, options = COMMANDS[argv[0]]
    table = {option[0]: option for option in options}
    values = {"command": argv[0], **{flag[2:]: option[4] for flag, option in table.items()}}
    name, choices, default, _ = positional or (None, (), None, None)
    if positional:
        values[name] = default
    seen, tokens = set(), iter(argv[1:])
    for token in tokens:
        if token in choices and name not in seen:
            key, value = name, token
        elif token in table and table[token][1] is None:
            key, value = token[2:], True
        elif token in table:
            key, value = token[2:], next(tokens, "-")    # a last flag takes "-": deferred
            if value[:1] == "-" and (" " not in value or value[1] in "-h"):
                return None
            try:
                value = table[token][2](value)
            except ValueError:
                return None
        else:
            return None
        values[key] = value
        seen.add(key)
    if any(option[3] and option[0][2:] not in seen for option in options):
        return None
    return values


def _argparse(argv: list[str]) -> dict | None:
    """The values of argv as argparse reads it, or None once a help screen is printed;
    a refusal raises ConfigurationError."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str):
            """One configuration-error line: words cut to 20 characters, the line to 160."""
            raise ConfigurationError(clip(" ".join(map(clip, message.split())), 160))

        def _get_values(self, action, arg_strings):
            # argparse strips an option's value of exactly "--" (--degree=--) and would
            # hand the command []: convert "--" like any other value
            if action.option_strings and arg_strings == ["--"]:
                return self._get_value(action, "--")
            return super()._get_values(action, arg_strings)

    parser = Parser(prog="fano72", description=_DESCRIPTION)
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, about, positional, options) in COMMANDS.items():
        sub = commands.add_parser(command, help=about, description=about)
        if positional:
            name, choices, default, text = positional
            sub.add_argument(name, nargs="?", choices=choices, default=default, help=text)
        for flag, metavar, convert, required, default, text in options:
            sub.add_argument(flag, required=required, default=default, help=text, **(
                {"metavar": metavar, "type": convert} if metavar else {"action": "store_true"}))
    try:
        return vars(parser.parse_args(argv))
    except SystemExit:      # the help action printed its screen
        return None


def parse_args(argv: list[str]) -> dict | None:
    """The command and its values by name, or None once a help screen is printed;
    a refusal raises ConfigurationError."""
    return _plain(argv) or _argparse(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        code = 0 if args is None else COMMANDS[args["command"]][0](args)
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
