"""Command-line front end: verification suites and small graded-ring utilities.

Exit codes: 0 all checks pass, 1 at least one failure or output cut short by
a closed pipe, 2 configuration error or any other failed write to standard
output (a full disk).  ``main`` returns the code;
``console_main``, which ``python -m fano72`` and the ``fano72`` script run,
exits with it.

``parse_args`` reads argv from one table, ``COMMANDS``, the way argparse 3.11
reads it: ``-h``/``--help`` at each level, unique prefixes (``--deg 3``),
``--opt=value``, negative numbers and texts with a space as values (``--xi
"-x1^3 + x2^3"``), and the first ``--`` ending the options.  Its refusals use
argparse's words.  It does not import argparse: that import (with gettext)
and a parser build (which imports locale) cost about 4 ms of a 35 ms
``fano72 hilbert`` on a 2-core x86 host.  One reading differs: ``--opt=--``
hands ``--`` to the option's converter, where argparse made it an empty list.
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


_SUITE_CHOICES = ("all",) + SUITES + EXTRA_SUITES
_DESCRIPTION = ("Exact certification that the degree-72 scroll-cone threefold "
               "is anticanonically embedded P(1,1,4,6).")
_WEIGHTS = ("--weights", "WEIGHTS", str, True, None, "comma-separated weights, e.g. 1,1,4,6")
# command -> (handler, help line, positional (name, choices, default, help) or None, options),
# an option (flag, metavar or None for a switch, converter, required, default, help)
COMMANDS = {
    "verify": (cmd_verify, "run verification suites",
               ("suite", _SUITE_CHOICES, "all", f"suite to run (default: all), one of "
                                               f"{', '.join(_SUITE_CHOICES)}"), (
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


def _refuse(message: str):
    """One configuration-error line: words cut to 20 characters, the line to 160."""
    raise ConfigurationError(clip(" ".join(map(clip, message.split())), 160))


def _read(token: str, flags: tuple[str, ...]) -> tuple[str | None, str | None] | None:
    """How argparse 3.11 reads token among flags ("-h" and "--help" first): None for a
    value, else the flag and its "=value" or None, the flag None for an unknown option."""
    if token[:1] != "-" or token == "-":
        return None
    name, equals, value = token.partition("=")
    if token in flags or equals and name in flags:
        return name, value if equals else None
    if token[1] == "-":     # a unique prefix names its option
        matches = [flag for flag in flags if flag.startswith(name)]
        if len(matches) > 1:
            _refuse(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if equals else None
    elif token[1] == "h":   # -hx is -h given x
        return "-h", token[2:]
    # a negative number, ^-\d+$|^-\d*\.\d+$ in argparse, whose $ also matches before a last newline
    whole, dot, fraction = token[1:].removesuffix("\n").partition(".")
    if whole.isdecimal() and not dot or dot and fraction.isdecimal() and (
            not whole or whole.isdecimal()) or " " in token:
        return None
    return None, None


def _help(flag: str, explicit: str | None, command: str | None = None) -> None:
    """Print the help screen of command, or of fano72 for None, unless -h/--help
    was given a value: that is refused."""
    rest = explicit.lstrip("h") if flag == "-h" and explicit else explicit   # -hh is -h twice
    if explicit is not None and (explicit == "" or rest):
        _refuse(f"argument -h/--help: ignored explicit argument {rest!r}")
    if command is None:
        print(f"usage: fano72 [-h] {{{','.join(COMMANDS)}}} ...\n\n{_DESCRIPTION}\n")
        rows = [(name, entry[1]) for name, entry in COMMANDS.items()]
    else:
        _, about, positional, options = COMMANDS[command]
        rows = [(f"{flag} {metavar}" if metavar else flag, text)
                for flag, metavar, _, _, _, text in options]
        usage = [left if option[3] else f"[{left}]" for (left, _), option in zip(rows, options)]
        if positional:
            usage.append(f"[{positional[0]}]")
            rows.insert(0, (positional[0], positional[3]))
        print(f"usage: fano72 {command} [-h] {' '.join(usage)}\n\n{about}\n")
    rows.insert(0, ("-h, --help", "show this help message and exit"))
    width = max(len(left) for left, _ in rows) + 2
    print("\n".join(f"  {left:<{width}}{right}" for left, right in rows))


def parse_args(argv: list[str]) -> dict | None:
    """The command and its values by name, read from argv as argparse 3.11 reads it,
    or None once a help screen is printed; a refusal raises ConfigurationError."""
    extras = []
    for index, token in enumerate(argv):
        read = None if token == "--" else _read(token, ("-h", "--help"))
        if read and read[0]:
            return _help(*read)
        if read:
            extras.append(token)
        elif token != "--" or index + 1 < len(argv):    # argparse takes this "--" for the command
            if token not in COMMANDS:
                _refuse(f"argument command: invalid choice: {token!r} "
                        f"(choose from {', '.join(map(repr, COMMANDS))})")
            return _parse_command(token, argv[index + 1:], extras)
    _refuse("the following arguments are required: command")


def _parse_command(command: str, argv: list[str], extras: list[str]) -> dict | None:
    _, _, positional, options = COMMANDS[command]
    table = {option[0]: option for option in options}
    values = {"command": command, **{flag[2:]: option[4] for flag, option in table.items()},
              **({positional[0]: positional[2]} if positional else {})}
    end = argv.index("--") if "--" in argv else len(argv)   # only values follow the first "--"
    reads = [_read(token, ("-h", "--help", *table)) for token in argv[:end]]
    reads += [None] * (len(argv) - end)
    taken, seen, tokens = None, set(), enumerate(argv)     # taken: where the positional was
    for index, token in tokens:
        read = reads[index]
        if index == end:    # dropped where argparse's pattern for the positional takes it in
            if not (positional and taken in (None, index - 1)):
                extras.append(token)
        elif read is None and positional and taken is None:
            if token not in positional[1]:
                _refuse(f"argument {positional[0]}: invalid choice: {token!r} "
                        f"(choose from {', '.join(map(repr, positional[1]))})")
            values[positional[0]], taken = token, index
        elif read is None or read[0] is None:
            extras.append(token)
        elif read[0] in ("-h", "--help"):
            return _help(*read, command)
        else:
            flag, explicit = read
            metavar, convert = table[flag][1:3]
            if metavar is None and explicit is not None:
                _refuse(f"argument {flag}: ignored explicit argument {explicit!r}")
            if metavar and explicit is None:
                if index + 1 >= end or reads[index + 1] is not None:
                    _refuse(f"argument {flag}: expected one argument")
                explicit = next(tokens)[1]
            try:
                values[flag[2:]] = convert(explicit) if metavar else True
            except ValueError:
                _refuse(f"argument {flag}: invalid {convert.__name__} value: {explicit!r}")
            seen.add(flag)
    missing = [flag for flag, _, _, required, _, _ in options if required and flag not in seen]
    if missing:
        _refuse(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _refuse(f"unrecognized arguments: {' '.join(extras)}")
    return values


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
