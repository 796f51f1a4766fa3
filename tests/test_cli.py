"""``fano72.cli.parse_args`` against argparse 3.11, through an independent parser.

``oracles.build_parser`` is the parser fano72 built by hand before it read any
argv itself, kept verbatim.  ``parse_args`` reads a plain argv itself and
hands every other to a parser it builds from ``cli.COMMANDS``; the plain
reader must either defer or agree with the reference.  Both read argv drawn
from one vocabulary: the commands, every option and its unique prefixes,
``--opt=value`` forms, ``--``, ``-h``, negative numbers, tokens with spaces,
suite names and junk.  They must agree on the outcome (the same values, a
help screen, or a refusal in the same words), and argv with one known defect
must be refused.  The one difference is ``--opt=--``: argparse 3.11 turns the value
into ``[]``, which the reference refuses, while ``parse_args`` hands ``--``
to the option's converter like any other value.  The reference is the
running interpreter's argparse, which reads these argv alike on 3.10 to 3.12;
3.13 prints help for ``-hx`` where they refuse it.
"""

import contextlib
import io
import sys

import pytest

from fano72 import EXTRA_SUITES, SUITES, ConfigurationError
from fano72.cli import _plain, parse_args

from oracles import build_parser

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
pytestmark = pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse 3.13 reads -hx as help")

SUITE_NAMES = ("all",) + SUITES + EXTRA_SUITES
# command -> (flag, kind, required); kind "int", "text" or "switch"
SPECS = {
    "verify": (("--xi", "text", False), ("--seed", "int", False), ("--json", "text", False)),
    "hilbert": (("--weights", "text", True), ("--degree", "int", True),
                ("--list", "switch", False)),
    "wps": (("--weights", "text", True), ("--basis", "switch", False)),
}
FLAGS = sorted({flag for options in SPECS.values() for flag, _, _ in options} | {"--help"})
PREFIXES = [flag[:end] for flag in FLAGS for end in range(3, len(flag) + 1)]
CUBICS = ["x2^3 - 6*x1*x2^2 + 11*x1^2*x2 - 6*x1^3", "-x1^3 + x2^3", "-x1^3+x2^3"]
# values argparse reads as values after an option: no leading "-" unless a
# negative number, "-" alone, or a token with a space
INTS = ["0", "3", "12", "-3", "-٣", "007"]
TEXTS = ["1,1,4,6", "1,1", "out.jsonl", "", "-", "a b", CUBICS[0], CUBICS[1]]
# tokens at the edges of argparse's rules, drawn as often as all the others together
EDGES = ["--", "-h", "--help", "--he", "-hh", "-hx", "-hhx", "-h=", "-h=h", "--help=x", "--he=",
         "--=1", "-", "", "-3", "-1.5", "-.5", "-1.", "-٣", "-3\n", "-3\n\n", "--5", "-x y",
         "--seed 3", "-x", "--bogus", "--seed=--", "--json=--", "--weights=--"]


def _typed(flag, kind):
    """Every way to type one option: flag or unique prefix, value apart or after "="."""
    spellings = [flag[:end] for end in range(3, len(flag) + 1)]
    if kind == "switch":
        return [[spelling] for spelling in spellings]
    values = INTS if kind == "int" else TEXTS
    return [group for spelling in spellings for value in values
            for group in ([spelling, value], [f"{spelling}={value}"])] + [
        [f"{spelling}={CUBICS[2]}"] for spelling in spellings if kind == "text"]   # not apart


TYPED = {flag: _typed(flag, kind) for options in SPECS.values() for flag, kind, _ in options}
# the same, and each valued flag followed by an edge token, which both parsers may refuse
LOOSE = {flag: TYPED[flag] + ([] if kind == "switch" else [[flag, edge] for edge in EDGES])
         for options in SPECS.values() for flag, kind, _ in options}
VOCABULARY = st.one_of(st.sampled_from(EDGES), st.sampled_from([
    *SPECS, *PREFIXES, *SUITE_NAMES, *CUBICS, *INTS, *TEXTS, "x", "scroll-check",
    *(f"{prefix}={value}" for prefix in PREFIXES[::2] for value in ("3", "x", ""))]))


def _outcome(parse, argv):
    """("ok", values), ("help",) or ("refuse", text) for one parser on argv."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        try:
            values = parse(list(argv))
        except ConfigurationError as error:
            return "refuse", str(error)
        except SystemExit as stop:     # argparse ends a help screen so
            assert stop.code == 0
            values = None
    if values is None:
        assert out.getvalue().startswith("usage: fano72")
        return ("help",)
    return "ok", values


REFERENCE = build_parser()


def _reference(argv):
    namespace = vars(REFERENCE.parse_args(argv))
    namespace.pop("func")
    return namespace


@st.composite
def _valid(draw, command=None, suite=True, anything=False):
    """Token groups, [command] first, that both parsers accept unless anything is set;
    verify's suite goes anywhere."""
    command = command or draw(st.sampled_from(sorted(SPECS)))
    options = SPECS[command]
    chosen = [flag for flag, _, required in options if required]
    chosen += draw(st.lists(st.sampled_from([flag for flag, _, _ in options]), max_size=3))
    pools = LOOSE if anything else TYPED
    groups = draw(st.permutations([draw(st.sampled_from(pools[flag])) for flag in chosen]))
    if command == "verify" and suite and draw(st.booleans()):
        name = draw(st.sampled_from(SUITE_NAMES))
        at = draw(st.integers(0, len(groups)))
        groups.insert(at, draw(st.sampled_from([[name], [name, "--"], ["--", name]]))
                      if at == len(groups) else [name])
    return [[command], *groups]


def _flat(groups):
    return [token for group in groups for token in group]


@st.composite
def _noisy(draw):
    """An argv built as a valid one, with up to three vocabulary tokens put anywhere
    and at times a "--" and tokens after it, or vocabulary alone."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(VOCABULARY, max_size=6))
    argv = _flat(draw(_valid(anything=True)))
    for _ in range(draw(st.integers(0, 3))):
        argv.insert(draw(st.integers(0, len(argv))), draw(VOCABULARY))
    if draw(st.integers(0, 3)) == 0:
        argv += ["--", *draw(st.lists(VOCABULARY, max_size=2))]
    return argv


@st.composite
def _defective(draw):
    """(argv with exactly one defect, a fragment of the refusal both parsers must print)."""
    defect = draw(st.sampled_from(["unknown-command", "missing-command", "unknown-suite",
                                   "missing-required", "missing-value", "non-integer",
                                   "switch-value", "unrecognized", "ambiguous"]))
    commands = {"unknown-suite": ["verify"], "missing-required": ["hilbert", "wps"],
                "switch-value": ["hilbert", "wps"], "non-integer": ["verify", "hilbert"]}
    command = draw(st.sampled_from(commands.get(defect, sorted(SPECS))))
    groups = draw(_valid(command, suite=False))
    if command == "verify" and draw(st.booleans()):     # first: no defect below comes after it
        groups.insert(1, [draw(st.sampled_from(SUITE_NAMES))])
    between = draw(st.integers(1, len(groups)))         # a place between two groups
    if defect == "unknown-command":
        groups[0] = [draw(st.sampled_from(["scroll-check", "verif", "x", "-3", "", "a b"]))]
        return _flat(groups), "argument command: invalid choice: "
    if defect == "missing-command":
        return draw(st.sampled_from([[], ["--"], ["--x"], ["-q", "--bogus", "--"]])), (
            "the following arguments are required: command")
    if defect == "unknown-suite":
        if len(groups) > 1 and groups[1][0] in SUITE_NAMES:
            del groups[1]
        groups.insert(1, [draw(st.sampled_from(["x", "al", "-3", "", "theorems", "a b"]))])
        return _flat(groups), "argument suite: invalid choice: "
    if defect == "missing-required":
        gone = draw(st.sampled_from([flag for flag, _, required in SPECS[command] if required]))
        groups = [group for group in groups if not gone.startswith(group[0].partition("=")[0])]
        return _flat(groups), "the following arguments are required: "
    if defect == "missing-value":
        flag = draw(st.sampled_from([flag for flag, kind, _ in SPECS[command] if kind != "switch"]))
        groups.insert(between, [flag[:draw(st.integers(3, len(flag)))]])
        if between < len(groups) - 1 and groups[between + 1][0] in SUITE_NAMES:
            groups.pop(between + 1)     # a suite after it would be its value
        return _flat(groups), f"argument {flag}: expected one argument"
    if defect == "non-integer":
        flag = "--seed" if command == "verify" else "--degree"
        groups.insert(between, draw(st.sampled_from(
            [[flag, "abc"], [f"{flag}=1.5"], [flag, "-1.5"], [f"{flag}="], [flag[:4], "1e3"]])))
        return _flat(groups), f"argument {flag}: invalid int value: "
    if defect == "switch-value":
        flag = "--list" if command == "hilbert" else "--basis"
        spelling = flag[:draw(st.integers(3, len(flag)))]
        groups.insert(between, [f"{spelling}={draw(st.sampled_from(['1', 'x', '']))}"])
        return _flat(groups), f"argument {flag}: ignored explicit argument "
    if defect == "unrecognized":
        taken = command != "verify" or len(groups) > 1 and groups[1][0] in SUITE_NAMES
        extra = draw(st.sampled_from(["--bogus", "-x", "-q=1"] + (["extra", "1"] if taken else [])))
        groups.insert(between if extra.startswith("-") else len(groups), [extra])
        return _flat(groups), f"unrecognized arguments: {extra}"
    groups.insert(between, ["--=1"])
    return _flat(groups), "ambiguous option: --=1 could match --help, "


@hypothesis.settings(max_examples=700, deadline=None, database=None)
@hypothesis.given(st.one_of(_noisy().map(lambda argv: (argv, None)), _defective()))
def test_parse_args_reads_argv_as_argparse_does(case):
    argv, fragment = case
    reference = _outcome(_reference, argv)
    assert (plain := _plain(argv)) is None or reference == ("ok", plain), argv
    if fragment:
        assert reference[0] == "refuse" and fragment in reference[1], (argv, reference)
    elif reference[0] == "refuse" and reference[1].endswith("expected one argument, got '--'"):
        return      # --opt=--: argparse made the value [], parse_args converts "--"
    assert _outcome(parse_args, argv) == reference, argv
