import ast
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict
from math import comb
from pathlib import Path

import pytest

import fano72
from fano72 import (ConfigurationError, LinearSystem, Polynomial, VerifyConfig,
                    build_degree12_system, checks, generators, grading, linalg,
                    linsys, poly, ratmap, run_all, wps)
from fano72.checks import (CheckRecord, resolve_pencil, scroll_suite,
                           theorem_suite)
from fano72.cli import MAX_LISTED, main
from fano72.grading import MAX_DEGREE, hilbert_count
from fano72.linsys import P3_VARS

from oracles import closed_sum_count, fraction_constructions

X1, X2, X3, X4 = generators(P3_VARS)


def _strip_elapsed(records):
    rows = []
    for r in records:
        row = asdict(r)
        row.pop("elapsed")
        rows.append(row)
    return rows


def test_default_run_passes_everything():
    records = run_all(VerifyConfig())
    assert len(records) >= 25
    assert all(r.status == "PASS" for r in records)
    assert all(r.claim for r in records)


def test_report_is_deterministic_up_to_elapsed():
    config = VerifyConfig(seed=3)
    assert _strip_elapsed(run_all(config)) == _strip_elapsed(run_all(config))


def test_suite_filtering():
    records = run_all(VerifyConfig(suite="wps"))
    assert records
    assert all(r.check_id.startswith("wps.") for r in records)
    sprime = run_all(VerifyConfig(suite="sprime"))
    assert {r.check_id for r in sprime} == {
        "system-s.sprime.rank", "system-s.sprime.dim", "system-s.sprime.span"}


def test_all_runs_each_suite_in_suites_order():
    by_suite = [run_all(VerifyConfig(suite=suite)) for suite in fano72.SUITES]
    assert _strip_elapsed(run_all(VerifyConfig())) == _strip_elapsed(sum(by_suite, []))


def test_unknown_suite_is_a_configuration_error():
    with pytest.raises(ConfigurationError):
        run_all(VerifyConfig(suite="nonsense"))


def test_a_config_resolves_its_pencil_on_first_read():
    # perfbench builds each config before its op timer starts: a constructor
    # that resolved the pencil would move parsing and root search out of the op.
    config = VerifyConfig(xi_text="x1^3")
    with pytest.raises(ConfigurationError):
        config.pencil
    with pytest.raises(ConfigurationError):
        run_all(config)


def test_repeated_root_cubic_is_a_configuration_error():
    doubled = (X2 - X1) ** 2 * (X2 - 2 * X1)
    with pytest.raises(ConfigurationError):
        run_all(VerifyConfig(xi_text=str(doubled)))


def test_unparsable_cubic_is_a_configuration_error():
    with pytest.raises(ConfigurationError):
        resolve_pencil("x2^3 +")


def test_alternative_pencil_passes():
    pencil_text = "x2^3 - 13*x1*x2^2 + 47*x1^2*x2 - 35*x1^3"  # roots 1, 5, 7
    records = run_all(VerifyConfig(xi_text=pencil_text))
    assert all(r.status == "PASS" for r in records)


def test_theorem_suite_fails_on_a_tampered_degree12_system():
    pencil = resolve_pencil(None)
    full = build_degree12_system(pencil)
    tampered = LinearSystem(P3_VARS, 12, [g for g in full.generators if g != X2 ** 12])
    records = {r.check_id: r for r in theorem_suite(pencil, tampered)}
    assert records["theorem.rank.pullback"].computed == "38"
    assert records["theorem.rank.direct"].computed == "39"
    assert records["theorem.containment.forward"].computed == "38/38"
    assert records["theorem.containment.reverse"].computed == "38/39"
    assert records["theorem.identity"].computed == "FAIL"
    assert records["theorem.identity"].status == "FAIL"


def test_theorem_suite_fails_on_a_generator_off_the_conditions():
    # x2^11*x4 lies on an end column of block (0, 1): x1 does not divide its form
    pencil = resolve_pencil(None)
    grown = LinearSystem(P3_VARS, 12, build_degree12_system(pencil).generators + (X2 ** 11 * X4,))
    records = {r.check_id: r for r in theorem_suite(pencil, grown)}
    assert records["theorem.rank.pullback"].computed == "40"
    assert records["theorem.rank.direct"].computed == "39"
    assert records["theorem.containment.forward"].computed == "39/40"
    assert records["theorem.containment.reverse"].computed == "39/39"
    assert records["theorem.identity"].computed == "FAIL"


def test_run_all_builds_each_system_once(monkeypatch):
    calls = []

    def counted(name, function, degree=lambda args, result: None):
        def wrapper(*args):
            result = function(*args)
            calls.append((name, degree(args, result)))
            return result
        return wrapper

    # Counted wherever the suites could reach them: the builders call the
    # pullback_system that linsys imports from ratmap.
    pullback = counted("pullback", ratmap.pullback_system, lambda _, system: system.degree)
    certificate = counted("certificate", linsys.conditions_report, lambda args, _: args[1].degree)
    for name, wrapper in (("pullback_system", pullback), ("conditions_report", certificate),
                          ("nullspace_basis", counted("nullspace", linalg.nullspace_basis))):
        for module in (linalg, ratmap, linsys, checks):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    for suite, expected in (("all", [("certificate", 6), ("certificate", 12),
                                     ("pullback", 6), ("pullback", 12)]),
                            ("sprime", [("certificate", 6), ("pullback", 6)])):
        calls.clear()
        assert all(r.status == "PASS" for r in run_all(VerifyConfig(suite=suite)))
        assert sorted(calls) == expected, suite


def test_run_all_merges_terms_69_times(monkeypatch):
    # A deterministic guard on the merge loop, the costliest construction: one
    # default run_all merges 69 times.  Every product merges, one-term factors
    # too (the records' X1*X2*X4*xi, X3*xi and X4^12), and so does a scalar
    # operand (the scale of PencilCubic.from_roots): 59 when those were
    # shifts, whose deletion measured inside the benchmark's noise; 62 when
    # from_roots merged each factor X2 - root*X1, 64 when pullback_system also
    # checked its basis through a merged polynomial, once per system; 75 when
    # each of the records' three powers started from the constant 1, merging
    # it and then a product with it.  A change that brings a merge back to
    # the build path fails here without any timing.
    merges = []
    merge = poly._merged_terms

    def counted(terms):
        merges.append(None)
        return merge(terms)

    monkeypatch.setattr(poly, "_merged_terms", counted)
    assert all(r.status == "PASS" for r in run_all(VerifyConfig()))
    assert len(merges) == 69


def test_run_all_makes_seven_fractions():
    # Every system is integral and every record is projective, so a default run
    # stays in int: the three roots, the scale and its division by the roots'
    # denominators in PencilCubic.from_roots, and the two self-intersections
    # of the wps suite.  44 at a rational random member and a pencil cubic
    # multiplied out over Fraction roots.
    records, made = fraction_constructions(lambda: run_all(VerifyConfig()))
    assert all(r.status == "PASS" for r in records)
    assert made == 7


def test_run_all_lists_the_anticanonical_basis_twice(monkeypatch):
    # once for the wps suite's basis records and once for the degree-12
    # pullback; scroll.match.wps counts the monomials without listing them.
    listed = []

    def counted(weights, degree):
        listed.append((tuple(weights), degree))
        return grading.enumerate_monomials(weights, degree)

    for module in (wps, linsys):
        monkeypatch.setattr(module, "enumerate_monomials", counted)
    assert all(r.status == "PASS" for r in run_all(VerifyConfig()))
    assert listed.count(((1, 1, 4, 6), 12)) == 2


def test_a_crashed_check_fails_with_its_error_and_fails_the_run(monkeypatch, capsys):
    def crash(weights, degree):
        raise RuntimeError("table overflow")

    monkeypatch.setattr(checks, "hilbert_count", crash)
    records = {r.check_id: r for r in run_all(VerifyConfig(suite="wps"))}
    crashed = records.pop("wps.hilbert.1146")
    assert (crashed.status, crashed.computed, crashed.expected) == (
        "FAIL", "error: table overflow", "39")
    assert len(records) == 8
    assert all(r.status == "PASS" for r in records.values())
    assert main(["verify", "wps"]) == 1
    assert "1 failed" in capsys.readouterr().out


def test_scroll_suite_alone():
    records = scroll_suite()
    assert all(r.status == "PASS" for r in records)
    assert any(r.claim == "plumbing" for r in records)


# -- command line -------------------------------------------------------------

def test_cli_verify_all_writes_json(tmp_path, capsys):
    path = tmp_path / "report.jsonl"
    assert main(["verify", "all", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out
    lines = path.read_text().strip().splitlines()
    assert len(lines) >= 25
    first = json.loads(lines[0])
    assert set(first) == {"check_id", "description", "claim", "status",
                          "computed", "expected", "elapsed"}
    assert all(json.loads(line)["status"] == "PASS" for line in lines)


def test_cli_verify_suite_positional_and_flag(capsys):
    assert main(["verify", "wps"]) == 0
    positional = capsys.readouterr().out
    assert positional.splitlines()[0].startswith("PASS  wps.weight.1146")
    assert "wps.degree.1146" in positional
    assert main(["verify", "--suite", "wps"]) == 2
    assert capsys.readouterr().err == "configuration error: unrecognized arguments: --suite\n"


def test_cli_verify_theorem_with_alternate_pencil(capsys):
    assert main(["verify", "theorem", "--xi",
                 "x2^3 - 13*x1*x2^2 + 47*x1^2*x2 - 35*x1^3"]) == 0
    assert "theorem.identity" in capsys.readouterr().out


def test_cli_rejects_bad_pencil(capsys):
    doubled = (X2 - X1) ** 2 * (X2 - 2 * X1)
    assert main(["verify", "--xi", str(doubled)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_pencil_error_renders_roots_as_text(capsys):
    assert main(["verify", "--xi", "x2^3 - x1*x2^2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("configuration error: ")
    assert "got 0, 0, 1" in captured.err
    assert "Fraction(" not in captured.err


def test_cli_unwritable_json_path_is_a_configuration_error(monkeypatch, tmp_path, capsys):
    def no_run(config):
        raise AssertionError("checks ran before the --json path was opened")

    monkeypatch.setattr(checks, "run_all", no_run)
    path = tmp_path / "missing" / "out.jsonl"
    assert main(["verify", "--json", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not path.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("suite", ["wps", "all"])   # the records fail to fit the buffer in all
def test_cli_failed_json_write_is_a_configuration_error(suite, capsys):
    assert main(["verify", suite, "--json", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("configuration error: cannot write --json output '/dev/full': "
                            "No space left on device\n")
    assert " checks: " not in captured.out


def test_cli_bad_pencil_leaves_the_json_path_untouched(tmp_path, capsys):
    kept = tmp_path / "kept.jsonl"
    kept.write_text("keep\n")
    missing = tmp_path / "missing.jsonl"
    for path in (kept, missing):
        assert main(["verify", "--xi", "x2^3", "--json", str(path)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: invalid pencil cubic")
    assert kept.read_text() == "keep\n"
    assert not missing.exists()


def test_cli_hilbert(capsys):
    assert main(["hilbert", "--weights", "1,1,4,6", "--degree", "12"]) == 0
    assert "39 monomials" in capsys.readouterr().out
    assert main(["hilbert", "--weights", "1,1,4,6", "--degree", "12", "--list"]) == 0
    out = capsys.readouterr().out
    assert "x4^2" in out


def test_cli_hilbert_at_a_large_degree(capsys):
    assert main(["hilbert", "--weights", "1,1,4,6", "--degree", "20000"]) == 0
    assert capsys.readouterr().out.endswith(": 55605568890 monomials\n")
    assert closed_sum_count(4, 6, 20000) == 55605568890


def test_cli_hilbert_at_the_degree_cap_reads_the_quasi_polynomial(capsys):
    # the table stops at r + 3*lcm(1, 1, 4, 6) = 40, not at the degree
    started = time.perf_counter()
    assert main(["hilbert", "--weights", "1,1,4,6", "--degree", str(MAX_DEGREE)]) == 0
    assert time.perf_counter() - started < 2
    assert capsys.readouterr().out.endswith(": 6944569445111112 monomials\n")
    assert closed_sum_count(4, 6, MAX_DEGREE) == 6944569445111112


def test_cli_hilbert_list_cap(capsys):
    assert main(["hilbert", "--weights", "1,1,4,6", "--degree", "20000", "--list"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: --list would print 55605568890")
    assert captured.err.count("\n") == 1
    assert main(["hilbert", "--weights", "1,1", "--degree", str(MAX_LISTED - 1), "--list"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + MAX_LISTED


def test_cli_hilbert_rejects_bad_weights(capsys):
    for weights, degree in (("1,zero", "3"), ("1,0", "3"), ("1,1", "-3"),
                            ("1,1,4,6", str(MAX_DEGREE + 1)),
                            (",".join(["1"] * 3000), str(MAX_DEGREE))):
        assert main(["hilbert", "--weights", weights, "--degree", degree]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1


def test_cli_wps(capsys):
    assert main(["wps", "--weights", "1,1,4,6"]) == 0
    out = capsys.readouterr().out
    assert "anticanonical weight:            12" in out
    assert "72" in out
    assert "39" in out


def test_cli_wps_rejects_ill_formed_weights(capsys):
    assert main(["wps", "--weights", "2,2,4"]) == 2
    assert main(["wps", "--weights", "2,2,2,3"]) == 2
    assert capsys.readouterr().err.endswith("omitting entry 3 leaves gcd 2\n")


def test_cli_wps_checks_many_weights_in_linear_time(capsys):
    # one gcd over all weights but one, per omitted weight, took 1.9 s for 6000
    started = time.perf_counter()
    assert main(["wps", "--weights", ",".join(["1"] * 20000)]) == 2
    assert time.perf_counter() - started < 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: 20000 weights at degree 20000 exceed")
    assert err.count("\n") == 1


@pytest.mark.parametrize("weight, degree, count", [(1, 1, 1500), (1, 0, 1), (2, 1, 0)])
def test_cli_lists_the_monomials_of_1500_weights(weight, degree, count, capsys):
    # one recursion level per weight ended each of these in a RecursionError
    started = time.perf_counter()
    assert main(["hilbert", "--weights", ",".join([str(weight)] * 1500),
                 "--degree", str(degree), "--list"]) == 0
    assert time.perf_counter() - started < 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(f"), degree {degree}: {count} monomials")
    assert len(lines) == 1 + count


def test_cli_lists_past_a_large_last_weight_in_linear_time(capsys):
    # forcing the last exponent walked every dead-end prefix: 11 s at degree 8000
    started = time.perf_counter()
    assert main(["hilbert", "--weights", "1,1,1000000", "--degree", "8000", "--list"]) == 0
    assert time.perf_counter() - started < 2
    lines = capsys.readouterr().out.splitlines()
    count = hilbert_count((1, 1, 1000000), 8000)
    assert lines[0].endswith(f"degree 8000: {count} monomials")
    assert len(lines) == 1 + count == 8002
    assert lines[1:3] == ["  x1^8000", "  x1^7999*x2"]


OVER_LONG = "1" * 5000
EIGHTS = "8" * 4000
# (x2 - a*x1)^2 * (x2 - b*x1): a double root of 101 digits, inside the bit cap
DOUBLED_TALL = str((X2 - (10 ** 100 + 267) * X1) ** 2 * (X2 - (10 ** 99 + 289) * X1))


@pytest.mark.parametrize("argv", [
    ["verify", "--xi", OVER_LONG + "*x2^3"],
    ["verify", "--xi", "x2^3 - x1^" + OVER_LONG],
    ["verify", "theorem", "--xi", "7" * 4000 + "*x2^3 - x1^3"],
    ["verify", "--xi", "9" * 4300 + "*x2^3 + x2^3 + x1"],
    ["wps", "--weights", ",".join(["2"] * 20000)],
    ["hilbert", "--weights", ",".join(["1"] * 20000) + ",0", "--degree", "3"],
    ["hilbert", "--weights", ",".join(["1"] * 20000) + ",a", "--degree", "3"],
    ["hilbert", "--weights", OVER_LONG, "--degree", "3"],
    ["hilbert", "--weights", "1,1", "--degree", OVER_LONG],
    ["verify", "--seed", "abc"],
    ["verify", "x" * 5000],
    ["x" * 5000],
    ["wps", "--weights", "1,1", *["a\n"] * 5000],
    ["wps", "--weights", ",".join(["1"] * 1500), "--basis"],
    ["hilbert", "--weights", ",".join(["1"] * 2000), "--degree", "2000", "--list"],
    ["wps", "--weights", ",".join(["1"] * 1500)],
    ["hilbert", "--weights", ",".join(["1"] * 446), "--degree", "2", "--list"],
    ["hilbert", "--weights", "1", "--degree=--"],
    ["wps", "--weights=--"],
    ["verify", "all", "--xi=--"],
    ["verify", "all", "--seed=--"],
    ["hilbert", "--weights", "1,1", "--degree", "9" * 4000],
    ["hilbert", "--weights=-" + "9" * 4000 + ",1", "--degree", "3"],
    ["wps", "--weights", f"{EIGHTS},{EIGHTS},1"],
    ["wps", "--weights", f"1,1,{EIGHTS}"],
    ["verify", "wps", "--json", "/nonexistent/" + "a" * 5000],
    ["verify", "--xi", DOUBLED_TALL],
    ["hilbert", "--list=1", "--weights", "1", "--degree", "1"],
    ["hilbert", "--weights", "--degree", "3"],
    ["--x", "verify"],
    ["wps", "--=1"],
    ["verify", "--seed"],
], ids=["coefficient-over-int-limit", "exponent-over-int-limit", "coefficient-over-bit-cap",
        "sum-over-int-limit", "wps-many-weights", "hilbert-zero-weight",
        "hilbert-non-integer-weight", "hilbert-weight-over-int-limit",
        "degree-over-int-limit", "non-integer-seed", "unknown-suite", "unknown-command",
        "many-unrecognized-arguments", "wps-basis-of-a-900-digit-count",
        "hilbert-list-of-a-1200-digit-count", "wps-self-intersection-over-4300-digits",
        "hilbert-list-over-the-exponent-cap", "degree-double-dash", "weights-double-dash",
        "xi-double-dash", "seed-double-dash", "degree-of-4000-digits",
        "weight-of-4000-digits", "wps-gcd-of-4000-digits", "wps-degree-of-4000-digits",
        "json-path-of-5000-characters", "pencil-double-root-of-101-digits",
        "switch-given-a-value", "option-in-place-of-a-value", "unknown-option-before-the-command",
        "ambiguous-empty-prefix", "missing-value-at-the-end"])
def test_cli_refuses_adversarial_input_in_one_short_line(argv, capsys):
    started = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - started < 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    assert len(err.encode()) < 200


def test_cli_names_the_degree_cap_for_a_degree_str_cannot_print(capsys):
    # A = 10^4300 - 1 parses, but the anticanonical degree 2A has 4301 digits
    a = 10 ** 4300 - 1
    assert main(["wps", "--weights", f"{a},{a - 1},1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert len(err.encode()) < 200
    assert "exceeds the cap of 1000000" in err


def test_fuzzed_cli_arguments_end_in_a_result_or_one_error_line(capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    plane = st.tuples(st.integers(-50, 50), st.integers(-50, 50))

    def product(scale, planes):
        cubic = Polynomial.constant(P3_VARS, scale)
        for a, b in planes:
            cubic = cubic * (b * X2 - a * X1)
        return str(cubic)

    cubic = st.one_of(
        st.builds(product, st.integers(-9, 9), st.lists(plane, min_size=3, max_size=3)),
        st.text("x12^*/+- 0379", max_size=30))
    # integers of up to 4000 digits, under int()'s 4300-digit limit
    huge = st.integers(-10 ** 4000 + 1, 10 ** 4000 - 1)
    weights = st.one_of(st.lists(st.integers(-2, 40) | huge, min_size=1, max_size=6).map(
                            lambda ws: ",".join(map(str, ws))),
                        st.text("0123,a -", max_size=20),
                        st.builds(lambda w, n: ",".join([str(w)] * n),
                                  st.integers(1, 3), st.integers(1, 1500)))

    def integer_text(low, high):
        return st.one_of(st.integers(low, high).map(str), huge.map(str),
                         st.text("0129-+ .e_a\n", max_size=12))

    argv = st.one_of(st.builds(lambda xi, seed: ["verify", "wps", f"--xi={xi}", f"--seed={seed}"],
                               cubic, integer_text(-5, 10 ** 6)),
                     st.builds(lambda ws, d, flags: ["hilbert", f"--weights={ws}", f"--degree={d}",
                                                     *flags],
                               weights, integer_text(-5, 10 ** 4), st.sampled_from([[], ["--list"]])),
                     st.builds(lambda ws, flags: ["wps", f"--weights={ws}", *flags],
                               weights, st.sampled_from([[], ["--basis"]])))

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(argv)
    def check(argv):
        started = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - started < 2
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code == 2:
            assert err.startswith("configuration error: ")
            assert err.count("\n") == 1
            assert len(err.encode()) < 200

    check()


def test_cli_closed_pipe_exits_without_a_traceback():
    src = str(Path(fano72.__file__).resolve().parents[1])
    command = [sys.executable, "-m", "fano72", "hilbert", "--weights", "1,1,1,3",
               "--degree", "100", "--list"]      # 60690 lines, far more than a pipe buffers
    process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               env={**os.environ, "PYTHONPATH": src})
    assert process.stdout.readline() == b"weights (1, 1, 1, 3), degree 100: 60690 monomials\n"
    process.stdout.close()
    assert process.wait(timeout=30) == 1
    assert process.stderr.read() == b""
    process.stderr.close()


def _python(*args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """A fresh interpreter run with args on this checkout's sources, stdout block-buffered."""
    env = {**os.environ, "PYTHONPATH": str(Path(fano72.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=60, env=env)


def test_cli_process_writes_everything_before_its_fast_exit(tmp_path, capsys):
    # python -m fano72 ends in os._exit once main returns: stdout, stderr and the
    # --json file must be complete by then.
    path = tmp_path / "report.jsonl"
    done = _python("-m", "fano72", "verify", "all", "--json", str(path))
    assert (done.returncode, done.stderr) == (0, "")
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for record in records:
        record.pop("elapsed")
    in_process = _strip_elapsed(run_all(VerifyConfig()))
    assert list(map(json.dumps, records)) == list(map(json.dumps, in_process))
    assert main(["verify", "all"]) == 0
    *lines, summary = done.stdout.splitlines()
    *expected, _ = capsys.readouterr().out.splitlines()
    assert lines == expected and len(lines) == 45
    assert summary.startswith("45 checks: 45 passed, 0 failed (")


def test_cli_process_refusal_exits_2_and_leaves_the_json_path(tmp_path):
    path = tmp_path / "report.jsonl"
    path.write_text("kept\n", encoding="utf-8")
    done = _python("-m", "fano72", "verify", "all", "--xi", "x1^3", "--json", str(path))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("configuration error: invalid pencil cubic: ")
    assert done.stderr.count("\n") == 1
    assert path.read_text(encoding="utf-8") == "kept\n"
    missing = tmp_path / "missing.jsonl"
    assert _python("-m", "fano72", "verify", "--xi", "x1^3", "--json", str(missing)).returncode == 2
    assert not missing.exists()


def test_cli_process_skips_exit_hooks_once_flushed():
    done = _python("-c", "import atexit, sys; atexit.register(print, 'hook'); "
                         "sys.argv[1:] = ['hilbert', '--weights', '1', '--degree', '2']; "
                         "from fano72.cli import console_main; console_main()")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "weights (1,), degree 2: 1 monomials\n"


def test_cli_process_takes_the_normal_exit_on_an_exception_or_a_failed_flush():
    done = _python("-c", "from fano72 import cli; cli.main = lambda: 1 // 0; cli.console_main()")
    assert done.returncode == 1
    assert done.stderr.startswith("Traceback") and "ZeroDivisionError" in done.stderr
    # A refused --json leaves the records in stdout's buffer, and the pipe has no reader:
    # the flush fails, and the interpreter's own exit reports it, as it did before.
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    read, write = os.pipe()
    os.close(read)
    try:
        done = _python("-m", "fano72", "verify", "wps", "--json", "/dev/full", stdout=write)
    finally:
        os.close(write)
    assert done.returncode == 120
    assert done.stderr.startswith("configuration error: cannot write --json output '/dev/full'")
    assert "BrokenPipeError" in done.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffering", [(), ("-u",)], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", [("hilbert", "--weights", "1,1", "--degree", "3"),
                                     ("wps", "--weights", "1,1,4,6"), ("verify", "wps")],
                         ids=lambda command: command[0])
def test_cli_process_failed_stdout_write_is_one_line_and_exit_2(command, buffering):
    # a full disk fails main's flush, or under -u the first print: either way one line
    with open("/dev/full", "w") as full:
        done = _python(*buffering, "-m", "fano72", *command, stdout=full)
    assert (done.returncode, done.stderr) == (
        2, "configuration error: cannot write standard output: No space left on device\n")


def test_the_installed_script_runs_the_entry_python_m_runs():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    module, function = scripts["fano72"].split(":")
    assert (module, function) == ("fano72.cli", "console_main")
    tree = ast.parse((root / "src" / "fano72" / "__main__.py").read_text(encoding="utf-8"))
    imported = [(node.module, node.level, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    called = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert (imported, called) == ([("cli", 1, function)], [function])


def test_cli_wps_counts_the_basis_and_lists_it_only_under_the_cap(capsys):
    assert main(["wps", "--weights", "1,1,1,2000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: degree 2000003 exceeds the cap")
    assert captured.err.count("\n") == 1
    # degree b + 3 for weights (1, 1, 1, b): x4^0 leaves C(b + 5, 2) monomials, x4^1 C(5, 2)
    assert main(["wps", "--weights", "1,1,1,100000"]) == 0
    expected = comb(100005, 2) + comb(5, 2)
    assert f"basis size:        {expected} (projective dimension {expected - 1})" \
        in capsys.readouterr().out
    assert main(["wps", "--weights", "1,1,1,100000", "--basis"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: --basis would print {expected}")
    assert main(["wps", "--weights", "1,1,1,3", "--basis"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4 + 39


def test_cli_scroll_check(capsys):
    assert main(["verify", "scroll"]) == 0
    assert "scroll.selfint" in capsys.readouterr().out
    assert main(["scroll-check"]) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: argument command: invalid choice: 'scroll-check'")


@pytest.mark.parametrize("argv, names", [
    (["--help"], ["-h", "--help", "verify", "hilbert", "wps"]),
    (["verify", "-h"], ["-h", "--help", "suite", "--xi CUBIC", "--seed SEED", "--json PATH",
                        "all", *fano72.SUITES, *fano72.EXTRA_SUITES]),
    (["hilbert", "--help"], ["-h", "--help", "--weights WEIGHTS", "--degree DEGREE", "--list"]),
    (["wps", "-h"], ["-h", "--help", "--weights WEIGHTS", "--basis"]),
], ids=["top", "verify", "hilbert", "wps"])
def test_cli_help_returns_zero_after_a_screen_of_its_level(argv, names, capsys):
    # main returns, so console_main flushes and exits as for any command
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith(" ".join(["usage: fano72", *argv[:-1]]))
    assert all(name in out for name in names)


def test_cli_exit_code_one_on_any_failure(monkeypatch, capsys):
    records = [CheckRecord("demo.fail", "demo", "plumbing", "FAIL", "1", "2", 0.0)]
    monkeypatch.setattr(checks, "run_all", lambda config: records)
    assert main(["verify"]) == 1
    assert "1 failed" in capsys.readouterr().out


def test_cli_json_lines_are_asdict_dumps_byte_for_byte(monkeypatch, tmp_path):
    # --json writes each record's fields in declaration order without asdict's
    # deep copy; the bytes stay json.dumps(asdict(r)).  cli imports run_all
    # from checks as the command runs, so the records are taken there.
    records = []

    def recorded_run_all(config):
        records.extend(run_all(config))
        return records

    monkeypatch.setattr(checks, "run_all", recorded_run_all)
    for argv in (["verify"], ["verify", "theorem", "--seed", "3"]):
        records.clear()
        path = tmp_path / "report.jsonl"
        assert main(argv + ["--json", str(path)]) == 0
        assert path.read_bytes() == "".join(json.dumps(asdict(r)) + "\n"
                                            for r in records).encode()
    unusual = CheckRecord("demo.fail", "quote \" and \u00e9", "plumbing", "FAIL",
                          "error: \n", "\u2603", float("inf"))
    monkeypatch.setattr(checks, "run_all", lambda config: [unusual])
    assert main(["verify", "--json", str(path)]) == 1
    assert path.read_bytes() == (json.dumps(asdict(unusual)) + "\n").encode()


def test_cli_summary_reports_wall_time(monkeypatch, tmp_path, capsys):
    def slow_run_all(config):
        time.sleep(0.3)
        return [CheckRecord("demo.pass", "demo", "plumbing", "PASS", "1", "1", 0.0)]

    monkeypatch.setattr(checks, "run_all", slow_run_all)
    path = tmp_path / "report.jsonl"
    assert main(["verify", "--json", str(path)]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith("1 checks: 1 passed, 0 failed (")
    assert float(summary.rsplit("(", 1)[1].rstrip("s)")) >= 0.3
    assert json.loads(path.read_text())["elapsed"] == 0.0
