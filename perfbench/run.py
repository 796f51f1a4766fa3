"""fano72 benchmark: end-to-end and per-layer timings of three workloads.

Run from the root of a checkout (standard library only, nothing to install):

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25        # every workload in turn

Workloads (inputs come from --seed through perfbench/workloads.py; fano72
sees only the generated inputs):

* verify-default: repeated ``run_all(VerifyConfig(suite="all", seed=s))`` on
  the default pencil, with per-op seeds drawn from the workload seed.
* verify-sweep: the same certification of seeded admissible pencils, given
  as ``xi_text`` exactly as ``fano72 verify all --xi`` would receive them.
* hilbert-cold: seeded ``hilbert_count(weights, degree)`` queries, each in a
  fresh worker process so that no query is answered from a warm memo.

One process works at a time: ops run one after another in a worker, and
each child is waited for before the next starts.  A run is cut into
SAMPLES slices of ops; after each slice it takes one CLI sample (the slice's
head op as a ``python -m fano72`` subprocess), one interpreter-floor sample
(``python -c pass``) and one set-up sample (``python -c "import fano72"``),
so that every kind of sample spreads over the whole run.

The host this benchmark was tuned on swings between a fast and a contended
speed up to 2x apart, for seconds to minutes at a time, which moves raw
wall times by 20-40% from run to run.  So every timed op and CLI sample is
bracketed by the fixed reference workload of perfbench/reference.py, and
the bounded timings (BENCHMARK.json) are in reference units ("ref"): wall
time divided by the mean reference time just before and after.  They are
op_ref.p50 and op_ref.p90 (per op in the worker) and cli_ref.p50 (the same
op as a ``python -m fano72`` subprocess).  The other bounded metrics are
setup_s, the median wall time of ``import fano72`` in a fresh interpreter,
and peak_rss_mib, the peak RSS of the worker that ran the ops.  The raw
seconds (op_s.p50, op_s.p90, cli_s.p50), the reference time and fail_ratio
are printed too, unbounded.  With --trace 1 every second op is traced and
the per-layer metrics of perfbench/tracing.py are reported instead; the
spans are written to .bench_build/perfbench/ when the run ends.

Every output is checked by perfbench/gate.py.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it is the report: environment, sample counts, input and output
digests, the unbounded metrics and any failures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True    # the benchmark writes nothing outside its checkout

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import reference_s  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
OUT = BUILD / "perfbench"
WORKER = Path(__file__).with_name("worker.py")
REFERENCE = Path(__file__).with_name("reference.py")

SAMPLES = 16               # slices per run, and CLI, floor and set-up samples
REFERENCE_PROCESS_UNITS = 10   # reference units in the process a CLI sample is divided by
TIMEOUT_S = 120            # per child process

END_TO_END = (("op_ref.p50", "ref"), ("op_ref.p90", "ref"), ("cli_ref.p50", "ref"),
              ("setup_s", "s"), ("peak_rss_mib", "MiB"))


@dataclass
class Run:
    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failures: list[dict] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    op_ref: list[float] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: dict = field(default_factory=dict)

    def check(self, where: str, op: dict, reason: str | None) -> None:
        """Count one attempted op, and its failure if the gate gave a reason."""
        self.attempted += 1
        if reason:
            self.failures.append({"where": where, "input": op, "reason": reason})

    def result(self) -> dict:
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures),
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in self.metrics.items()}}


def child_env() -> dict[str, str]:
    """Environment of every child: fano72 from the checkout's sources, bytecode cached there."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(BUILD / "pycache"))
    return env


def spawn(args: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    """Run one child interpreter to completion; return it and its wall time."""
    start = perf_counter()
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=TIMEOUT_S)
    return done, perf_counter() - start


class Worker:
    """A worker.py child, asked one JSON line at a time; closing it waits for its exit."""

    def __init__(self):
        self.process = subprocess.Popen([sys.executable, "-S", str(WORKER)],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True, env=child_env(), cwd=ROOT)

    def ask(self, request: dict) -> dict:
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.process.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class VerifySource:
    """Verify ops in one worker that lives for the run; CLI samples are `verify all`."""

    def __init__(self, run: Run):
        self.run = run
        self.worker = Worker()
        self.worker.ask({"kind": "start", "workload": run.workload, "seed": run.seed,
                         "trace": run.trace, "head": SAMPLES})
        self.head_records: list[list[dict]] = []

    def slice(self, seconds: float) -> None:
        reply = self.worker.ask({"kind": "ops", "seconds": seconds})
        self.run.op_s += reply["op_s"]
        self.run.op_ref += reply["op_ref"]
        self.head_records += reply["head_records"]
        for failure in reply["failures"]:
            self.run.check("op", failure["input"], failure["reason"])
        self.run.attempted += reply["ops"] - len(reply["failures"])

    def cli(self, index: int, op: dict) -> float:
        OUT.mkdir(parents=True, exist_ok=True)
        jsonl = OUT / "cli.jsonl"
        jsonl.unlink(missing_ok=True)
        args = ["-m", "fano72", "verify", "all", "--seed", str(op["seed"]), "--json", str(jsonl)]
        if op["xi"] is not None:
            args += ["--xi", op["xi"]]
        done, wall = spawn(args)
        text = jsonl.read_text() if jsonl.is_file() else ""
        jsonl.unlink(missing_ok=True)
        self.run.check("cli", op, gate.cli_verify_failure(done.returncode, text,
                                                          self.head_records[index]))
        return wall

    def finish(self) -> dict:
        return self.worker.ask({"kind": "finish"})

    def close(self) -> None:
        self.worker.close()


class HilbertSource:
    """One fresh worker per Hilbert query; CLI samples are `fano72 hilbert`."""

    def __init__(self, run: Run):
        self.run = run
        self.ops = workloads.ops(run.workload, run.seed)
        self.count = 0
        self.inputs, self.outputs = gate.Digest(SAMPLES), gate.Digest(SAMPLES)
        self.rss: list[int] = []
        self.spans: list[list] = []
        self.counts: list[list] = []

    def slice(self, seconds: float) -> None:
        deadline = perf_counter() + seconds
        while True:
            query = next(self.ops)
            traced = self.run.trace and self.count % 2 == 1
            worker = Worker()
            try:
                reply = worker.ask({"kind": "hilbert", "trace": traced, "op": self.count, **query})
            finally:
                worker.close()
            expected = gate.coin_change_count(query["weights"], query["degree"])
            self.run.check("op", query, gate.hilbert_failure(reply["count"], expected))
            if traced:
                self.spans += reply["spans"]
                self.counts += reply["counts"]
            else:
                self.run.op_s.append(reply["op_s"])
                self.run.op_ref.append(reply["op_ref"])
                self.rss.append(reply["peak_rss_kib"])
            self.inputs.update(query)
            self.outputs.update(reply["count"])
            self.count += 1
            if perf_counter() >= deadline:
                break

    def cli(self, index: int, query: dict) -> float:
        weights = ",".join(str(w) for w in query["weights"])
        done, wall = spawn(["-m", "fano72", "hilbert", "--weights", weights,
                            "--degree", str(query["degree"])])
        expected = gate.coin_change_count(query["weights"], query["degree"])
        self.run.check("cli", query, gate.cli_hilbert_failure(done.returncode, done.stdout,
                                                              expected))
        return wall

    def finish(self) -> dict:
        return {"ops": self.count, "inputs_sha256": self.inputs.hexdigest(),
                "outputs_sha256": self.outputs.hexdigest(),
                "head_outputs_sha256": self.outputs.head_hex,
                "peak_rss_kib": max(self.rss, default=0),
                "spans": self.spans, "counts": self.counts}

    def close(self) -> None:
        pass


def git_commit() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def p50_p90(values: list[float]) -> tuple[float, float]:
    return statistics.median(values), statistics.quantiles(values, n=10)[-1]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    run = Run(workload, seed, trace)
    head = list(itertools.islice(workloads.ops(workload, seed), SAMPLES))
    spawn(["-m", "fano72", "hilbert", "--weights", "1,1", "--degree", "1"])  # fills bytecode cache
    source = HilbertSource(run) if workload == "hilbert-cold" else VerifySource(run)
    cli_s, cli_ref, floor, setup, refs = [], [], [], [], []
    try:
        for index, op in enumerate(head):
            source.slice(seconds / SAMPLES)
            cli_s.append(source.cli(index, op))
            reference_process = spawn([str(REFERENCE), str(REFERENCE_PROCESS_UNITS)])[1]
            cli_ref.append(cli_s[-1] / reference_process)
            refs.append(reference_s())
            floor.append(spawn(["-c", "pass"])[1])
            setup.append(spawn(["-c", "import fano72"])[1])
        final = source.finish()
    finally:
        source.close()

    op_s50, op_s90 = p50_p90(run.op_s)
    op_ref50, op_ref90 = p50_p90(run.op_ref)
    run.report.update(
        workload=workload, seed=seed, seconds=seconds, trace=trace,
        environment={"python": platform.python_version(),
                     "implementation": platform.python_implementation(),
                     "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                     "platform": platform.platform(), "git_commit": git_commit(),
                     "interpreter_floor_s": statistics.median(floor)},
        ops=final["ops"], op_samples=len(run.op_s), cli_samples=len(cli_s),
        setup_samples=len(setup),
        inputs_sha256=final["inputs_sha256"], outputs_sha256=final["outputs_sha256"],
        head_outputs_sha256=final["head_outputs_sha256"],
        unbounded={"op_s.p50": op_s50, "op_s.p90": op_s90,
                   "cli_s.p50": statistics.median(cli_s), "reference_s": statistics.median(refs),
                   "fail_ratio": len(run.failures) / run.attempted},
        failures=run.failures[:20])
    if trace:
        run.metrics.update(tracing.per_layer(final["spans"], dict(final["counts"]), run.op_s))
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps({"workload": workload, "seed": seed,
                                    "fields": ["op", "id", "parent", "name", "start_ns", "end_ns"],
                                    "spans": final["spans"]}))
        run.report["spans_file"] = str(path.relative_to(ROOT))
    else:
        run.metrics.update({"op_ref.p50": (op_ref50, "ref"), "op_ref.p90": (op_ref90, "ref"),
                            "cli_ref.p50": (statistics.median(cli_ref), "ref"),
                            "setup_s": (statistics.median(setup), "s"),
                            "peak_rss_mib": (final["peak_rss_kib"] / 1024, "MiB")})
    return run


def print_table(run: Run) -> None:
    report = run.report
    print(f"{run.workload} (seed {run.seed}, trace {int(run.trace)}): {report['ops']} ops, "
          f"{report['op_samples']} untraced, {report['cli_samples']} CLI samples")
    for name, (value, unit) in run.metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    units = {"op_s.p50": "s", "op_s.p90": "s", "cli_s.p50": "s", "reference_s": "s",
             "fail_ratio": ""}
    for name, value in report["unbounded"].items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}  (unbounded)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fano72" / "__init__.py").is_file():
        print(f"fano72 sources not found under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        run = measure(name, args.seed, args.seconds, bool(args.trace))
        print_table(run)
        print(json.dumps({"report": run.report}))
        results[name] = run.result()
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
