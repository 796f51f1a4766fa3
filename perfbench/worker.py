"""Benchmark worker: runs timed fano72 ops in a fresh interpreter.

Speaks JSON lines: one request per stdin line, one reply per stdout line.

A verify worker lives for the whole run.  ``{"kind": "start", "workload",
"seed", "trace", "head"}`` sets it up; each ``{"kind": "ops", "seconds"}``
runs verify ops for that long, at least one, each untraced op bracketed
by the reference workload of reference.py; ``{"kind": "finish"}`` returns
the digests, the peak RSS and, when tracing, the spans.  The benchmark runs
the CLI and set-up samples between ``ops`` requests, while this worker
waits.  With ``trace`` every second op is traced.

``{"kind": "hilbert", "weights", "degree", "trace", "op"}`` answers one
Hilbert query.  Each query gets its own worker, so fano72's module-level
memo of the Hilbert recursion starts empty and no query is answered from
an earlier one.
"""

from __future__ import annotations

import json
import resource
import sys
from dataclasses import asdict
from time import perf_counter

from fano72 import VerifyConfig, hilbert_count, run_all

import gate
import workloads
from reference import reference_s
from tracing import Tracer


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class VerifySession:
    def __init__(self, workload: str, seed: int, trace: bool, head: int):
        if trace:
            import layers   # only traced runs load the replay code
            self.traced_op = layers.traced_op
        run_all(VerifyConfig())          # warm-up: lazy set-up finishes before timing
        self.ops = workloads.ops(workload, seed)
        self.trace, self.head = trace, head
        self.tracer = Tracer()
        self.count = 0
        self.inputs, self.outputs = gate.Digest(head), gate.Digest(head)

    def run(self, seconds: float) -> dict:
        op_s, op_ref, failures, head_records = [], [], [], []
        deadline = perf_counter() + seconds
        first = self.count
        before = None                   # reference time just before the next untraced op
        while True:
            op = next(self.ops)
            if self.trace and self.count % 2 == 1:
                self.tracer.op = self.count
                records = self.traced_op(self.tracer, op)
                before = None
            else:
                config = VerifyConfig(xi_text=op["xi"], suite="all", seed=op["seed"])
                if before is None:
                    before = reference_s()
                start = perf_counter()
                results = run_all(config)
                op_s.append(perf_counter() - start)
                after = reference_s()
                op_ref.append(2 * op_s[-1] / (before + after))
                before = after
                records = [asdict(r) for r in results]
            records = [gate.without_elapsed(r) for r in records]
            reason = gate.verify_failure(records)
            if reason:
                failures.append({"input": op, "reason": reason})
            if self.count < self.head:
                head_records.append(records)
            self.inputs.update(op)
            self.outputs.update(records)
            self.count += 1
            if perf_counter() >= deadline and self.count >= self.head:
                break
        return {"ops": self.count - first, "op_s": op_s, "op_ref": op_ref,
                "failures": failures, "head_records": head_records}

    def finish(self) -> dict:
        reply = {"ops": self.count, "inputs_sha256": self.inputs.hexdigest(),
                 "outputs_sha256": self.outputs.hexdigest(),
                 "head_outputs_sha256": self.outputs.head_hex, "peak_rss_kib": _peak_rss_kib()}
        return {**reply, **trace_reply(self.tracer)}


def trace_reply(tracer: Tracer) -> dict:
    return {"spans": tracer.spans, "counts": [[op, c] for op, c in tracer.counts.items()]}


def hilbert(request: dict) -> dict:
    weights, degree = tuple(request["weights"]), request["degree"]
    tracer = Tracer()
    reply = {}
    if request["trace"]:
        tracer.op = request["op"]
        with tracer.span("op"), tracer.span("grading.hilbert"):
            count = hilbert_count(weights, degree)
    else:
        before = reference_s()
        start = perf_counter()
        count = hilbert_count(weights, degree)
        seconds = perf_counter() - start
        reply = {"op_s": seconds, "op_ref": 2 * seconds / (before + reference_s())}
    return {"count": count, "peak_rss_kib": _peak_rss_kib(), **reply, **trace_reply(tracer)}


def main() -> None:
    session = None
    for line in sys.stdin:
        request = json.loads(line)
        kind = request["kind"]
        if kind == "start":
            session = VerifySession(request["workload"], request["seed"],
                                    request["trace"], request["head"])
            reply = {}
        elif kind == "ops":
            reply = session.run(request["seconds"])
        elif kind == "finish":
            reply = session.finish()
        else:
            reply = hilbert(request)
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
