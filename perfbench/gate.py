"""Output-correctness gate of the fano72 benchmark, and run digests.

Every op the benchmark times is checked here, outside the timed region;
a check returns None for a correct output and a one-line reason otherwise.
The reasons feed the run's failed count and fail_ratio.
"""

from __future__ import annotations

import hashlib
import json
import re

VERIFY_RECORDS = 45

_HILBERT_LINE = re.compile(r": (\d+) monomials$", re.MULTILINE)


def verify_failure(records: list[dict]) -> str | None:
    """A `verify all` run is correct when it yields all 45 records, each PASS."""
    if len(records) != VERIFY_RECORDS:
        return f"{len(records)} records, expected {VERIFY_RECORDS}"
    failing = [r["check_id"] for r in records if r["status"] != "PASS"]
    if failing:
        return "not PASS: " + ", ".join(failing)
    return None


def without_elapsed(record: dict) -> dict:
    return {key: value for key, value in record.items() if key != "elapsed"}


def cli_verify_failure(returncode: int, jsonl: str, in_process: list[dict]) -> str | None:
    """The CLI's `--json` records, minus elapsed, must equal the in-process ones."""
    if returncode != 0:
        return f"exit code {returncode}"
    records = [without_elapsed(json.loads(line)) for line in jsonl.splitlines() if line]
    if records != in_process:
        return "JSONL records differ from the in-process records"
    return verify_failure(records)


def coin_change_count(weights: list[int], degree: int) -> int:
    """Monomials of weighted degree ``degree``: the coin-change count, O(k*d)."""
    ways = [1] + [0] * degree
    for w in weights:
        for x in range(w, degree + 1):
            ways[x] += ways[x - w]
    return ways[degree]


def hilbert_failure(count: int, expected: int) -> str | None:
    if count != expected:
        return f"count {count}, expected {expected}"
    return None


def cli_hilbert_failure(returncode: int, stdout: str, expected: int) -> str | None:
    if returncode != 0:
        return f"exit code {returncode}"
    match = _HILBERT_LINE.search(stdout)
    if match is None:
        return "no count in the CLI output"
    return hilbert_failure(int(match.group(1)), expected)


class Digest:
    """SHA-256 over a sequence of JSON values, with a snapshot after the first few."""

    def __init__(self, head: int):
        self._hash = hashlib.sha256()
        self._head = head
        self._seen = 0
        self.head_hex = self._hash.hexdigest()

    def update(self, value) -> None:
        self._hash.update(json.dumps(value, sort_keys=True).encode() + b"\n")
        self._seen += 1
        if self._seen == self._head:
            self.head_hex = self._hash.hexdigest()

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
