"""Pieces shared by the three workloads."""
from __future__ import annotations

import contextlib
import io
import os
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable

from meter import Meter


@dataclass
class Round:
    """What one round measured and produced.

    ``ops`` maps an operation name to None (it returned) or the error it
    raised; ``answers`` holds the query answers in query order until the
    round is checked, after which ``queries`` and ``raised`` (query index
    to error) remain; ``wrong`` maps an operation name to why its output
    failed its check.
    """

    build: tuple[float, float] = (0.0, 0.0)
    check: tuple[float, float] = (0.0, 0.0)
    latencies: array = field(default_factory=lambda: array("d"))
    answers: list[Any] = field(default_factory=list)
    ops: dict[str, str | None] = field(default_factory=dict)
    outputs: dict[str, Any] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    wrong: dict[str, str] = field(default_factory=dict)
    queries: int = 0
    raised: dict[int, str] = field(default_factory=dict)


class Raised:
    """Stands in for the answer of a query that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Raised) and other.text == self.text

    def __repr__(self) -> str:
        return f"Raised({self.text!r})"


def guarded(fn: Callable[[], Any]) -> Callable[[], Any]:
    """Wrap a query so an exception becomes a Raised answer, not an abort."""

    def call():
        try:
            return fn()
        except Exception as exc:  # a failing query is counted, not fatal
            return Raised(exc)

    return call


def op(rnd: Round, name: str, fn: Callable[[], Any]) -> Any:
    """Run one program operation, recording whether it raised."""
    try:
        result = fn()
    except Exception as exc:  # counted as a failed operation
        rnd.ops[name] = f"{type(exc).__name__}: {exc}"
        return None
    rnd.ops[name] = None
    return result


def metered(meter: Meter, fn: Callable[[], Any]) -> tuple[Any, tuple[float, float]]:
    meter.begin()
    try:
        result = fn()
    finally:
        timing = meter.end()
    return result, timing


def run_queries(meter: Meter, rnd: Round, calls: list[Callable[[], Any]]) -> None:
    rnd.answers = [None] * len(calls)
    rnd.latencies = array("d", bytes(8 * len(calls)))

    def record(i: int, answer: Any, seconds: float) -> None:
        rnd.answers[i] = answer
        rnd.latencies[i] = seconds

    meter.timed_batches([guarded(c) for c in calls], record)


def verify_log(cli, path: str, suite: str) -> tuple[int, list[str]]:
    """Run ``ceerlab verify PATH SUITE``; return its exit code and output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(["verify", path, suite])
    return code, buf.getvalue().splitlines()


def suite_passed(result: tuple[int, list[str]], suite: str) -> str | None:
    """None when a verify run passed, else why not."""
    code, lines = result
    if code == 0 and lines and lines[-1] == f"suite {suite}: PASS":
        return None
    return f"verify {suite} exited {code}: " + " | ".join(lines[-3:])


def write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read()
