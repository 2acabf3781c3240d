"""Timing and correctness bookkeeping for one round of a workload.

Every call into the library is one operation.  Its time is booked under
one of four roles, the things a user of the library waits for:

  solve   producing a certified positive answer: a recipe build, a
          parameter scan with its certificates, a search that finds
  emit    encoding produced starters as JSON
  verify  reading a JSON document back and re-verifying it
  reject  reaching a certified negative answer: a near-miss document
          rejected with a witness, a typed CoverageFailure refusal, an
          exhaustive nonexistence proof

An operation fails when it raises an unexpected exception (a search
timeout included) or its result does not match the known answer.
Checks run after the timer stops.

The benchmark shares its vCPUs with other tenants, whose load makes the
same code run up to 1.8 times slower for minutes at a time.  So every
timing is scaled to a fixed machine speed: between operations a
Calibration times a fixed piece of plain Python that shares no code
with the library, and a time t is reported as
t * REFERENCE_S / (median time of that piece over the run).
A slow spell of the machine slows both alike and cancels out; a change
to the library moves only t.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

ROLES = ("solve", "emit", "verify", "reject")

# The machine speed reported times are scaled to: one on which
# reference_work takes this long, close to its median on a quiet 2-vCPU
# Intel Xeon VM under Python 3.11.
REFERENCE_S = 0.0035


def reference_work() -> int:
    """A fixed mix of integer arithmetic, dict and list work, the kinds
    the library spends its time on, in plain Python."""
    total = 0
    for i in range(24000):
        total += i * i % 7
    table = {}
    for i in range(1, 3000):
        k = i * 7919 % 10007
        table[k] = k * k % 65537
    return total + sum(v % 5 for v in sorted(table.values()))


class Calibration:
    """Samples of reference_work, taken between operations so that they
    cover the same spells of the machine as the operations do."""

    SHARE = 0.05  # of the measured time spent on samples

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._owed = 0.0

    def after(self, seconds: float) -> None:
        """Take samples for an operation that took seconds."""
        self._owed += seconds * self.SHARE
        while self._owed > 0:
            start = perf_counter()
            reference_work()
            took = perf_counter() - start
            self.samples.append(took)
            self._owed -= took

    def scale(self) -> float:
        """The factor from measured seconds to seconds at REFERENCE_S."""
        return REFERENCE_S / statistics.median(self.samples)


class Round:
    def __init__(self, tracer=None, calibration: Calibration | None = None) -> None:
        self.times: dict[str, tuple[str, list[float]]] = {}  # label -> (role, samples)
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer = tracer
        self.calibration = calibration
        self.elapsed = 0.0  # the whole round, checks included

    @property
    def wall(self) -> float:
        return sum(sum(ts) for _, ts in self.times.values())

    def seconds(self, role: str) -> float:
        return sum(sum(ts) for r, ts in self.times.values() if r == role)

    def fail(self, label: str, why: str) -> None:
        self.failures.append(f"{label}: {why}")

    def op(self, label, fn, role, check=None, repeat: int = 1):
        """Time fn() under role, then check its result; return it, or None on failure.

        role is a role name or a function of the result giving one.
        check returns None when the result is right, else a message.
        repeat > 1 times fn() back to back that often, for more samples
        of an operation too short to be timed once; a traced round runs
        it once, so its counts describe one pass of the workload.
        """
        if label in self.times:
            raise ValueError(f"operation {label!r} booked twice in one round")
        self.attempted += 1
        samples: list[float] = []
        self.times[label] = (role if isinstance(role, str) else "solve", samples)
        for _ in range(repeat if self.tracer is None else 1):
            if self.tracer is not None:
                self.tracer.begin_item(label)
            start = perf_counter()
            try:
                result, error = fn(), None
            except Exception as exc:  # every unexpected error is a failed operation
                result, error = None, exc
            samples.append(perf_counter() - start)
            if self.tracer is not None:
                self.tracer.end_item()
            if self.calibration is not None:
                self.calibration.after(samples[-1])
            if error is not None:
                self.fail(label, f"raised {type(error).__name__}: {error}")
                return None
        if not isinstance(role, str):
            self.times[label] = (role(result), samples)
        if check is not None:
            try:
                why = check(result)
            except Exception as exc:  # a check that cannot run counts as wrong
                why = f"check raised {type(exc).__name__}: {exc}"
            if why is not None:
                self.fail(label, why)
                return None
        return result

    def expect(self, label: str, condition: bool, why: str) -> None:
        """Book an untimed known-answer check as one operation."""
        self.attempted += 1
        if not condition:
            self.fail(label, why)

    @property
    def failed(self) -> int:
        return len(self.failures)


def setup_seconds(root, calibration: Calibration, repeats: int = 15) -> list[float]:
    """Time a fresh interpreter takes to import the library and build one
    small starter, so import-time and first-call work shows.  The clock
    runs inside that interpreter: its own start-up, which the library
    does not control and which varies by tens of milliseconds, is left out."""
    code = (
        "import sys, time; start = time.perf_counter(); sys.path.insert(0, 'src'); "
        "import skolem_starters; skolem_starters.qr_starter(19); "
        "print(time.perf_counter() - start)"
    )
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-I", "-c", code], cwd=root, check=True,
                              stdout=subprocess.PIPE, text=True)
        times.append(float(proc.stdout))
        calibration.after(times[-1])
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def out_dir(root):
    path = os.path.join(root, ".perfbench-out")
    os.makedirs(path, exist_ok=True)
    return path
