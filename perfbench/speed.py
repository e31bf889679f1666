"""How fast the core runs right now, sampled inside the measured process.

The benchmark shares a few cores of a virtual machine with other guests. When
a neighbour loads the other half of a physical core, the same Python code here
runs about 1.8 times slower, and that state switches within fractions of a
second to minutes, so medians of raw wall time moved by up to 40 % between runs
of the same code. A fixed probe job, timed every few milliseconds in the same
process as the work, slows down with it: in a trial with a probe of this kind,
35 ms blocks of frame-stream work and the probes beside them correlated at
0.93, and scaling each block by its probe cut the pass-to-pass spread from
17 % to 3 %.

A Meter records probe durations. `scale()` turns raw seconds of the process
into reference seconds: the time the work would have taken with every probe at
REF_JOB_S. Time spent in probes themselves (`busy_s`) is not the program's and
is subtracted before scaling.

Imports nothing beyond the standard library, so a set-up probe can start it
before it imports groundcam.
"""

from __future__ import annotations

import signal
import time

# The probe job's duration on an uncontended core of the machine the benchmark
# was tuned on (2-vCPU Intel Xeon VM at 2.0 GHz, Python 3.11). It sets only the
# unit: results are "seconds at that speed".
REF_JOB_S = 90e-6
INTERVAL_S = 0.01
# Untimed runs of the job before the first probe, so that no probe times the
# interpreter specializing the job's bytecode.
WARM_UP_JOBS = 2

_WORDS = ("ball", "robot", "goal", "field", "camera", "pose")


def job() -> float:
    """A fixed piece of interpreter work like the program's own: small dicts,
    strings, lists and float arithmetic."""
    total = 0.0
    rows = []
    for i in range(72):
        x, y = 1.5 * i - 7.0, 0.25 * i + 3.0
        row = {"id": i, "label": _WORDS[i % 6], "x": x, "y": y, "r": (x * x + y * y) ** 0.5}
        rows.append(row)
        total += row["r"] / (1.0 + abs(x)) + len(f"{row['label']}:{x:.3f}")
    rows.sort(key=lambda r: r["r"])
    return total + rows[0]["x"]


class Meter:
    def __init__(self) -> None:
        self.durations: list[float] = []
        self.busy_s = 0.0

    def probe(self) -> float:
        """Time one job; return the seconds it took."""
        start = time.perf_counter()
        job()
        took = time.perf_counter() - start
        self.durations.append(took)
        self.busy_s += took
        return took

    def start(self, interval: float = INTERVAL_S) -> None:
        """Probe every `interval` seconds of wall time, from a SIGALRM handler.

        The handler runs in the main thread between bytecodes, so a probe always
        runs on the core the work is using at that moment.
        """
        start = time.perf_counter()
        for _ in range(WARM_UP_JOBS):
            job()
        self.busy_s += time.perf_counter() - start
        signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        self.probe()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.probe()

    def scale(self) -> float:
        """Reference seconds per raw second: REF_JOB_S times the mean probe speed."""
        return REF_JOB_S * sum(1.0 / d for d in self.durations) / len(self.durations)

    def save(self, path) -> None:
        import json

        with open(path, "w") as f:
            json.dump({"busy_s": self.busy_s, "scale": self.scale()}, f)


def load(path) -> tuple[float, float]:
    """(scale, busy_s) written by Meter.save."""
    import json

    with open(path) as f:
        doc = json.load(f)
    return float(doc["scale"]), float(doc["busy_s"])
