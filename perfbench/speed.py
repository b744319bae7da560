"""A fixed probe of the machine's current speed, for scaling operation times.

On a shared host the CPU time of the same work drifts by a third or more over
minutes, as other tenants load the cores, caches and memory. The benchmark
runs :func:`speed_probe` before every set-up, and before every operation for
``PROBE_SHARE`` of its CPU time, and reports their CPU time scaled by
``REFERENCE_PROBE_S`` over the probe's mean CPU time in the same run: seconds
at the speed the probe had when the reference was taken. A change to the program moves that figure as it moves the raw time; a
drift of the machine moves probe and operation together.

The probe mixes the kinds of work the program does: JSON parsing and dict
handling in the interpreter, gathers and sorts over arrays larger than the
caches, and small dense numpy algebra. It runs in a process of its own, so
that its memory stays out of the measured process's peak RSS. Run as a
script, it answers each line on standard input with the CPU seconds of one
probe, and exits at end of input.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np

# Median probe CPU time on the 2-vCPU x86-64 VM where the reference was taken
# (one BLAS thread). It only sets the scale of the reported figures.
REFERENCE_PROBE_S = 0.2
# Probe CPU time per unit of measured CPU time. On the reference machine the
# variance of a mean fell with the time averaged, 0.025/s for operations and
# 0.005/s for the probe, and for a fixed run length the sum of the two
# variances is least with about 0.4 s of probe per second of operation.
PROBE_SHARE = 0.4


def speed_probe() -> float:
    """CPU seconds of a fixed mix of interpreter and numpy work."""
    c0 = time.process_time()
    rng = np.random.default_rng(1)
    big = rng.random(2_000_000)
    acc = float(big[rng.integers(0, big.size, 1_000_000)].sum())
    acc += float(np.sort(big[:500_000])[250_000])
    x = rng.standard_normal((400, 40))
    for _ in range(40):
        acc += float((x @ x.T).sum())
        acc += float(np.exp(-np.abs(x)).cumsum(axis=0)[-1].sum())
    lines = [json.dumps({"patient_id": f"p{i}", "t": i % 20, "x": [i * 0.5, None, "a"]})
             for i in range(20000)]
    groups: dict[str, list[float]] = {}
    for rec in map(json.loads, lines):
        groups.setdefault(rec["patient_id"][:3], []).append(rec["x"][0])
    if not np.isfinite(acc) or sum(map(len, groups.values())) != len(lines):
        raise RuntimeError("speed probe computed a wrong result")
    return time.process_time() - c0


class Prober:
    """A probe process, started on entry and ended on exit."""

    def __enter__(self) -> "Prober":
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def __call__(self) -> float:
        """CPU seconds of one probe."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def sample(self, work_s: float) -> list[float]:
        """Probes until they took PROBE_SHARE of ``work_s`` CPU seconds; at least one."""
        probes = [self()]
        while sum(probes) < PROBE_SHARE * work_s:
            probes.append(self())
        return probes

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def scaled(cpu_s: list[float], probe_s: list[float]) -> float:
    """Mean CPU seconds of ``cpu_s`` at the reference speed of the probe."""
    return REFERENCE_PROBE_S * sum(cpu_s) / len(cpu_s) / (sum(probe_s) / len(probe_s))


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(speed_probe()), flush=True)
