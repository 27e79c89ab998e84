"""Machine-speed probe, run beside the samples in a process of its own.

    python benchmarks/probe.py <readings file>

Every PERIOD_S it times a fixed pure-Python loop and appends a line
`<time.monotonic() at the start> <loop seconds>` to the file, until it is
terminated or its parent has gone. run.py starts it for the length of a
run, on the core the samples run on, and takes each sample's times to
the loop's median over the same interval (run.py, `Probe.scale`).

On the shared 2-vCPU machine behind the README's figures, the cores change
speed by 20-45% over tens of seconds, and every timing moves with them.
The probe runs in a process of its own, so it neither interrupts the
timed call nor shares its heap; it shares the core, and takes about 1.5%
of it.
"""

from __future__ import annotations

import os
import sys
import time

PERIOD_S = 0.05


def speed_loop() -> float:
    t = time.perf_counter()
    acc = 0
    for i in range(10000):
        acc += i * i
    return time.perf_counter() - t


def main(path: str) -> None:
    parent = os.getppid()
    with open(path, "w") as fh:
        while os.getppid() == parent:
            t = time.monotonic()
            fh.write(f"{t!r} {speed_loop()!r}\n")
            fh.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main(sys.argv[1])
