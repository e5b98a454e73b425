"""Time one import of renormlab in this fresh interpreter.

    python3 perfbench/timed_import.py SRC_DIR

Prints two numbers: the import's wall time in seconds, and the host factor
over it (1 on an unloaded host).  As in ``hostprobe.HostProbe``, a SIGALRM
timer samples a reference kernel while the import runs and the kernel's time
is left out of the wall time; here the kernel is a pure-Python loop, so that
nothing but ``signal``, ``sys`` and ``time`` is imported before renormlab.
"""

import signal
import sys
import time

# Thread CPU time of ``kernel`` on an unloaded host: the fast mode of its
# timings on a 2-vCPU Intel Xeon KVM guest (0.73-0.80 ms).
REF_S = 0.75e-3
INTERVAL_S = 0.01
MIN_SAMPLES = 8


def kernel() -> float:
    start = time.thread_time()
    acc = 0
    for i in range(15000):
        acc += i * i
    return time.thread_time() - start


def main(src: str) -> None:
    samples: list[float] = []
    spent = 0.0

    def tick(signum, frame):
        nonlocal spent
        start = time.perf_counter()
        samples.append(kernel())
        spent += time.perf_counter() - start

    for _ in range(MIN_SAMPLES):
        kernel()  # warm the loop before timing
    sys.path.insert(0, src)
    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = time.perf_counter()
    import renormlab.cli  # noqa: F401
    wall = time.perf_counter() - start - spent
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    while len(samples) < MIN_SAMPLES:
        samples.append(kernel())
    print(wall, sum(samples) / len(samples) / REF_S)


if __name__ == "__main__":
    main(sys.argv[1])
