"""weightlab benchmark: seeded workloads, a traced per-layer run and a
compare mode.  Entry point: ``python3 perfbench/run.py``."""

import time

DEFAULT_SEED = 1   # the seed whose task outputs all have recorded digests
# workload -> nominal time of one pass over its task list, in corrected
# seconds.  A run makes round(--seconds / nominal) passes, at least one: the
# count never depends on a measured time, so every run and every commit
# does the same work.
WORKLOADS = {"chain": 19.7, "character": 11.1, "closure": 5.4, "tensor-family": 11.7}

# Host speed correction.  The shared host's speed drifts by tens of percent
# over seconds to minutes, for every process alike.  Each workload process
# samples the time of a fixed pure-Python loop while it runs, and every
# reported time is scaled to a host on which that loop takes
# CALIBRATION_REF_S:
#     corrected = measured * CALIBRATION_REF_S / loop time around the task
CALIBRATION_REF_S = 0.010
CALIBRATION_LOOPS = 100_000


def calibrate(loops: int = CALIBRATION_LOOPS) -> float:
    """Seconds the calibration loop takes on the host right now, scaled to
    CALIBRATION_LOOPS iterations."""
    start = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i % 7
    return (time.perf_counter() - start) * CALIBRATION_LOOPS / loops
