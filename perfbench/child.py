"""One workload process: set up, run passes over the task list, gate every
task, and print one JSON line with the measurements.

Run by ``run.py`` as ``python3 -m perfbench.child`` from the checkout root,
in a fresh single-threaded process with a pinned environment.
"""

import time

_T0 = time.perf_counter()   # setup_s starts here, before weightlab is imported

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import weightlab  # noqa: E402,F401

from perfbench import WORKLOADS, calibrate  # noqa: E402
from perfbench import tracer as tracing  # noqa: E402
from perfbench import workloads  # noqa: E402

DIGESTS = Path(__file__).with_name("digests.json")
SAMPLE_EVERY_S = 0.05     # host clock sampling period
SAMPLE_LOOPS = 20_000     # calibration loop size per sample, about 2 ms
SAMPLE_WINDOW_S = 0.25    # samples this close to a task describe its host speed


def os_threads() -> int:
    """Threads of this process as the kernel counts them (1 if unknown)."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


class HostClock:
    """Samples the calibration loop every SAMPLE_EVERY_S from a timer signal,
    also in the middle of long tasks; no thread is started.  Under a tracer
    each sample is a span of its own, so no layer's self time includes it."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.starts: list[float] = []
        self.spans: list[float] = []     # handler time, to take out of task times
        self.loops: list[float] = []     # calibration loop time, per sample
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        if self.tracer is None:
            self.loops.append(calibrate(SAMPLE_LOOPS))
        else:
            self.loops.append(self.tracer.call("host.clock", calibrate, SAMPLE_LOOPS))
        self.starts.append(start)
        self.spans.append(time.perf_counter() - start)
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, start: float, end: float) -> float:
        """Handler time inside [start, end)."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        return sum(self.spans[lo:hi])

    def host(self, start: float, end: float) -> float:
        """Median loop time over the samples near [start, end]."""
        lo = bisect.bisect_left(self.starts, start - SAMPLE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + SAMPLE_WINDOW_S)
        near = self.loops[lo:hi]
        if not near:   # too short to see a sample: take the nearest ones
            i = bisect.bisect_left(self.starts, start)
            near = self.loops[max(0, i - 2):i + 2]
        return statistics.median(near)


def run_pass(plan, digests, tracer, record):
    """Run every task once.  Returns task times, the calibration loop time
    around each task, the failure count and the failure reasons.

    Only the task call itself is timed, less the time the host clock's
    samples took inside it.  Between tasks the client gates the output and
    collects garbage, so that no task pays for an earlier task's garbage (a
    CLI task stands for one process run).
    """
    spans, failed, reasons = [], 0, []
    with HostClock(tracer) as clock:
        for task in plan.tasks:
            gc.collect()
            start = time.perf_counter()
            try:
                out = workloads.execute(plan, task)
            except Exception as exc:  # a task that raises is a failed task
                spans.append((start, time.perf_counter()))
                failed += 1
                reasons.append(f"{task.key}: {type(exc).__name__}: {exc}")
                continue
            spans.append((start, time.perf_counter()))
            out = workloads.finish(out)
            if tracer is not None and task.argv:
                tracer.counts["cli.output_bytes"] += len(out.output.encode())
            if record is not None:
                record[task.key] = workloads.digest(out)
                reason = None if out.status == 0 else f"exit {out.status}"
            else:
                reason = workloads.check(plan, task, out, digests)
            if reason is not None:
                failed += 1
                reasons.append(f"{task.key}: {reason}")
    times = [end - start - clock.spent(start, end) for start, end in spans]
    host = [clock.host(start, end) for start, end in spans]
    return times, host, failed, reasons


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)

    plan = workloads.make_plan(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    workloads.prepare(plan)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s,
              "setup_host_s": statistics.median(calibrate() for _ in range(3))}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    record = {} if args.record_digests else None
    task_s, host_s, failed, reasons = [], [], 0, []
    try:
        for number in range(args.passes):
            if number:
                workloads.prepare(plan)
            times, host, nfail, why = run_pass(plan, digests, tracer, record)
            task_s.append(times)
            host_s.append(host)
            failed += nfail
            reasons.extend(why)
    finally:
        if tracer is not None:
            tracer.restore()

    threads = os_threads()
    if threads != 1:
        reasons.append(f"{threads} threads running, expected 1")
    result.update(
        task_s=task_s, host_s=host_s, attempted=sum(map(len, task_s)), failed=failed,
        reasons=reasons[:10], threads=threads,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        result.update(self_s=dict(tracer.self_s), counts=dict(tracer.counts),
                      missing=tracer.missing, absent=tracer.absent_layers())
    if record is not None:
        result["digests"] = record
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
