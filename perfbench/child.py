"""One repetition of one workload, in a fresh interpreter.

Usage: child.py ROOT WORKLOAD SEED MODE SPAWNED

MODE is ``0`` to run untraced, ``1`` to run traced, or ``setup`` to set up,
print ``setup_s`` and stop.

SPAWNED is the parent's ``time.monotonic()`` just before it started this
interpreter (CLOCK_MONOTONIC is shared by all processes), so ``setup_s``
covers interpreter start, the lagtrace import and building the inputs.  The
caches of lagtrace (the ``lru_cache`` functions and ``MappingClassRep._cache``)
start empty, as they do for a command-line call.  Prints one JSON line.

Times are reported at a fixed machine speed.  The speed of a shared host
drifts by tens of percent within seconds, so a ``SpeedProbe`` times a fixed
reference loop every ``PROBE_INTERVAL_S`` seconds of the timed region, from a
signal handler in this same thread, so at the speed lagtrace runs at that
moment.  Each stretch of measured time between two samples is scaled by
``REF_S / r``, where ``r`` is the median reference time of the samples
around it; ``raw_*`` fields hold the times as measured.  The probe's own
time is left out of every time.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import sys
import time

PROBE_INTERVAL_S = 0.05
# samples taken after set-up, and the fewest a timed region is scaled by
SETUP_SAMPLES = 20
MIN_SAMPLES = 20
# a stretch is scaled by the median of the samples up to WINDOW places away
# (about 2 s): one sample is too noisy, one median per run misses the drift
WINDOW = 20
REF_N = 20_000
# the reference loop's time on an idle core of the 2-vCPU Xeon (Python 3.11)
# the benchmark was written on, so scaled times read close to seconds there
REF_S = 0.0012


def reference() -> int:
    s = 0
    for i in range(REF_N):
        s += i * i % 7
    return s


class SpeedProbe:
    """Reference-loop times, sampled on a timer; a clock that leaves them out."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (clock(), reference time)
        self.spent = 0.0
        self.sampling = False

    def sample(self, *_signal_args) -> None:
        # a timer signal can fire inside a sample when the process is held off
        # the core for a whole interval; that sample would be counted twice
        if self.sampling:
            return
        self.sampling = True
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.samples.append((t0 - self.spent, t1 - t0))
        self.spent += time.perf_counter() - t0
        self.sampling = False

    def clock(self) -> float:
        """``perf_counter`` minus the time spent in ``sample`` so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no sample ran in between
                return now - spent

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        """Stop sampling; the samples then reach past every time measured."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()
        while len(self.samples) < MIN_SAMPLES:
            self.sample()

    def scale(self) -> float:
        return REF_S / statistics.median(r for _, r in self.samples)

    def at_reference_speed(self, start: float, end: float) -> float:
        """The ``clock()`` time from start to end, scaled stretch by stretch."""
        refs = [r for _, r in self.samples]
        total, prev = 0.0, start
        for i, (at, _) in enumerate(self.samples):
            if at <= start:
                continue
            upto = min(at, end)
            total += (upto - prev) / statistics.median(refs[max(0, i - WINDOW):i + WINDOW + 1])
            prev = upto
            if at >= end:
                break
        return total * REF_S


def main() -> int:
    root, workload, seed, mode, spawned = sys.argv[1:6]
    src = os.path.join(root, "src")
    sys.path.insert(1, src)  # after this script's own directory
    import lagtrace
    from lagtrace.tensorlie import magnus_of_word

    # never measure a lagtrace from outside the checkout
    if not os.path.abspath(lagtrace.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"lagtrace imported from {lagtrace.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    plan_fn, run_fn, check_fn = workloads.WORKLOADS[workload]
    plan = plan_fn(int(seed))
    raw_setup_s = time.monotonic() - float(spawned)
    setup_probe = SpeedProbe()
    for _ in range(SETUP_SAMPLES):
        setup_probe.sample()
    setup = {"setup_s": raw_setup_s * setup_probe.scale(), "raw_setup_s": raw_setup_s}
    if mode == "setup":
        print(json.dumps(setup))
        return 0

    probe = SpeedProbe()
    tracer = Tracer(probe.clock) if mode == "1" else None
    if tracer:
        tracer.install()
    before = magnus_of_word.cache_info()
    probe.start()
    t0 = probe.clock()
    outputs = run_fn(plan)
    t1 = probe.clock()
    probe.stop()
    after = magnus_of_word.cache_info()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    raw_wall_s = t1 - t0
    wall_s = probe.at_reference_speed(t0, t1)
    result = {
        **setup,
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "peak_rss_mib": peak_rss_mib,
        "checks": [[key, ok, digest] for key, ok, digest in check_fn(outputs)],
    }
    if tracer:
        hits = after.hits - before.hits
        lookups = hits + after.misses - before.misses
        # the layers' times are scaled by the repetition's overall factor
        result["layers"] = tracer.metrics(raw_wall_s, hits / lookups if lookups else 0.0,
                                          wall_s / raw_wall_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
