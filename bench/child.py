"""The parts of the benchmark that need a fresh interpreter.

    python3 bench/child.py setup < lines
        Reads the workload's inputs from stdin, one `gen.parse_lines` line
        each, then times `import positroids` plus the library's parse of
        every input and prints the seconds.  Nothing but sys and time is
        loaded before the clock starts, so the import is as cold as in a real
        CLI call, and the inputs are built before it, so only library work
        is timed.

    python3 bench/child.py sweep <n> <spans path, or - for no tracing>
        Runs one verify_all(n) sweep with both kinds and jobs=1 and prints a
        JSON report, the way `positroids verify` starts with cold caches.
        The report gives the sweep's time in cal as well (Calibration).

`run.py` starts these with the library's `src/` on PYTHONPATH.  Other
modules are imported where they are used, so that `setup` stays cold.
"""

import sys
import time


def setup(lines: list[str]) -> float:
    start = time.perf_counter()
    import positroids

    for line in lines:
        kind, *fields = line.split("\t")
        if kind == "perm":
            positroids.parse_perm(fields[0])
        elif kind == "necklace":
            positroids.parse_necklace(fields[0])
        else:
            positroids.parse_bases(fields[1], int(fields[0]) if fields[0] else None)
    return time.perf_counter() - start


CALIBRATION_STEPS = 20000
CALIBRATION_INTERVAL_S = 0.5


def _calibration_step(i: int, table: dict) -> bool:
    key = (i & 63, i % 7)
    table[key] = table.get(key, 0) + (i >> 2 & 3)
    return key[0] < key[1]


def calibrate() -> float:
    """Seconds that a fixed pure-Python loop takes now, about 10 ms on a quiet core.

    The loop does the kind of work the library does most: small-int
    arithmetic, tuples, dict and set updates and function calls.  The host
    runs all of it slower or faster by the minute, so the benchmark divides
    its times by this one, timed alongside them.
    """
    start = time.perf_counter()
    table: dict = {}
    members = set()
    for i in range(CALIBRATION_STEPS):
        if _calibration_step(i, table):
            members.add(i & 255)
        members.discard(i * 7 & 255)
    sorted(table.items())
    return time.perf_counter() - start


class Calibration:
    """A probe of the host's speed, timed between operations.

    The host runs all work faster or slower from one second to the next, so
    each operation's time is divided by the median of the probes timed
    nearest to it, two before and two after: its time in `cal`, units of the
    probe.  The probe is `calibrate` unless given; it runs at most every
    CALIBRATION_INTERVAL_S, which costs about 2% of the time.
    """

    def __init__(self, probe=calibrate):
        self.probe = probe
        self.samples: list[float] = []
        self.marks: list[int] = []  # per operation, the calibrations before it
        self.due = 0.0

    def take(self) -> None:
        self.samples.append(self.probe())
        self.due = time.perf_counter() + CALIBRATION_INTERVAL_S

    def poll(self) -> None:
        """Call before each operation."""
        if time.perf_counter() >= self.due:
            self.take()
        self.marks.append(len(self.samples))

    def in_cal(self, seconds: list[float]) -> list[float]:
        """The operations' times in cal, given in the order they were polled."""
        import statistics

        return [s / statistics.median(self.samples[max(m - 2, 0):m + 2]) for s, m in zip(seconds, self.marks)]


def gale_cache_info(core) -> tuple[int, int, int]:
    """(hits, misses, entries) of the core Gale-key cache, zeros when it is gone."""
    cached = getattr(core, "_gale_key_cached", None)
    if cached is None or not hasattr(cached, "cache_info"):
        return 0, 0, 0
    info = cached.cache_info()
    return info.hits, info.misses, info.currsize


def calibrated_sweep(positroids, n: int) -> tuple:
    """verify_all(n) with the calibration loop timed between its permutations.

    The checks of each permutation are one operation of the calibration.
    The sweep's wall time leaves the calibrations out, and its time in cal
    counts the part outside the permutation loop at the median calibration.
    Should the library stop enumerating through
    `oracle.enumerate_decorated_perms`, the calibrations just before and
    after the sweep are the ones that count.
    """
    import statistics

    calibration = Calibration()
    steps: list[float] = []
    enumerate_perms = positroids.oracle.enumerate_decorated_perms

    def calibrated(*args, **kwargs):
        for p in enumerate_perms(*args, **kwargs):
            calibration.poll()
            begun = time.perf_counter()
            yield p
            steps.append(time.perf_counter() - begun)

    calibration.take()
    positroids.oracle.enumerate_decorated_perms = calibrated
    try:
        start = time.perf_counter()
        report = positroids.verify_all(n, positroids.BOTH_KINDS, jobs=1)
        wall = time.perf_counter() - start - sum(calibration.samples[1:])
    finally:
        positroids.oracle.enumerate_decorated_perms = enumerate_perms
    calibration.take()
    cal = sum(calibration.in_cal(steps)) + (wall - sum(steps)) / statistics.median(calibration.samples)
    return report, {"wall_s": wall, "cal": cal, "calibration_s": calibration.samples}


def sweep(n: int, spans_path: str) -> dict:
    import resource

    import positroids

    if spans_path == "-":
        report, timing = calibrated_sweep(positroids, n)
    else:
        from tracer import Tracer

        # calibrated only before and after, outside every span
        calibration = [calibrate()]
        tracer = Tracer()
        tracer.install()
        start = time.perf_counter()
        report = positroids.verify_all(n, positroids.BOTH_KINDS, jobs=1)
        timing = {"wall_s": time.perf_counter() - start}
        tracer.uninstall()
        timing["calibration_s"] = calibration + [calibrate()]
        timing["trace"] = tracer.summary()
        tracer.write_spans(spans_path)
    return {
        **timing,
        "instances_checked": report.instances_checked,
        "degenerate_skipped": report.degenerate_skipped,
        "mismatches": report.mismatches,
        "first_failure": report.first_failure,
        "gale_cache": gale_cache_info(positroids.core),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main(argv: list[str]) -> None:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        print(setup(sys.stdin.read().splitlines()))
    elif mode == "sweep":
        import json

        print(json.dumps(sweep(int(rest[0]), rest[1])))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
