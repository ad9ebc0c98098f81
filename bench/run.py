"""Benchmark of the positroids library: one workload per run.

    python3 bench/run.py --workload sweep|queries|cli --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the library in `src/` beside this
directory and never changes it.  Each workload is a closed loop with one
caller and at most one child process at a time:

  sweep    verify_all(6) with both kinds and jobs=1, one cold process per sweep
  queries  distinct library queries: encode-and-minor at n in {16, 32, 64},
           recognition of basis families at n in {7, 8, 9}
  cli      cold `python -m positroids.cli` calls at n = 8, one at a time

Outputs are checked outside the timed region.  With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it reports per-layer self
times from a traced pass and writes its spans under .bench_out/.  The lines
before the last restate the numbers under their per-workload names with
sample counts; the last line is the JSON result.  README.md in this
directory defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from itertools import islice
from pathlib import Path

import child
import gen

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SWEEP_N = 6
TINY_SWEEP_N = 4
# instances checked and degenerate instances skipped by a clean verify_all(n)
SWEEP_EXPECTED = {6: (19572, 3912), 4: (392, 128)}
SETUP_REPEATS = 9
# queries reads its peak RSS after this many timed queries, which every run
# reaches, so that the figure does not grow with how fast the host ran
RSS_QUERIES = 2000
PROBE_REPEATS = 5
CHILD_TIMEOUT_S = 150


def load_spec() -> dict:
    """BENCHMARK.json: the workloads and the metrics every run must print."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Outcome:
    """Operations attempted and failed, the metrics, and the lines to print."""

    def __init__(self, spec: dict):
        self.units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        self.per_layer = [m["name"] for m in spec["per_layer"]]
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.lines: list[str] = []

    def check(self, ok: bool, what) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what) -> None:
        self.failed += 1
        if self.failed <= 5:
            self.lines.append(f"FAILED: {what}")

    def note(self, line: str) -> None:
        self.lines.append(line)

    def result(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": self.units[name]} for name, value in self.metrics.items()},
        }


# ---------------------------------------------------------------------------
# Processes and the library


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, env, stdin: str | None = None) -> subprocess.CompletedProcess:
    """Run one child to completion; subprocess.run kills and reaps it on timeout."""
    return subprocess.run(
        [sys.executable, *argv], input=stdin, capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )


def run_cli_child(argv, env) -> tuple[int, str, int]:
    """Run one CLI call to completion: its exit status, stdout and peak RSS in KiB.

    The child is reaped with os.wait4, whose rusage covers that child alone,
    and killed if it outlives CHILD_TIMEOUT_S.
    """
    proc = subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env, cwd=ROOT
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    return proc.returncode, stdout, usage.ru_maxrss


def bare_start(env) -> float:
    """Seconds for a cold `python -c pass`, started like a CLI call."""
    start = time.perf_counter()
    status, _, _ = run_cli_child(["-c", "pass"], env)
    if status != 0:
        raise SystemExit("error: a bare interpreter failed to start")
    return time.perf_counter() - start


def load_library():
    """Import positroids from SRC, refusing any other copy."""
    if not (SRC / "positroids" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {SRC / 'positroids'}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import positroids
    import positroids.cli

    if Path(positroids.__file__).resolve().parent != SRC / "positroids":
        raise SystemExit(f"error: imported positroids from {positroids.__file__}, not from {SRC}")
    return positroids


class SetupSampler:
    """setup_s: importing positroids and parsing the inputs in a fresh process.

    The inputs are built here, untimed, and handed to each probe on stdin.

    The SETUP_REPEATS samples are spread evenly over the measured window,
    between operations, so that their median sees the same machine as the
    other metrics rather than a few seconds of it.
    """

    def __init__(self, workload: str, args, env):
        self.argv = [str(BENCH_DIR / "child.py"), "setup"]
        self.stdin = "".join(line + "\n" for line in gen.parse_lines(workload, args.seed, args.tiny))
        self.env = env
        start = time.perf_counter()
        self.due = [start + args.seconds * i / SETUP_REPEATS for i in range(SETUP_REPEATS)]
        self.samples: list[float] = []

    def _sample(self) -> None:
        proc = run_child(self.argv, self.env, self.stdin)
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed:\n{proc.stderr}")
        self.samples.append(float(proc.stdout))

    def poll(self) -> None:
        """Take the samples that are due."""
        while self.due and time.perf_counter() >= self.due[0]:
            self.due.pop(0)
            self._sample()

    def median(self) -> float:
        """Take the samples still due, then return the median."""
        while self.due:
            self.due.pop(0)
            self._sample()
        return statistics.median(self.samples)


def probe_cli_layer(out: Outcome, env) -> None:
    """Bare interpreter start-up, and a cold `import positroids.cli` on top of it."""
    def median_wall(code):
        walls = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            proc = run_child(["-c", code], env)
            walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise SystemExit(f"error: probe {code!r} failed:\n{proc.stderr}")
        return statistics.median(walls)

    bare = median_wall("pass")
    out.metrics["cli.interpreter_s"] = bare
    out.metrics["cli.import_s"] = median_wall("import positroids.cli") - bare


def percentile(samples, pct: int) -> float:
    """The pct-th percentile (exclusive method) of at least two samples."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100)[pct - 1]


def report_rate(out: Outcome, name: str, count: int, seconds: float, cals: float, what: str) -> None:
    """Operations per cal, and per second."""
    out.metrics["throughput_per_cal"] = count / cals
    out.note(f"{name}_per_cal {count / cals:.6f}, per s {count / seconds:.4f} ({what})")


def report_latencies(out: Outcome, name: str, seconds: list[float], cals: list[float], tail_pct: int) -> None:
    """Median and tail latency in cal, and in ms, with the sample counts behind them."""
    out.metrics["latency_p50_cal"] = percentile(cals, 50)
    out.metrics["latency_tail_cal"] = percentile(cals, tail_pct)
    for pct in sorted({50, tail_pct}):
        value = percentile(cals, pct)
        beyond = sum(1 for c in cals if c > value)
        out.note(f"{name}_p{pct}_cal {value:.4f}, {percentile(seconds, pct) * 1e3:.4f} ms (n={len(cals)}, {beyond} beyond)")


def layer_metrics(out: Outcome, summary: dict, wall: float, overhead: float, gale_before, gale_after) -> None:
    """Per-layer metrics from a tracer summary over a traced wall time."""
    self_s, calls = summary["self_s"], summary["calls"]
    for name in out.per_layer:
        parts = name.split(".")
        group = ".".join(parts[:2])
        if parts[-1] == "self_s" and group in self_s:
            out.metrics[name] = self_s[group]
        elif parts[-1] == "calls":
            out.metrics[name] = calls[group]
    for layer in ("core", "minors", "oracle", "cli"):
        out.metrics[f"{layer}.self_s"] = sum(v for g, v in self_s.items() if g.startswith(layer + "."))
    bases_calls = calls["core.bases_of"]
    out.metrics["core.bases_of.distinct_frac"] = summary["bases_distinct"] / bases_calls if bases_calls else 0.0
    hits, misses = gale_after[0] - gale_before[0], gale_after[1] - gale_before[1]
    out.metrics["core.gale_cache.entries"] = gale_after[2]
    out.metrics["core.gale_cache.hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    out.metrics["trace.wall_s"] = wall
    out.metrics["trace.untraced_s"] = wall - summary["top_s"]
    out.metrics["trace.overhead_frac"] = overhead
    out.note(f"trace: {summary['spans']} spans over {wall:.4f} s traced wall, overhead {overhead:+.2%}")


def spans_path(workload: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR / f"spans-{workload}-seed{seed}.tsv"


# ---------------------------------------------------------------------------
# sweep


def run_sweep(n: int, spans, env) -> dict:
    proc = run_child([str(BENCH_DIR / "child.py"), "sweep", str(n), str(spans or "-")], env)
    if proc.returncode != 0:
        raise SystemExit(f"error: sweep child failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def check_sweep(out: Outcome, n: int, report: dict) -> None:
    """Every instance counts as attempted; each mismatch, and a wrong count, as failed."""
    counted = (report["instances_checked"], report["degenerate_skipped"])
    out.attempted += sum(counted)
    for _ in range(report["mismatches"]):
        out.fail(f"verify_all({n}): {report['first_failure']}")
    if counted != SWEEP_EXPECTED[n]:
        out.fail(f"verify_all({n}) counted {counted}, expected {SWEEP_EXPECTED[n]}")


def sweep(args, out: Outcome, lib, env) -> None:
    n = TINY_SWEEP_N if args.tiny else SWEEP_N
    if args.trace:
        plain = run_sweep(n, None, env)
        traced = run_sweep(n, spans_path("sweep", args.seed), env)
        for report in (plain, traced):
            check_sweep(out, n, report)
        probe_cli_layer(out, env)
        # in cal, so that the host's drift between the two sweeps cancels
        overhead = traced["wall_s"] / statistics.median(traced["calibration_s"]) / plain["cal"] - 1
        layer_metrics(out, traced["trace"], traced["wall_s"], overhead, (0, 0, 0), traced["gale_cache"])
        return
    setup = SetupSampler("sweep", args, env)
    deadline = time.perf_counter() + args.seconds
    reports = []
    while not reports or time.perf_counter() < deadline:
        setup.poll()
        reports.append(run_sweep(n, None, env))
    out.metrics["setup_s"] = setup.median()
    for report in reports:
        check_sweep(out, n, report)
    walls = [r["wall_s"] for r in reports]
    cals = [r["cal"] for r in reports]
    out.note(f"calibration_ms {statistics.median(c for r in reports for c in r['calibration_s']) * 1e3:.4f}")
    out.metrics["peak_rss_mb"] = max(r["peak_rss_kib"] for r in reports) / 1024
    report_rate(
        out, "instances", sum(SWEEP_EXPECTED[n]), statistics.median(walls), statistics.median(cals),
        f"verify_all({n}) over the median sweep",
    )
    # fewer than ten sweeps fit in a run, so no percentile above the median
    # has ten samples beyond it: the tail is the median
    report_latencies(out, "sweep", walls, cals, 50)
    out.note(f"sweep_ms {', '.join(f'{w * 1e3:.1f}' for w in walls)} (n={len(walls)})")


# ---------------------------------------------------------------------------
# queries


def run_query(lib, query):
    """One library query; returns what the check needs."""
    if query[0] == "recognize":
        _, n, text, _, _ = query
        family = lib.parse_bases(text, n)
        return lib.is_positroid(family), lib.check_matroid(family)
    _, text, _, j, kind = query
    p = lib.parse_perm(text)
    necklace = lib.necklace_of(p)
    necklace_text = lib.format_necklace(necklace)
    back = lib.perm_of(lib.parse_necklace(necklace_text))
    contracted, restricted = lib.contract(p, j), lib.restrict(p, j)
    contracted_necklace = restricted_necklace = rendered = None
    if p.image(j) != j:
        contracted_necklace = lib.contract_necklace(necklace, j)
        restricted_necklace = lib.restrict_necklace(necklace, j)
        if kind is not None:
            rendered = lib.render_trace(lib.trace_minor(p, j, lib.MinorKind(kind)))
    return p, necklace_text, back, contracted, restricted, contracted_necklace, restricted_necklace, rendered


def query_kind(query) -> tuple:
    """What a query's cost depends on most: its slice, size and whether it traces."""
    if query[0] == "recognize":
        return query[0], query[1], query[3]
    return query[0], query[1].count(","), query[4] is not None


def query_ok(query, result) -> bool:
    """Check a query result against the generator's independent answers."""
    if query[0] == "recognize":
        positroid, matroid = result
        # every family is a matroid, so positroid implies matroid; an intact
        # family is a positroid, and a relabelled one is as gen.py finds
        return matroid and positroid == query[4]
    _, text, expected_necklace, j, kind = query
    p, necklace_text, back, contracted, restricted, contracted_necklace, restricted_necklace, rendered = result
    ok = back == p and necklace_text == expected_necklace
    for minor in (contracted, restricted):
        # the minor turns j into a +1 fixed point, whatever the route
        ok = ok and minor.images[j - 1] == j and dict(minor.colors)[j] == 1
    if contracted_necklace is not None:
        bit = 1 << (j - 1)
        perm_route = gen.necklace_masks(contracted.images, dict(contracted.colors))
        ok = ok and perm_route == [e.mask & ~bit for e in contracted_necklace.entries]
        perm_route = gen.necklace_masks(restricted.images, dict(restricted.colors))
        ok = ok and perm_route == [e.mask for e in restricted_necklace.entries]
    if rendered is not None:
        minor = contracted if kind == "contraction" else restricted
        header = f"{kind} at j={j}: {text} => {gen.perm_text(minor.images, dict(minor.colors))}\n"
        ok = ok and rendered.startswith(header)
    return ok


def closed_loop(out: Outcome, stream, seconds: float, call, ok, tracer=None, kind=None, between=None):
    """One caller runs call(item) over the stream until the window closes.

    Only `call` is timed; `ok(item, result)` checks the result afterwards,
    and an exception counts as a failed operation.  With a tracer, every
    other item of each kind(item) is traced, so the plain and the traced
    calls have the same mix of kinds and their times compare like with
    like.  `between` runs before each call, untimed.  Returns the plain and
    the traced latencies in seconds.
    """
    samples: tuple[list, list] = ([], [])
    seen_kinds: dict = {}
    deadline = time.perf_counter() + seconds
    for index, item in enumerate(stream):
        if time.perf_counter() >= deadline:
            break
        if between is not None:
            between()
        traced = False
        if tracer is not None:
            key = kind(item)
            seen_kinds[key] = seen_kinds.get(key, 0) + 1
            traced = seen_kinds[key] % 2 == 0
        if traced:
            tracer.request = index
            tracer.install()
        start = time.perf_counter()
        try:
            result = call(item)
        except Exception:
            elapsed = time.perf_counter() - start
            out.check(False, f"{item!r}: {traceback.format_exc(limit=3)}")
        else:
            elapsed = time.perf_counter() - start
            out.check(ok(item, result), item)
        finally:
            if traced:
                tracer.uninstall()
        samples[traced].append(elapsed)
    return samples


def start_trace(lib):
    from tracer import Tracer

    return Tracer(), child.gale_cache_info(lib.core)


def finish_trace(out: Outcome, lib, tracer, gale_before, samples, env, workload: str, seed: int) -> None:
    plain, traced = samples
    overhead = statistics.fmean(traced) / statistics.fmean(plain) - 1
    layer_metrics(out, tracer.summary(), sum(traced), overhead, gale_before, child.gale_cache_info(lib.core))
    probe_cli_layer(out, env)
    tracer.write_spans(spans_path(workload, seed))


def queries(args, out: Outcome, lib, env) -> None:
    seen: set = set()
    # a long-lived caller has warm caches: warm up on a disjoint stream
    for query in islice(gen.query_stream(args.seed, "warmup", seen), gen.warmup_size(args.tiny)):
        run_query(lib, query)
    stream = gen.query_stream(args.seed, "main", seen)
    if args.trace:
        tracer, gale_before = start_trace(lib)
        samples = closed_loop(out, stream, args.seconds, lambda q: run_query(lib, q), query_ok, tracer, query_kind)
        finish_trace(out, lib, tracer, gale_before, samples, env, "queries", args.seed)
        return
    setup, calibration = SetupSampler("queries", args, env), child.Calibration()
    peak_rss_kib = []

    def between():
        setup.poll()
        calibration.poll()
        if len(calibration.marks) == RSS_QUERIES + 1:
            peak_rss_kib.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    plain, _ = closed_loop(out, stream, args.seconds, lambda q: run_query(lib, q), query_ok, between=between)
    out.metrics["setup_s"] = setup.median()
    cals = calibration.in_cal(plain)
    out.note(f"calibration_ms {statistics.median(calibration.samples) * 1e3:.4f} (n={len(calibration.samples)})")
    peak_rss_kib.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    out.metrics["peak_rss_mb"] = peak_rss_kib[0] / 1024
    out.note(f"peak_rss_mb {peak_rss_kib[0] / 1024:.4f} after {min(RSS_QUERIES, len(plain))} queries")
    report_rate(out, "queries", len(plain), sum(plain), sum(cals), f"{len(plain)} queries over {sum(plain):.3f} s in the library")
    report_latencies(out, "query", plain, cals, 99)


# ---------------------------------------------------------------------------
# cli


def output_ok(stdout: str, match: str, expected: str) -> bool:
    if match == "exact":
        return stdout == expected
    # restrict --trace: the header names the result, which the last line repeats
    header = stdout.split("\n", 1)[0]
    return stdout.startswith(expected) and stdout.endswith("\n" + header.rsplit(" => ", 1)[-1] + "\n")


def run_cli_in_process(lib, argv) -> tuple[int, str]:
    stdout = StringIO()
    with redirect_stdout(stdout), redirect_stderr(StringIO()):
        status = lib.cli.run(list(argv))
    return status, stdout.getvalue()


def cli(args, out: Outcome, lib, env) -> None:
    stream = gen.cli_stream(args.seed)

    def in_process(call):
        return run_cli_in_process(lib, call[0])

    if args.trace:
        # the per-layer view of a CLI call is cli.run in this process, plus
        # the interpreter and import probes
        tracer, gale_before = start_trace(lib)
        samples = closed_loop(
            out, stream, args.seconds, in_process, lambda c, r: r[0] == 0 and output_ok(r[1], *c[1:]), tracer,
            kind=lambda c: c[0][0],
        )
        finish_trace(out, lib, tracer, gale_before, samples, env, "cli", args.seed)
        return

    peak_rss_kib = []

    def cold(call):
        status, stdout, rss = run_cli_child(["-m", "positroids.cli", *call[0]], env)
        peak_rss_kib.append(rss)
        return status, stdout

    def ok(call, result):
        # and the process prints what cli.run prints in-process
        return result[0] == 0 and output_ok(result[1], *call[1:]) and result == in_process(call)

    # a CLI call is mostly interpreter start-up, which follows the host's
    # speed the way a bare start does and the in-process loop does not
    setup, calibration = SetupSampler("cli", args, env), child.Calibration(lambda: bare_start(env))

    def between():
        setup.poll()
        calibration.poll()

    walls, _ = closed_loop(out, stream, args.seconds, cold, ok, between=between)
    out.metrics["setup_s"] = setup.median()
    cals = calibration.in_cal(walls)
    out.note(f"calibration_ms {statistics.median(calibration.samples) * 1e3:.4f} (n={len(calibration.samples)})")
    out.metrics["peak_rss_mb"] = max(peak_rss_kib) / 1024
    report_rate(out, "cli_calls", len(walls), sum(walls), sum(cals), f"{len(walls)} calls")
    report_latencies(out, "cli", walls, cals, 90)


WORKLOADS = {"sweep": sweep, "queries": queries, "cli": cli}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-test")
    args = parser.parse_args(argv)
    lib = load_library()
    out = Outcome(load_spec())
    WORKLOADS[args.workload](args, out, lib, child_env())
    out.note(f"failed_frac {out.failed / max(out.attempted, 1):.6g} ({out.failed} of {out.attempted})")
    for line in out.lines:
        print(line)
    print(json.dumps(out.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
