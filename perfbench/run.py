"""End-to-end benchmark of the strongcover command line.

Run from the repository root:

    python3 perfbench/run.py --workload greedy-families --seed 0 --seconds 30 --trace 0

Each operation is one in-process ``strongcover.cli.main(argv)`` call with the
instance document on stdin and stdout captured, so every layer from JSON
parse to JSON emit is timed without paying interpreter start-up per call.
One process with one thread runs the operations back to back (closed
loop).  A pass is the workload's fixed operation list; passes repeat until
``--seconds`` have been measured.

With ``--trace 0`` the last line reports the end-to-end metrics.  The
host is a few cores of a shared machine whose speed drifts by 20-50% over
minutes, for every process alike, so the times are scaled to a fixed host
speed: a fixed piece of pure-Python reference work (``reference_work``,
which imports nothing from the program) is timed right before and right
after every operation and every set-up sample.  An operation's time is its
mean latency over the run's passes times ``REFERENCE_S`` over the mean of
the reference times on either side of it.  A change to the program moves
the scaled times as it moves the raw ones; a slow spell of the host moves
both the program and the reference work and cancels.  Means, not medians,
because the host slows in short bursts: a burst lands in a long operation
more often than in a short reference sample, so medians would count it in
the one and not the other.  The unscaled times (the same means, unscaled)
are kept in the result file and printed on a comment line.

* ``wall_s``: time of one pass, the sum of its operations' times;
* ``op_ms_p50``, ``op_ms_p90``: median and 90th percentile of the
  pass's operation times.  Every operation is deterministic and repeats
  once per pass (the pass count is printed), so the spread of its own
  samples is the machine's, not the program's;
* ``setup_s``: median time of fresh interpreters (one after each pass)
  that import strongcover and build the CLI parser, the fixed cost of
  every command; each sample is scaled by the reference times on either
  side of it;
* ``peak_rss_mb``: peak resident memory of this process;
* ``ok_ops_ratio``: operations that passed every check over operations
  attempted (the complement of the failed-operation ratio, which would read
  0 on every correct run).

With ``--trace 1`` untraced and traced passes alternate and the last line
reports per-layer metrics from the traced ones (see ``tracing.py``).

Every operation's output is checked.  On the reference seed the exit code,
input digest and output digest must equal those in ``reference.json``; on
any seed the report must pass the independent checks in ``workloads.py``
and every later pass must reproduce the first pass's digests.  A check that
fails counts the operation as failed.

``--record`` rewrites ``reference.json`` from the current program.  Results
and spans are written to ``perfbench/out/``; ``compare.py`` compares two
such result sets.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
REFERENCE_SEED = 0
MIN_PASSES = 3
# A typical time, in seconds, of REFERENCE_REPS calls of
# ``reference_work`` on the host the benchmark was defined on (2 vCPUs of a
# 2.1 GHz x86-64 VM, CPython 3.11.7): the host speed the scaled times
# refer to.
REFERENCE_S = 0.0150
REFERENCE_REPS = 10
# Interpreter start-up, package import and CLI parser construction: the
# fixed cost of one ``strongcover`` command.
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); "
    "import strongcover.cli as cli; cli.build_parser()"
)


class Failure(Exception):
    pass


def import_program():
    """Import strongcover from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "strongcover" / "__init__.py").is_file():
        raise Failure(f"no strongcover package under {src}")
    sys.path.insert(0, str(src))
    import strongcover
    import strongcover.cli

    if Path(strongcover.__file__).resolve().parent != src / "strongcover":
        raise Failure(f"imported strongcover from {strongcover.__file__}")
    return strongcover


def reference_work() -> int:
    """Fixed pure-Python work of the program's kind (set intersections,
    dict building, a keyed sort) that times the host, not the program."""
    n = 240
    adj = [{(i * 7 + j * 13) % n for j in range(1, 13)} for i in range(n)]
    count = 0
    for i in range(n):
        a = adj[i]
        for j in a:
            count += len(a & adj[j])
    degree = {v: len(adj[v]) for v in range(n)}
    return count + sorted(range(n), key=lambda v: (degree[v], -v))[0]


def time_reference() -> float:
    """Seconds of REFERENCE_REPS calls of ``reference_work``."""
    start = time.perf_counter()
    for _ in range(REFERENCE_REPS):
        reference_work()
    return time.perf_counter() - start


def setup_once() -> float:
    """Wall time of a fresh interpreter running SETUP_CODE."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def run_metadata(sc) -> dict:
    """What a result must carry to be compared: program version and kernel
    backend, interpreter, source revision and the machine's load."""
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            git_sha = proc.stdout.strip() or None
        except OSError:
            pass
    # A checkout without git history is identified by its source files.
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "strongcover").rglob("*.py*")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "version": sc.__version__,
        "backend": sc.BACKEND,
        "python": platform.python_version(),
        "git_sha": git_sha,
        "source_sha": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def run_op(cli, op: workloads.Op) -> tuple[int | None, str, float, str | None]:
    """Exit code, stdout, seconds and error of one in-process CLI call."""
    out = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(op.doc)
    error = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(op.argv))
    except SystemExit as exc:
        error = f"exit {exc.code}"
    except Exception as exc:  # every failure of the program is recorded
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        sys.stdin = old_stdin
    return code, out.getvalue(), elapsed, error


class Harness:
    """Runs passes over one operation list and checks every output.

    ``expected`` holds, per operation, the stored reference or None.  The
    first run of an operation must pass the independent checks; a missing
    reference is then taken from it, so later passes must reproduce it.
    """

    def __init__(self, sc, ops: list[workloads.Op], reference: list[dict] | None):
        self.cli = sc.cli
        self.ops = ops
        self.expected = reference or [None] * len(ops)
        self.checked = [False] * len(ops)
        self.attempted = 0
        self.failures: list[str] = []
        self.report_bytes = 0

    def run_pass(
        self, tracer: tracing.Tracer | None = None, reference: list[float] | None = None
    ) -> tuple[float, list[float]]:
        """Wall seconds of the pass and the latency of each operation.  With
        ``reference``, the reference work is timed before each operation and
        appended to it."""
        latencies = []
        self.report_bytes = 0
        for i, op in enumerate(self.ops):
            gc.collect()
            if reference is not None:
                reference.append(time_reference())
            if tracer is not None:
                tracer.begin_op(i)
            code, out, elapsed, error = run_op(self.cli, op)
            latencies.append(elapsed)
            self.attempted += 1
            self.report_bytes += len(out.encode())
            if error is None:
                error = self._check(i, op, code, out)
            if error is not None:
                self.failures.append(f"{op.name}: {error}")
        return sum(latencies), latencies

    def _check(self, i: int, op: workloads.Op, code: int, out: str) -> str | None:
        try:
            digest = workloads.output_sha(out)
        except ValueError:
            return "report is not JSON"
        if not self.checked[i]:
            error = workloads.check_report(op, code, out)
            if error is not None:
                return error
            self.checked[i] = True
        want = self.expected[i]
        if want is None:
            self.expected[i] = {
                "name": op.name, "input_sha": op.input_sha,
                "exit": code, "output_sha": digest,
            }
            return None
        if want["name"] != op.name or want["input_sha"] != op.input_sha:
            return "input document differs from the reference"
        if want["exit"] != code:
            return f"exit code {code}, expected {want['exit']}"
        if want["output_sha"] != digest:
            return "output differs from the reference"
        return None


def _repeat(seconds: float, step) -> None:
    """Call ``step`` at least MIN_PASSES times, then while one more call as
    long as the last one still ends within ``seconds``."""
    start = time.perf_counter()
    calls = 0
    while True:
        began = time.perf_counter()
        step()
        calls += 1
        now = time.perf_counter()
        if calls >= MIN_PASSES and (now - start) + (now - began) > seconds:
            return


def measure(harness: Harness, seconds: float):
    """Pass walls, pooled operation latencies and set-up times, in seconds,
    and the reference work times of each pass: one before each operation,
    one between the last operation and the set-up sample, one after it.

    One set-up sample follows each pass, so set-up is sampled over the same
    stretch of time as the passes and a slow spell of the machine weighs on
    both alike.
    """
    walls, latencies, setups, reference = [], [], [], []
    setup_once()  # writes the bytecode caches; not measured
    time_reference()  # warm-up; not measured

    def step():
        times = []
        wall, lats = harness.run_pass(reference=times)
        times.append(time_reference())
        setups.append(setup_once())
        times.append(time_reference())
        walls.append(wall)
        latencies.extend(lats)
        reference.append(times)

    _repeat(seconds, step)
    return walls, latencies, setups, reference


def measure_traced(harness: Harness, seconds: float):
    """Alternate untraced and traced passes; returns untraced walls, traced
    walls, per-pass layer values and the spans of every traced pass."""
    plain, traced, layers, spans = [], [], [], []

    def step():
        plain.append(harness.run_pass()[0])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall, _ = harness.run_pass(tracer)
        finally:
            tracer.remove()
        leftovers = tracing.leftover_wrappers()
        if leftovers:
            raise Failure(f"wrappers left installed: {leftovers}")
        traced.append(wall)
        values = tracing.pass_layers(tracer.spans)
        values["cli.input_bytes"] = sum(len(op.doc.encode()) for op in harness.ops)
        values["cli.report_bytes"] = harness.report_bytes
        layers.append(values)
        spans.append(tracer.spans)

    _repeat(seconds, step)
    return plain, traced, layers, spans


def load_reference(workload: str, seed: int) -> list[dict] | None:
    if seed != REFERENCE_SEED or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload)


def record_reference(sc) -> None:
    """Store exit codes and digests of every workload at the reference seed."""
    table = {}
    for workload in workloads.WORKLOADS:
        ops = workloads.build(sc, workload, REFERENCE_SEED)
        harness = Harness(sc, ops, None)
        harness.run_pass()
        if harness.failures:
            raise Failure(f"{workload}: {harness.failures}")
        table[workload] = harness.expected
        print(f"recorded {workload}: {len(ops)} operations", file=sys.stderr)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def _times(
    lat_ms: list[float], setup: list[float], n: int, scales: list[float] | None = None
) -> dict[str, float]:
    """Timing metrics from pooled latencies of ``n`` operations per pass and
    set-up samples, each operation's mean latency multiplied by its entry in
    ``scales`` (see the module docstring)."""
    scales = scales or [1.0] * n
    op_ms = [statistics.mean(lat_ms[i::n]) * scales[i] for i in range(n)]
    return {
        "wall_s": sum(op_ms) / 1e3,
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": statistics.quantiles(op_ms, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setup),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json and exit")
    args = parser.parse_args(argv)
    try:
        sc = import_program()
        if args.record:
            record_reference(sc)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        return run(sc, args)
    except (Failure, subprocess.CalledProcessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


def run(sc, args) -> int:
    meta = run_metadata(sc)
    ops = workloads.build(sc, args.workload, args.seed)
    reference = load_reference(args.workload, args.seed)
    if args.seed == REFERENCE_SEED and (reference is None or len(reference) != len(ops)):
        raise Failure(f"reference.json does not list {args.workload}; run --record")
    harness = Harness(sc, ops, reference)

    result = {
        "meta": dict(meta, workload=args.workload, seed=args.seed, trace=args.trace,
                     seconds=args.seconds),
    }
    if args.trace == 0:
        walls, latencies, setup, reference = measure(harness, args.seconds)
        lat_ms = [x * 1e3 for x in latencies]
        n = len(ops)
        # Per pass, the mean reference time on either side of each
        # operation and then of the set-up sample.
        around = [[(a + b) / 2 for a, b in zip(times, times[1:])] for times in reference]
        scales = [
            REFERENCE_S / statistics.mean(pass_around[i] for pass_around in around)
            for i in range(n)
        ]
        raw = _times(lat_ms, setup, n)
        scaled = _times(
            lat_ms, [x * REFERENCE_S / a[n] for x, a in zip(setup, around)], n, scales
        )
        metrics = {
            name: _metric(value, "ms" if name.startswith("op_ms") else "s")
            for name, value in scaled.items()
        }
        metrics["peak_rss_mb"] = _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        )
        metrics["ok_ops_ratio"] = _metric(
            1 - len(harness.failures) / harness.attempted, "ratio"
        )
        result.update(passes=len(walls), walls_s=walls, latencies_ms=lat_ms,
                      setup_s=setup, reference_s=reference, scales=scales,
                      unscaled=raw)
        print(f"# {len(walls)} passes, {len(lat_ms)} latency samples, "
              f"{len(setup)} set-up samples, {sum(map(len, reference))} "
              "reference samples")
        print(f"# median host speed scale {statistics.median(scales):.4f}; unscaled "
              + json.dumps({k: round(v, 6) for k, v in raw.items()}))
    else:
        plain, traced, layers, spans = measure_traced(harness, args.seconds)
        values = tracing.median_layers(layers)
        values["trace.overhead_pct"] = 100 * (
            statistics.median(traced) / statistics.median(plain) - 1
        )
        metrics = {
            name: _metric(values[name], unit) for name, unit, _ in tracing.PER_LAYER
        }
        result.update(passes=len(traced), walls_s=plain, traced_walls_s=traced)
        print(f"# {len(traced)} traced and {len(plain)} untraced passes")
    result.update(
        ops=harness.expected, failures=harness.failures,
        attempted=harness.attempted, metrics=metrics,
    )
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    print("# meta " + json.dumps(result["meta"], sort_keys=True))
    for failure in harness.failures[:20]:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": not harness.failures,
        "attempted": harness.attempted,
        "failed": len(harness.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
