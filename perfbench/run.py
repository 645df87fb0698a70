"""catprob benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports catprob from `src/`.  The
workload's fixed item list (see workloads.py) is built from the seed, and
every item run is checked against the benchmark's own oracle.

--trace 0 runs the list in rounds for about S seconds, tracing off, and
reports the end-to-end metrics:
  setup_s      median over fresh interpreters of the time from process start
               to the first timed item (import catprob, build the inputs)
  wall_s       time of the item list: the sum of each item's median time over
               its repetitions
  items_per_s  items in the list / wall_s
  peak_rss_mb  peak resident memory of this process
The three times are given in seconds at the reference host speed, the speed
at which `ref_probe` takes REF_PROBE_S: each measured time is divided by the
probe's time measured right before and after it, on the same host state, and
multiplied by REF_PROBE_S (see Runner).  The raw seconds go into the context
line.
--trace 1 runs each item once untraced and once traced and reports the
per-layer metrics of layertrace.py; its work counts repeat exactly for a
given seed.

Items whose oracle check fails, or that raise, count in `failed`; the
result is `correct` only when none did.  The line before the result holds
the run's context (host reference-loop time, nproc, Python, source
revision), and the same data plus any raw spans go to perfbench/out/.
"""
import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from layertrace import NullProbe, Tracer, metric_catalogue

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
#: Nominal time of `ref_probe`: the unit that reported times are scaled to.
REF_PROBE_S = 0.002


def _import_library():
    """Put the checkout's src/ first on the path and check catprob comes from there."""
    if not (SRC / "catprob" / "__init__.py").is_file():
        raise SystemExit("error: no catprob sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import catprob

    if Path(catprob.__file__).resolve().parent != SRC / "catprob":
        raise SystemExit("error: catprob imported from %s, not %s" % (catprob.__file__, SRC))


def ref_loop_s():
    """Median time of a fixed stdlib Fraction loop: how fast the host is right now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 10001):
            total += Fraction(1, i % 97 + 1)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def ref_probe():
    """Time of a short fixed stdlib Fraction loop, about as long as a small item."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1001):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "catprob").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def context(args, nproc):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host.ref_loop_s": ref_loop_s(),
        "nproc": nproc,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }


def setup_seconds(args):
    """Median time from spawning a fresh interpreter to its first timed item,
    raw and at the reference speed (`ref_probe` right before the spawn and,
    in the new interpreter, right after it is ready give the host speed)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        before = statistics.median(ref_probe() for _ in range(3))
        t0 = time.monotonic_ns()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        ready, after = proc.stdout.split()[-2:]
        raw.append((int(ready) - t0) / 1e9)
        scaled.append(raw[-1] / (before + float(after)) * 2 * REF_PROBE_S)
    return statistics.median(raw), statistics.median(scaled)


class Runner:
    """Runs a workload's item list in rounds, keeping every item's times.

    On a shared host the speed of a CPU swings by 2x within seconds and
    drifts by more over hours, so raw times say as much about the
    neighbours as about the program.  The untraced rounds therefore run
    `ref_probe` right before and right after each item and divide the item's
    time by the mean of the two: that ratio stays put when the host changes
    speed, and REF_PROBE_S turns it back into seconds.
    """

    def __init__(self, run_item, check_item, items):
        self.run_item = run_item
        self.check_item = check_item
        self.items = items
        self.samples = [[] for _ in items]
        self.scaled = [[] for _ in items]
        self.attempted = 0
        self.problems = []

    def run(self, i, probe, keep=False):
        """Run and check item i once; return the time of the library call.
        With `keep`, the time is also kept, raw and scaled by the probes
        around the call."""
        item = self.items[i]
        self.attempted += 1
        before = ref_probe() if keep else None
        t0 = time.perf_counter()
        try:
            result = self.run_item(item, probe)
            problem = None
        except Exception as exc:
            problem = "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.perf_counter() - t0
        if keep:
            self.samples[i].append(elapsed)
            self.scaled[i].append(elapsed / (before + ref_probe()) * 2 * REF_PROBE_S)
        if problem is None:
            try:
                problem = self.check_item(item, result)
            except Exception as exc:
                problem = "oracle raised %s: %s" % (type(exc).__name__, exc)
        if problem:
            self.problems.append(problem)
        return elapsed

    def list_time(self, seconds):
        """Untraced rounds until the next one would end after `seconds` (at
        least three); returns the sums of the items' median times, raw and
        at the reference speed."""
        start = time.perf_counter()
        done = 0
        while done < 3 or (time.perf_counter() - start) * (done + 1) / done <= seconds:
            gc.collect()
            for i in range(len(self.items)):
                self.run(i, NullProbe(), keep=True)
            done += 1
        return (sum(statistics.median(s) for s in self.samples),
                sum(statistics.median(s) for s in self.scaled))

    def traced_round(self, tracer):
        """Each item untraced, then traced right after, so both see the same
        host speed; returns the two summed times."""
        gc.collect()
        plain = traced = 0.0
        for i in range(len(self.items)):
            plain += self.run(i, NullProbe())
            tracer.install()
            try:
                traced += self.run(i, tracer)
            finally:
                tracer.uninstall()
        return plain, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One CPU for this process and the set-up probes it starts, so that a
    # reference probe and the work it scales see the same CPU; on a shared
    # host the CPUs change speed independently of each other.
    cpus = os.sched_getaffinity(0)
    nproc = len(cpus)
    os.sched_setaffinity(0, {min(cpus)})

    _import_library()
    from workloads import WORKLOADS, doubling_ratio

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    build, run_item, check_item = WORKLOADS[args.workload]
    if args.setup_probe:
        build(args.seed)
        ready = time.monotonic_ns()
        print(ready, statistics.median(ref_probe() for _ in range(3)))
        return 0
    runner = Runner(run_item, check_item, build(args.seed))
    if args.trace == 0:
        raw_setup, setup = setup_seconds(args)
        raw_wall, wall = runner.list_time(args.seconds)
        ctx = context(args, nproc)
        ctx.update({"raw.setup_s": raw_setup, "raw.wall_s": raw_wall,
                    "rounds": len(runner.samples[0])})
        metrics = {
            "setup_s": (setup, "s"),
            "wall_s": (wall, "s"),
            "items_per_s": (len(runner.items) / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        spans = None
    else:
        tracer = Tracer()
        plain, traced = runner.traced_round(tracer)
        values = tracer.metrics()
        values["diagram.dyadic_doubling_ratio"] = (
            doubling_ratio() if args.workload == "dyadic-deep" else 0
        )
        values["trace.overhead_frac"] = traced / plain - 1
        ctx = context(args, nproc)
        values["host.ref_loop_s"] = ctx["host.ref_loop_s"]
        values["host.nproc"] = ctx["nproc"]
        metrics = {name: (values[name], unit) for name, unit, _ in metric_catalogue()}
        spans = tracer.dump()
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": len(runner.problems),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    for problem in runner.problems[:10]:
        print("FAILED: " + problem, file=sys.stderr)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump({"context": ctx, "result": result, "problems": runner.problems, "spans": spans}, fh)
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
