"""Benchmark for the mary CLI: end-to-end timings, or a traced run per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

--trace 0 measures what a user sees.  A single closed-loop client runs
the workload's commands one at a time, each as a fresh
``python -m mary ...`` process with PYTHONPATH=src, so nothing cached in
one process helps the next.  It repeats whole passes over the commands
until --seconds have elapsed, and checks every command's output.  It
reports:

  setup_s      median time for a fresh interpreter to import mary.cli,
               sampled between commands about every 1.5 s of the run
  pass_s       median wall time of one pass over the workload's commands
  peak_rss_mb  the largest peak RSS of any child process

and, on the lines before the result only, the median per pass of each
command kind (verify_s, verify_jobs2_s, count_s, expand_s) and
fail_frac, the failed share of the commands run.

--trace 1 runs the same commands in this process, with --jobs 1 only,
wrapping the public functions of mary.cli, mary.congruence,
mary.counting and mary.series (see tracer.py).  After an untimed warm-up
pass, traced and untraced passes alternate, starting and ending with a
traced one, until --seconds have elapsed.  The call counts of all traced
passes must agree exactly; each time is the median over traced passes.

  congruence.residue_s/_calls     residue_b/residue_c, hypothesis included
  congruence.hypothesis_s/_calls  check_hypothesis
  congruence.expand_theorem_s     expand_*_theorem, series.mul included
  congruence.expand_product_s     expand_*_product minus the counting it calls
  series.mul_s/_calls             series.mul
  counting.series_s/_calls        count_b_series/count_c_series
  cli.grid_build_s                default_grid
  cli.self_s                      the command minus the layer calls above:
                                  compare loops, records, output formatting
  series.coprimality_witness_calls
  trace.overhead_s                traced pass time minus untraced pass time

The spans of the first traced pass go to perfbench/out/trace-<workload>.json.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Lines before it repeat each figure with its unit and sample
count, and describe the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# set-up is sampled between commands, one sample per this much run time
SETUP_EVERY_S = 1.5
CHILD_TIMEOUT_S = 60.0
# no new pass starts once one more pass could end past this point
RUN_BUDGET_S = 140.0


def environment(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    git = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, check=False)
            git = done.stdout.strip() or None
        except OSError:  # no git installed
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def run_child(argv: list[str]) -> tuple[float, int, str]:
    """Run one process in its own session; kill the session on timeout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, text=True, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return perf_counter() - start, -1, ""
    return perf_counter() - start, proc.returncode, out


class Verifier:
    """Checks command outputs; an output already checked is compared instead."""

    def __init__(self) -> None:
        self.passed: dict[tuple, bytes] = {}
        self.attempted = 0
        self.failed = 0

    def __call__(self, cmd, code: int, out: str) -> None:
        self.attempted += 1
        digest = hashlib.sha256(f"{code}\n{out}".encode()).digest()
        if self.passed.get(cmd.argv) == digest:
            return
        try:
            error = cmd.check(code, out)
        except (ValueError, LookupError) as exc:  # output too garbled to parse
            error = f"unreadable output: {exc!r}"
        if error is None:
            self.passed[cmd.argv] = digest
        else:
            self.failed += 1
            print(f"FAILED mary {' '.join(cmd.argv)}: {error}", file=sys.stderr)


def end_to_end(workload, seed: int, seconds: int, verify: Verifier) -> tuple[dict, dict]:
    """Returns (metrics, sample counts) measured on fresh processes."""
    def import_time() -> float:
        elapsed, code, _ = run_child([sys.executable, "-c", "import mary.cli"])
        if code != 0:
            sys.exit(f"error: cannot import mary.cli from {SRC}")
        return elapsed

    import_time()  # fills the bytecode cache, as an install would
    commands = workload.commands(seed)
    setup = []
    start = next_setup = perf_counter()
    passes = []
    while True:
        began = perf_counter()
        times = defaultdict(float)
        for cmd in commands:
            # set-up samples are spread over the run, so that they see the
            # same machine as the commands do
            while perf_counter() >= next_setup:
                setup.append(import_time())
                next_setup += SETUP_EVERY_S
            elapsed, code, out = run_child([sys.executable, "-m", "mary", *cmd.argv])
            times[cmd.label] += elapsed
            verify(cmd, code, out)
        passes.append(times)
        now = perf_counter()
        if now - start >= seconds or now - start + (now - began) > RUN_BUDGET_S:
            break

    print("pass times (s): " + " ".join(f"{sum(p.values()):.3f}" for p in passes),
          file=sys.stderr)
    metrics = {
        "setup_s": median(setup),
        "pass_s": median([sum(p.values()) for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    for label in dict.fromkeys(c.label for c in commands):
        metrics[label] = median([p[label] for p in passes])
    samples = dict.fromkeys(metrics, len(passes))
    samples["setup_s"] = len(setup)
    samples["peak_rss_mb"] = 1 + len(setup) + verify.attempted
    return metrics, samples


def layer_figures(tracer) -> dict:
    calls, total, self_time = tracer.calls, tracer.total, tracer.self_time
    return {
        "congruence.residue_s": total["congruence.residue"],
        "congruence.residue_calls": calls["congruence.residue"],
        "congruence.hypothesis_s": total["congruence.hypothesis"],
        "congruence.hypothesis_calls": calls["congruence.hypothesis"],
        "congruence.expand_theorem_s": total["congruence.expand_theorem"],
        "congruence.expand_product_s": self_time["congruence.expand_product"],
        "series.mul_s": total["series.mul"],
        "series.mul_calls": calls["series.mul"],
        "counting.series_s": total["counting.series"],
        "counting.series_calls": calls["counting.series"],
        "cli.grid_build_s": total["cli.grid_build"],
        "cli.self_s": self_time["cli.command"] + self_time["cli.cell"],
        "series.coprimality_witness_calls": calls["series.coprimality_witness"],
    }


def per_layer(workload, seed: int, seconds: int, verify: Verifier, env: dict) -> tuple[dict, dict, bool]:
    """Returns (metrics, sample counts, whether call counts repeated exactly)."""
    import mary.cli
    from tracer import Tracer

    commands = workload.traced_commands(seed)

    def run_pass(tracer):
        main = mary.cli.main
        if tracer is not None:
            main = tracer.timed("cli.command", main, keep_span=True)
        outputs, elapsed = [], 0.0
        for cmd in commands:
            buf = io.StringIO()
            with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                start = perf_counter()
                try:
                    code = main(list(cmd.argv))
                except Exception:  # a crash fails this command, not the run
                    code = -1
                    traceback.print_exc(file=sys.__stderr__)
                elapsed += perf_counter() - start
            outputs.append((cmd, code, buf.getvalue()))
        # checks call into mary too, so they run with the tracer removed
        for cmd, code, out in outputs:
            verify(cmd, code, out)
        return elapsed

    # an untimed warm-up pass first: the first pass in a process is slower
    run_pass(None)
    untraced, traced, tracers = [], [], []
    start = perf_counter()
    schedule = [True, False, True]
    while schedule:
        began = perf_counter()
        for use_tracer in schedule:
            if use_tracer:
                tracer = Tracer()
                with tracer.installed():
                    traced.append(run_pass(tracer))
                tracers.append(tracer)
            else:
                untraced.append(run_pass(None))
        now = perf_counter()
        more = now - start < seconds and now - start + (now - began) <= RUN_BUDGET_S
        schedule = [False, True] if more else []

    repeat = all(t.calls == tracers[0].calls for t in tracers)
    if not repeat:
        print("FAILED call counts differ between traced passes: "
              + "; ".join(str(dict(t.calls)) for t in tracers), file=sys.stderr)
    figures = [layer_figures(t) for t in tracers]
    # counts repeat exactly, so the first pass gives them; times take the median
    metrics = {name: value if name.endswith("_calls") else median([f[name] for f in figures])
               for name, value in figures[0].items()}
    metrics["trace.overhead_s"] = median(traced) - median(untraced)
    samples = dict.fromkeys(metrics, len(tracers))
    samples["trace.overhead_s"] = len(untraced)

    for layer, want in workload.expected_calls.items():
        if tracers[0].calls[layer] != want:
            print(f"note: {layer} made {tracers[0].calls[layer]} calls, "
                  f"against {want} when the benchmark was defined", file=sys.stderr)

    first = tracers[0]
    origin = min((s["start"] for s in first.spans), default=0.0)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload.name}.json", "w") as f:
        json.dump({
            "env": env,
            "calls": first.calls,
            "total_s": first.total,
            "self_s": first.self_time,
            "spans": [dict(s, start=s["start"] - origin, end=s["end"] - origin)
                      for s in first.spans],
        }, f, indent=1)
    return metrics, samples, repeat


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "mary" / "__init__.py").is_file():
        print(f"error: no mary sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env))
    verify = Verifier()
    if args.trace:
        metrics, samples, repeat = per_layer(workload, args.seed, args.seconds, verify, env)
        reported = metrics
    else:
        metrics, samples = end_to_end(workload, args.seed, args.seconds, verify)
        repeat = True
        reported = {k: metrics[k] for k in ("setup_s", "pass_s", "peak_rss_mb")}
        metrics["fail_frac"] = verify.failed / verify.attempted
        samples["fail_frac"] = verify.attempted

    for name, value in metrics.items():
        print(f"{name:<34} {value:>14.6g} {unit(name):<5}  (n={samples[name]})")
    print(json.dumps({
        "correct": verify.failed == 0 and repeat,
        "attempted": verify.attempted,
        "failed": verify.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in reported.items()},
    }))
    return 0


def unit(name: str) -> str:
    if name.endswith("_calls"):
        return "count"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    return "1"


if __name__ == "__main__":
    sys.exit(main())
