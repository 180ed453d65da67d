#!/usr/bin/env python3
"""Benchmark for the artifact package: one closed-loop client, four workloads.

    python3 perfbench/run.py --workload modular --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
A run repeats passes of the workload's fixed operation list until --seconds
is used up (at least MIN_PASSES passes with --trace 0, MIN_TRACED_PASSES
passes with --trace 1).
Each pass is a fresh interpreter (bench_pass.py), so no cache inside the
package carries from one pass to the next, and BLAS/OpenMP are pinned to
BLAS_THREADS.

--trace 0 prints the end-to-end metrics, medians over the run's passes:
  wall_s       time to solution of one pass, at the speed of an idle core:
               each operation's wall time over the slowdown of its core
               sampled while it ran (speed.py), summed over the operation list
  peak_rss_mb  peak resident memory of the pass process
  setup_s      from starting the interpreter to `import artifact` returning,
               over the slowdown sampled right after it
The shared hosts this runs on change the speed of a core by up to 1.9x for
minutes at a time, which spread raw times of the same code by 10-25% between
runs; read at the sampled speed they spread by a few percent.  The raw wall
and set-up times and the sampled slowdown are printed as comment lines.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics, medians over the traced passes: self time per module from spans
around every public function, named inclusive times and counts, floors timed
in the same pass, array sizes computed from shapes (not measured), the
process CPU time of the untraced passes, and the tracing overhead (traced
minus untraced time, each operation's fastest time summed).  Spans are
written to .bench_out/spans-<workload>.jsonl.

Every operation's result is checked; failed/attempted is the error rate.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
Exit code 0 when every pass ran, 2 when the sources are missing, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
RUN_LIMIT_S = 170.0


class PassError(RuntimeError):
    pass


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pass_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_pass(args, traced: bool, run_id: int, spans: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "bench_pass.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--run", str(run_id)]
    if traced:
        cmd += ["--trace", "--spans", str(spans)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=pass_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass {run_id} did not finish within the run limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError(f"pass {run_id} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["artifact"]).resolve().is_relative_to(SRC):
        raise PassError(f"artifact was imported from {result['artifact']}, not {SRC}")
    result["setup_s"] = result["ready_at"] - started
    result["traced"] = traced
    return result


def fastest_pass(passes: list[dict]) -> float:
    """Sum over the operation list of each operation's fastest time."""
    lists = [p["op_s"] for p in passes]
    if len({len(ops) for ops in lists}) != 1:
        raise PassError("passes ran different operation lists")
    return sum(min(times) for times in zip(*lists))


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs a few small groups, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "artifact" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'artifact'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    spans = ROOT / ".bench_out" / f"spans-{args.workload}.jsonl"
    if args.trace:
        spans.parent.mkdir(exist_ok=True)
        spans.write_text("")
    need = MIN_TRACED_PASSES if args.trace else MIN_PASSES
    passes: list[dict] = []
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(args, traced, len(passes), spans, deadline))
            used = time.monotonic() - start
            if len(passes) >= need and used + used / len(passes) > args.seconds:
                break
        plain = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        for p in plain:
            p["wall_s"] = sum(t / f for t, f in zip(p["op_s"], p["op_slowdown"]))
            p["raw_wall_s"] = sum(p["op_s"])
            p["raw_setup_s"] = p["setup_s"]
            p["setup_s"] = p["raw_setup_s"] / p["setup_slowdown"]
        overhead_s = fastest_pass(traced) - fastest_pass(plain) if traced else 0.0
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for line in p["failures"][:20]:
            print(f"FAILED {line}", file=sys.stderr)

    env = passes[0]["env"]
    print(f"# perfbench workload={args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} passes={len(plain)} untraced + {len(traced)} traced")
    print(f"# env rev={git_revision()} nproc={os.cpu_count()} blas_threads={BLAS_THREADS} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']}")
    print(f"# error_rate {failed / attempted:.6g} ({failed} of {attempted} operations failed)")

    def median_of(key: str, group: list[dict]) -> float:
        return statistics.median(p[key] for p in group)

    if args.trace:
        wanted = spec["per_layer"]
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values["process.cpu_s"] = median_of("cpu_s", plain)
        values["trace.overhead_s"] = overhead_s
        layers = {k[:-len(".self_s")]: v for k, v in values.items()
                  if k.endswith(".self_s") and k.count(".") == 1}
        print(f"# dominant layer: {max(layers, key=layers.get)} "
              f"(self time, median of {len(traced)} traced passes)")
    else:
        wanted = spec["end_to_end"]
        values = {key: median_of(key, plain) for key in ("wall_s", "peak_rss_mb", "setup_s")}
        for key in ("wall_s", "raw_wall_s", "median_slowdown", "peak_rss_mb", "setup_s",
                    "raw_setup_s"):
            lo, hi = quartiles([p[key] for p in plain])
            print(f"# per pass {key}: median {median_of(key, plain):.6g}, "
                  f"quartiles {lo:.6g} .. {hi:.6g}, {len(plain)} passes")

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
