"""One benchmark pass in a fresh interpreter; started by run.py.

Imports artifact first, so the monotonic clock read right after the import
marks the end of set-up.  Then runs the workload once, untraced or traced,
and prints one JSON object on its last stdout line.  An untraced pass samples
the speed of its core all through (speed.py) and reports the slowdown while
each operation ran; every pass samples it once right after set-up.  A traced pass instead times its floors (one state copy per lattice patch shape, one Verlinde-shaped
complex GEMM per anyon count) and appends its spans to the --spans file.
"""

import time

import artifact

# Set-up ends here; everything below is imported after the clock is read.
READY_AT = time.monotonic()

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

import numpy as np

import tracing
import workloads
from speed import SETUP_KINDS, SMOOTH, WORKLOAD_KINDS, Speedometer

FLOOR_REPEATS = 3


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def state_copy_floor(dims) -> float:
    """Seconds for one copy of a complex state vector of the patch's shape."""
    amps = np.random.default_rng(0).standard_normal(tuple(dims)).astype(np.complex128)
    return _median_time(amps.copy, FLOOR_REPEATS)


def gemm_floor(m: int) -> float:
    """Seconds for the one complex GEMM that yields an m-anyon fusion tensor:
    (m^2 x m) @ (m x m), the Verlinde sum written as a single product."""
    rng = np.random.default_rng(m)
    left = rng.standard_normal((m * m, m)) + 1j * rng.standard_normal((m * m, m))
    right = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return _median_time(lambda: left @ right, FLOOR_REPEATS)


def layer_metrics(spans, bench: workloads.Pass) -> dict:
    """Per-layer metrics of one traced pass (see BENCHMARK.json)."""
    own = tracing.self_times(spans)
    top = tracing.outermost(spans)
    self_s = dict.fromkeys(tracing.LAYERS, 0.0)
    incl: dict = {}
    calls: dict = {}
    for (name, start, end, _, _), s, first in zip(spans, own, top):
        self_s[name.split(".")[0]] += s
        calls[name] = calls.get(name, 0) + 1
        if first:
            incl[name] = incl.get(name, 0.0) + end - start

    def total(*names):
        return sum(incl.get(n, 0.0) for n in names)

    def spans_of(name):
        return [(end - start, attrs) for n, start, end, _, attrs in spans if n == name]

    stacks = {json.dumps(a["key"]): a["bytes"] for _, a in spans_of("quantum_double.character_stack")}
    chars = [a["bytes"] for _, a in spans_of("condensation.boundary_character")]
    fusion = spans_of("quantum_double.fusion_verlinde")
    floors = {m: gemm_floor(m) for m in sorted({a["anyons"] for _, a in fusion})}
    gemm_s = sum(floors[a["anyons"]] for _, a in fusion)
    ribbons = spans_of("lattice.apply_ribbon")
    copies = {key: state_copy_floor(key) for key in {tuple(a["dims"]) for _, a in ribbons}}
    copy_s = statistics.fmean(copies[tuple(a["dims"])] for _, a in ribbons) if ribbons else 0.0
    ribbon_mean = statistics.fmean(d for d, _ in ribbons) if ribbons else 0.0

    out = {f"{layer}.self_s": s for layer, s in self_s.items()}
    out.update({
        "groups.direct_product_s": total("groups.direct_product"),
        "characters.character_table_s": total("characters.character_table"),
        "characters.snap_value_s": total("characters.snap_value"),
        "characters.snap_value.calls": calls.get("characters.snap_value", 0),
        "serialize.snap_rendered_ratio": bench.rendered / bench.cells if bench.cells else 0.0,
        "quantum_double.fusion_verlinde_s": total("quantum_double.fusion_verlinde"),
        "quantum_double.gemm_floor_s": gemm_s,
        "quantum_double.fusion_gemm_ratio": (
            total("quantum_double.fusion_verlinde") / gemm_s if gemm_s else 0.0),
        "quantum_double.dg_decompose_s": total("quantum_double.dg_decompose"),
        "quantum_double.character_stack_mb": sum(stacks.values()) / 1e6,
        "condensation.boundary_character_s": total("condensation.boundary_character"),
        "condensation.boundary_character_mb": sum(chars) / 1e6,
        "condensation.tunnel_s": total("condensation.tunnel"),
        "condensation.verify_cf_s": total("condensation.verify_cf_symmetry"),
        "modular.search_transposition_invariants_s": total(
            "modular.search_transposition_invariants"),
        "lattice.apply_ribbon_s": total("lattice.apply_ribbon"),
        "lattice.apply_ribbon.calls": calls.get("lattice.apply_ribbon", 0),
        "lattice.apply_ribbon.copies": ribbon_mean / copy_s if copy_s else 0.0,
        "lattice.state_copy_s": copy_s,
        "lattice.random_state_s": total("lattice.random_state"),
        "lattice.apply_vertex_s": total("lattice.apply_vertex"),
        "lattice.apply_face_s": total("lattice.apply_face"),
        "lattice.inner_s": total("lattice.inner"),
        "lattice.relation_report.self_s": sum(
            s for (name, *_), s in zip(spans, own)
            if name in ("lattice.bulk_relation_report", "lattice.wall_relation_report")),
    })
    return out


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas_version}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--run", type=int, default=0)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    setup_speed = Speedometer(SETUP_KINDS)
    setup_speed.take(SMOOTH)
    recorder = None
    if args.trace:
        recorder = tracing.Recorder(args.run)
        tracing.install(recorder)
    speed = None if args.trace else Speedometer(WORKLOAD_KINDS[args.workload])
    bench = workloads.Pass(recorder, speed)
    if speed is not None:
        speed.start()
    try:
        workloads.WORKLOADS[args.workload](bench, args.seed, tiny=args.size == "tiny")
    finally:
        if speed is not None:
            speed.stop()
    result = {
        "ready_at": READY_AT,
        "artifact": artifact.__file__,
        "op_s": bench.times,
        "op_slowdown": speed.during(bench.spans) if speed else [1.0] * len(bench.times),
        "setup_slowdown": setup_speed.median(),
        "median_slowdown": speed.median() if speed else 1.0,
        "cpu_s": bench.cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures,
        "env": environment(),
    }
    if recorder is not None:
        recorder.active = False
        result["layers"] = layer_metrics(recorder.spans, bench)
        if args.spans is not None:
            with args.spans.open("a", encoding="utf-8") as fh:
                recorder.write(fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
