"""Benchmark of the cartoptics package: one workload, one seed, one run.

    python3 perfbench/run.py --workload chain-finite --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  The
run sets up the workload several times (the median is `setup_s`), warms up
with one operation of each kind, then runs rounds of operations in a closed
loop until `--seconds` have passed, checking every output.  It prints a
human-readable table, then as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics, measured with no
tracing installed.  With `--trace 1` the same rounds run under the tracer in
tracing.py, the metrics are the per-layer ones, and the spans are written to
perfbench/out/.  `--write-manifest` regenerates BENCHMARK.json from the
tables below.
"""

from __future__ import annotations

import os

# One thread per BLAS/OpenMP pool, set before numpy is first imported: the
# real chain's matvecs would otherwise start their own threads.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import inspect
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = (
    "bridge", "cli", "cost", "dag", "expr", "interp", "lens", "normal",
    "optic", "primitives", "sampling", "signature", "term", "twocell",
)
SETUP_REPEATS = 5
RUN_SECONDS = 30
CALIBRATION_REFERENCE_S = 1e-3

# name, unit, better, bound
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("compile_s.p50", "s", "lower", 0.15),
    ("run_s.lens.p50", "s", "lower", 0.2),
    ("run_s.lens.p90", "s", "lower", 0.25),
    ("run_s.optic.p50", "s", "lower", 0.2),
    ("run_s.optic.p90", "s", "lower", 0.25),
    ("run_s.shared.p50", "s", "lower", 0.2),
    ("run_s.shared.p90", "s", "lower", 0.25),
    ("verdict_s.p50", "s", "lower", 0.25),
    ("verdict_s.p90", "s", "lower", 0.25),
    ("laws_per_s", "1/s", "higher", 0.2),
    ("search_s.p50", "s", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Traced functions: metric prefix -> (module, attribute, keeps spans).
TIMED = {
    "expr.parse_term": ("expr", "parse_term", True),
    "lens.compose_chain": ("lens", "compose_chain", True),
    "lens.lens_exec": ("lens", "lens_exec", True),
    "optic.compose_optic_chain": ("optic", "compose_optic_chain", True),
    "optic.optic_exec": ("optic", "optic_exec", True),
    "bridge.check_adjunction": ("bridge", "check_adjunction", True),
    "bridge.coherence_suite": ("bridge", "coherence_suite", True),
    "bridge.check_oplax_coherence": ("bridge", "check_oplax_coherence", True),
    "normal.normalize": ("normal", "normalize", False),
    "normal.normal_eq": ("normal", "normal_eq", False),
    "dag.share": ("dag", "share", True),
    "dag.evaluate_dag": ("dag", "evaluate_dag", True),
    "interp.evaluate": ("interp", "evaluate", True),
    "interp.extensional_counterexample": ("interp", "extensional_counterexample", False),
    "twocell.mk_two_cell": ("twocell", "mk_two_cell", False),
    "twocell.enumerate_wire_terms": ("twocell", "enumerate_wire_terms", False),
    "twocell.search_cells": ("twocell", "search_cells", True),
    "cli.main": ("cli", "main", True),
}
# Layers that some workload never calls: their self time is printed and
# written to the trace file, and their call count goes in the result line.
CALLS_ONLY = (
    "bridge.check_adjunction",
    "bridge.coherence_suite",
    "interp.extensional_counterexample",
    "primitives.fn",
    "sampling",
)
STRUCTURE_COUNTS = (
    ("normal.gen_occurrences", "count"),
    ("dag.nodes", "count"),
    ("term.lens_put_nodes", "count"),
    ("term.optic_backward_nodes", "count"),
    ("lens.get_evals", "count"),
    ("optic.get_evals", "count"),
    ("lens.copies", "count"),
    ("lens.residual_slots", "count"),
    ("optic.residual_slots", "count"),
    ("optic.residual_bytes", "bytes"),
)
TRACED_NAMES = tuple(TIMED) + ("primitives.fn", "sampling")


def per_layer_metrics() -> list[tuple[str, str]]:
    out = []
    for name in TRACED_NAMES:
        if name not in CALLS_ONLY:
            out.append((f"{name}.self_s", "s"))
        out.append((f"{name}.calls", "count"))
    out += [
        ("twocell.mk_two_cell.accept_ratio", "ratio"),
        ("interp.apply.calls", "count"),
        ("interp.exhaustive_inputs", "count"),
        ("twocell.candidates", "count"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out + list(STRUCTURE_COUNTS)


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "higher" if n.endswith("accept_ratio") else "lower"}
            for n, u in per_layer_metrics()
        ],
    }


# --- set-up ------------------------------------------------------------------------


def import_package() -> SimpleNamespace:
    """Import cartoptics afresh from src/ (its import time is part of set-up)."""
    for name in [m for m in sys.modules if m == "cartoptics" or m.startswith("cartoptics.")]:
        del sys.modules[name]
    importlib.import_module("cartoptics")
    return SimpleNamespace(
        **{m: importlib.import_module(f"cartoptics.{m}") for m in MODULES}
    )


def calibration_loop() -> int:
    """Fixed pure-Python work: dict inserts of freshly built tuples and strings."""
    d = {}
    for i in range(3000):
        d[(i, i & 7)] = (i, str(i))
    return len(d)


class Speed:
    """The machine's current speed, read off a fixed calibration loop.

    On a shared machine the same operation can take twice as long from one
    second to the next, while its ratio to the calibration loop stays within
    a few percent.  Every timed sample is therefore scaled to reference-speed
    seconds: the seconds it would have taken had the calibration loop taken
    CALIBRATION_REFERENCE_S, using the mean of the calibrations just before
    and just after it.
    """

    def __init__(self) -> None:
        self.last = self.sample()

    @staticmethod
    def sample() -> float:
        gc.disable()  # the loop's time must not depend on the program's heap
        try:
            t0 = time.perf_counter()
            calibration_loop()
            return time.perf_counter() - t0
        finally:
            gc.enable()

    def scale(self) -> float:
        """Factor for the seconds measured since the last call."""
        before, self.last = self.last, self.sample()
        return 2 * CALIBRATION_REFERENCE_S / (before + self.last)


def prepare(w: workloads.Workload, seed: int, workdir: Path):
    """Set up SETUP_REPEATS times; keep the last state and the set-up times."""
    times, wall, speed = [], [], Speed()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        speed.scale()
        t0 = time.perf_counter()
        M = import_package()
        st = workloads.prepare(M, w, seed, workdir)
        wall.append(time.perf_counter() - t0)
        times.append(wall[-1] * speed.scale())
    workloads.attach_references(st)
    gc.freeze()  # the set-up's objects are never scanned by the collector again
    return st, times, wall


# --- measuring ---------------------------------------------------------------------


class Loop:
    """Runs rounds of operations, checks them and keeps the samples."""

    def __init__(self, st: workloads.State):
        self.st = st
        self.recipe = st.w.recipe()
        self.per_round = Counter(self.recipe)
        self.samples: dict[str, list[float]] = {}  # reference-speed seconds
        self.wall: dict[str, list[float]] = {}  # the same samples, unscaled
        self.speed = Speed()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def round(
        self, r: int, deadline: float | None = None, warm_up: bool = False
    ) -> tuple[float, float]:
        """Run round r; return its operations' time, scaled and unscaled.

        An untraced run passes its deadline and stops between operations.  A
        warm-up runs the first operation of each kind and records nothing.
        """
        gc.collect()
        seen: dict[str, int] = {}
        clock = time.perf_counter
        total = wall_total = 0.0
        self.speed.scale()
        for op in self.recipe:
            k = seen.get(op, 0)
            seen[op] = k + 1
            if warm_up and k:
                continue
            if deadline is not None and clock() >= deadline:
                break
            index = r * self.per_round[op] + k
            self.attempted += not warm_up
            try:
                name, wall = workloads.OPS[op](self.st, index, clock)
            except Exception as e:  # a failed operation is counted, never dropped
                self.failed += not warm_up
                if not warm_up and len(self.errors) < 5:
                    self.errors.append(f"{op}[{index}]: {type(e).__name__}: {e}")
                self.speed.scale()  # keep the next operation's calibration next to it
                continue
            dt = wall * self.speed.scale()
            total += dt
            wall_total += wall
            if not warm_up:
                self.samples.setdefault(name, []).append(dt)
                self.wall.setdefault(name, []).append(wall)
        return total, wall_total


def p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10)[-1] if len(xs) > 1 else xs[0]


def summarize(samples: dict[str, list[float]], setup: list[float], laws: int) -> dict:
    """End-to-end timings: name -> (value, sample count)."""
    out = {"setup_s": (statistics.median(setup), len(setup))}
    for key, name in (("compile_s", "compile_s.p50"), ("search_s", "search_s.p50")):
        if key in samples:
            out[name] = (statistics.median(samples[key]), len(samples[key]))
    for key in ("run_s.lens", "run_s.optic", "run_s.shared", "verdict_s"):
        if key in samples:
            out[f"{key}.p50"] = (statistics.median(samples[key]), len(samples[key]))
            out[f"{key}.p90"] = (p90(samples[key]), len(samples[key]))
    if "verdict_s" in samples:
        out["laws_per_s"] = (laws / sum(samples["verdict_s"]), len(samples["verdict_s"]))
    return out


def install_tracer(st: workloads.State) -> tracing.Tracer:
    M, tr = st.M, tracing.Tracer()
    for name, (mod, attr, span) in TIMED.items():
        original = getattr(getattr(M, mod), attr)
        reject = M.twocell.TwoCellError if name == "twocell.mk_two_cell" else None
        tr.patch_everywhere("cartoptics", original, tr.timed(name, original, span, reject))
    for attr, original in list(vars(M.sampling).items()):
        # every public function the sampling module defines counts as "sampling"
        if inspect.isfunction(original) and original.__module__ == M.sampling.__name__:
            if not attr.startswith("_"):
                tr.patch_everywhere("cartoptics", original, tr.timed("sampling", original))
    for original, name in (
        (M.interp.enumerate_inputs, "interp.exhaustive_inputs"),
        (M.twocell.enumerate_morphisms, "twocell.candidates"),
    ):
        tr.patch_everywhere("cartoptics", original, tr.counted_items(name, original))
    tr.set_attr(M.interp.Interp, "apply", tr.counted("interp.apply.calls", M.interp.Interp.apply))
    wrapped = {g: tr.timed("primitives.fn", fn) for g, fn in st.interp.fns.items()}
    tr.set_attr(st.interp, "fns", wrapped)
    return tr


def measure(st: workloads.State, seconds: float, trace: bool):
    """Warm up, then run rounds until `seconds` have passed.

    A traced run first times `trace_rounds` rounds untraced, then cycles
    through the same rounds under the tracer; call counts are taken over the
    first cycle, so they repeat exactly, and self times are per round, scaled
    by each round's speed factor.
    """
    clock = time.perf_counter
    loop = Loop(st)
    loop.round(0, warm_up=True)
    st.laws_checked = 0  # laws_per_s counts only the verdicts that left a sample
    start = clock()
    if not trace:
        loop.round(0)
        r = 1
        while clock() - start < seconds:
            loop.round(r, deadline=start + seconds)
            r += 1
        return loop, None
    k = st.w.trace_rounds
    untraced = [loop.round(r)[0] for r in range(k)]
    tr = install_tracer(st)
    traced: list[float] = []
    self_s: Counter = Counter()
    try:
        while len(traced) < k or clock() - start < seconds:
            before = dict(tr.self_s)
            scaled, wall = loop.round(len(traced) % k)
            traced.append(scaled)
            factor = scaled / wall if wall else 1.0
            for name, total in tr.self_s.items():
                self_s[name] += (total - before.get(name, 0.0)) * factor
            if len(traced) == k:
                first_cycle = (Counter(tr.calls), Counter(tr.rejected))
    finally:
        tr.remove()
    calls, rejected = first_cycle
    layers: dict[str, float] = {}
    for name in TRACED_NAMES:
        layers[f"{name}.self_s"] = self_s[name] / len(traced)
        layers[f"{name}.calls"] = calls[name] / k
    attempts = calls["twocell.mk_two_cell"]
    layers["twocell.mk_two_cell.accept_ratio"] = (
        (attempts - rejected["twocell.mk_two_cell"]) / attempts if attempts else 0.0
    )
    for name in ("interp.apply.calls", "interp.exhaustive_inputs", "twocell.candidates"):
        layers[name] = calls[name] / k
    layers["trace.overhead_ratio"] = sum(traced[:k]) / sum(untraced)
    layers.update(st.counts)
    layers.update(workloads.structure_counts(st))
    return loop, (layers, tr.span_records())


# --- reporting -----------------------------------------------------------------------


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def run(w: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; return the result and the report."""
    workdir = OUT / f"work-{os.getpid()}"
    try:
        st, setup_times, setup_wall = prepare(w, seed, workdir)
        loop, traced = measure(st, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    e2e = summarize(loop.samples, setup_times, st.laws_checked)
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    if trace:
        layers, spans = traced
        metrics = {n: {"value": layers[n], "unit": u} for n, u in per_layer_metrics()}
    else:
        layers, spans = {}, []
        metrics = {n: {"value": e2e[n][0], "unit": u} for n, u, _, _ in END_TO_END if n in e2e}
    return {
        "result": {
            "correct": loop.failed == 0 and len(metrics) == len(
                per_layer_metrics() if trace else END_TO_END
            ),
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": metrics,
        },
        "end_to_end": e2e,
        "wall": summarize(loop.wall, setup_wall, st.laws_checked),
        "layers": layers,
        "spans": spans,
        "errors": loop.errors,
    }


def report(w: workloads.Workload, seed: int, seconds: float, trace: bool, out: dict) -> None:
    env = environment()
    res = out["result"]
    print(f"# cartoptics benchmark: workload {w.name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    print("# " + "  ".join(f"{k} {v}" for k, v in env.items()))
    if trace:
        units = dict(per_layer_metrics())
        for name in sorted(out["layers"]):
            print(f"{name:44s} {out['layers'][name]:>14.6g} {units.get(name, 's')}")
        path = OUT / f"trace-{w.name}-seed{seed}.json"
        OUT.mkdir(exist_ok=True)
        path.write_text(
            json.dumps(
                {"workload": w.name, "seed": seed, "environment": env,
                 "per_layer": out["layers"], "spans": out["spans"]}
            )
        )
        print(f"# spans and per-layer metrics written to {path.relative_to(ROOT)}")
    else:
        units = {n: u for n, u, _, _ in END_TO_END}
        print(f"{'metric':20s} {'value':>14s} {'unit':5s} {'samples':>7s} {'unscaled':>14s}")
        for name, (value, count) in out["end_to_end"].items():
            wall = out["wall"].get(name, (value, count))[0]
            print(f"{name:20s} {value:>14.6g} {units[name]:5s} {count:>7d} {wall:>14.6g}")
    rate = res["failed"] / res["attempted"]
    print(f"{'error_rate':20s} {rate:>14.6g} {'ratio':5s} {res['attempted']:>7d}")
    for line in out["errors"]:
        print(f"# error: {line}", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-manifest", action="store_true", help="regenerate BENCHMARK.json")
    args = p.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if not (SRC / "cartoptics" / "__init__.py").is_file():
        print(f"error: no cartoptics package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = workloads.WORKLOADS[args.workload]
    out = run(w, args.seed, args.seconds, bool(args.trace))
    report(w, args.seed, args.seconds, bool(args.trace), out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
