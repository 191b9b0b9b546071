"""Time cartoptics before and after a change, and check that its exact counts and outputs hold.

Every case runs in a fresh interpreter:

- `chain N` (N = 16, 64, 128, 200, 1000): the round trip of `build_chain(N)`
  as one lens (finite carriers, seed 0): 2N distinct nodes, N(N+1)/2 + 2N
  generator occurrences;
- `copy K` (K = 12, 16, 20, 64): `(copy[A] ; h)` repeated K times: K
  distinct nodes, 2^K - 1 generator occurrences;
- `optic N` (N = 64, 256, 1000): the round trip of `compose_optic_chain`
  over the N reified stages of the same chain: the same 2N distinct nodes
  and occurrences as `chain N`, but no subterm of the term is reached twice,
  so the walk that keeps the outputs of shared subterms finds none to keep
  (its worst case);
- `exec N` (N = 64, 256): `lens_exec` of the lens composite, `optic_exec`
  of the optic chain and `evaluate_dag` of the shared round trip of
  `build_chain(N, "finite", seed=0)`, on `chain_input(chain, 0)`;
- `check-laws`: `cartoptics check-laws --random-signatures 3 --seed 0`, run
  by `cli.main` in the child (import and start-up not timed);
- `coherence`: `check_oplax_coherence` on the 3-stage windows of
  `build_chain(64, "finite", seed=0)` that start at 0, 8, ..., 56, all
  eight in one shot;
- `pi0`: `search_cells` and `pi0_classes` on the optic family of
  `demos/05_connected_components.py`, once for each of the four tables of f;
- `pi0 1000`: the same with no interpretation on four packagings of
  `build_chain(1000, "finite", seed=0)`: reify of the left- and of the
  right-associated lens composite, the optic chain, and the optic of two
  reified half chains.
- `real`: `validate_chain_vjps` on `build_chain(16, "real", dim=256,
  seed=0)`, and `run_tradeoff(16, "real", dim=256)`, which builds, checks
  and runs that chain.
- `parse 600`: `parse_term` of the text of the forward pass of
  `compose_optic_chain` over the 600 reified stages of `build_chain(600,
  "finite", seed=9)`, 1.7 MB, most of it the residual's sort names.

The child prints one JSON object: the seconds per call of each timed
operation, the exact counts, and the SHA-256 of each output.  An operation
is timed in REPEAT `timeit` shots (one for `check-laws` and `pi0 1000`) of
the fewest calls, doubling from one, that take MIN_SHOT_S, and the median
shot is divided by its calls, so operations of microseconds are timed over
enough calls to rise above the clock's and the machine's noise.  A term case times
`normalize`, `normal_eq`, `eq` (`==` between a fresh `normalize(t)` and a
form normalized earlier) `hash` (of a fresh form) and `gen_occurrences`; it
counts `len(normalize(t).nodes)` and
`sum(gen_occurrences(normalize(t)).values())`, and its output is the
canonical form.  (`share` is `normalize`, so it is not timed apart.)  The output of `check-laws` is its stdout, and that of
`coherence` every law's checked count and verdict.  A `pi0` case also times
`search_cells` alone (`search`); it counts the cells per family, and its
output is, per family, the classes, the number of cells and every cell as
(source index, target index, witness, count), the witness, a canonical form,
as its JSON with its dom and cod.  Its classes also get a
digest of their own, since a search that finds more cells changes the rest
of the output but must not change the classes.  The `real` case counts
every exact column of the tradeoff rows; its outputs are the bytes of the
lens, optic and shared round trips of the whole chain on `chain_input`,
and the finite-difference verdict (not the worst error, whose low digits
depend on how the matrix products round).  An `exec` case counts each
strategy's get evaluations, copies and residual slots, and its outputs are
the three round trips (b, a') on every input of the chain.  The `parse`
case counts the text's length, and its output is the text of the parsed
term.

    python tools/bench.py                            # every case on this checkout's src/
    python tools/bench.py --case chain --case pi0    # a kind stands for all its sizes
    python tools/bench.py --before REV --out BENCH_<topic>.json

With `--before`, every case also runs on `src/` of git revision REV
(extracted with `git archive` into a temporary directory).  The two sides
are interleaved: each of ROUNDS rounds runs every case on both, and the side
that goes first alternates from round to round, so a machine whose speed
drifts slows both alike.  For every case the summary gives each side's
median and quartiles over rounds, `after_over_before` the median of the
per-round after/before ratios and the number of rounds the after side won,
and `identical` whether every run of both sides gave the same counts and
digests.  The exit code is 1 when a run failed (an error, or no result
within TIMEOUT_S) or anything differs, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import timeit
from contextlib import redirect_stdout
from dataclasses import astuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECK_LAWS = ["check-laws", "--random-signatures", "3", "--seed", "0"]
REPEAT = 5
ROUNDS = 10
MIN_SHOT_S = 0.01
TIMEOUT_S = 300.0
# run in a fresh interpreter with the side's src/ on PYTHONPATH: argv is (tools/, case)
CHILD = "import json, sys; sys.path.insert(0, sys.argv[1]); import bench; print(json.dumps(bench.measure(sys.argv[2])))"


def shots(fn, repeat: int = REPEAT) -> tuple[float, object]:
    """Seconds per call of fn, the median over `repeat` shots, and the last call's result.

    A shot is the fewest calls, doubling from one, that take MIN_SHOT_S; the
    shot that finds that number is the first of the `repeat`.
    """
    last = [None]

    def call() -> None:
        last[0] = fn()

    timer, number = timeit.Timer(call), 1
    while (first := timer.timeit(number)) < MIN_SHOT_S:
        number *= 2
    seconds = [first, *timer.repeat(repeat - 1, number)]
    return statistics.median(seconds) / number, last[0]


def build_term(kind: str, size: int):
    import cartoptics as C
    from cartoptics.optic import round_trip_term

    if kind == "chain":
        chain = C.build_chain(size, "finite", seed=0)
        return round_trip_term(C.reify(C.compose_chain(chain.lenses)))
    if kind == "optic":
        chain = C.build_chain(size, "finite", seed=0)
        return round_trip_term(C.compose_optic_chain([C.reify(l) for l in chain.lenses]))
    a = C.Obj((C.Sort("A", C.FiniteCarrier(2)),))
    h = C.Gen(C.Generator("h", a @ a, a, table=((0,), (1,), (1,), (0,))))
    t = C.Id(a)
    for _ in range(size):
        t = t >> (C.Copy(a) >> h)
    return t


def term_case(kind: str, size: int) -> dict:
    from cartoptics import gen_occurrences, normal_eq, normalize

    t = build_term(kind, size)
    cf = normalize(t)
    calls = {
        "normalize": lambda: normalize(t),
        "normal_eq": lambda: normal_eq(t, t),
        "eq": lambda: normalize(t) == cf,
        "hash": lambda: hash(normalize(t)),
        "gen_occurrences": lambda: gen_occurrences(cf),
    }
    return {
        "seconds": {op: shots(call)[0] for op, call in calls.items()},
        "counts": {"dag_nodes": len(cf.nodes), "gen_occurrences": sum(gen_occurrences(cf).values())},
        "outputs": {"form": cf.to_json()},
    }


def check_laws_case() -> dict:
    from cartoptics.cli import main

    def command() -> str:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(CHECK_LAWS)
        if code != 0:
            raise RuntimeError(f"check-laws exited {code}")
        return out.getvalue()

    seconds, stdout = shots(command, 1)
    return {"seconds": {"command": seconds}, "counts": {}, "outputs": {"stdout": stdout}}


def coherence_case() -> dict:
    import cartoptics as C

    chain = C.build_chain(64, "finite", seed=0)
    interp = C.Interp.from_signature(chain.signature)
    windows = [chain.lenses[i : i + 3] for i in range(0, 57, 8)]
    seconds, reports = shots(lambda: [C.check_oplax_coherence(*w, interp).to_json() for w in windows])
    return {"seconds": {"shot": seconds}, "counts": {}, "outputs": {"reports": reports}}


def demo_families() -> list[tuple[list, object]]:
    """The `demos/05` family for each table of f, with its interpretation."""
    import cartoptics as C

    a = C.Sort("A", C.FiniteCarrier(2))
    A = C.Obj((a,))
    families = []
    for table in (((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,))):
        sig = C.Signature((a,), (C.Generator("f", A, A, table=table),))
        unary = [C.Id(A), C.Gen(sig.generator("f"))]
        family = [C.Optic(C.UNIT, fw, bw) for fw in unary for bw in unary]
        family += [
            C.Optic(A, C.Copy(A) >> (u @ v), p >> w)
            for u in unary
            for v in unary
            for p in (C.Proj1(A, A), C.Proj2(A, A))
            for w in unary
        ]
        families.append((family, C.Interp.from_signature(sig)))
    return families


def chain_packagings(n: int) -> list[tuple[list, object]]:
    """Four packagings of `build_chain(n)`, with no interpretation."""
    import cartoptics as C

    lenses = list(C.build_chain(n, "finite", seed=0).lenses)
    halves = [C.reify(C.compose_chain(lenses[: n // 2])), C.reify(C.compose_chain(lenses[n // 2 :]))]
    family = [
        C.reify(C.compose_chain(lenses)),
        C.reify(C.compose_chain(lenses, "right")),
        C.compose_optic_chain([C.reify(l) for l in lenses]),
        C.compose_optic_chain(halves),
    ]
    return [(family, None)]


def pi0_case(families: list[tuple[list, object]], repeat: int) -> dict:
    from cartoptics import pi0_classes, search_cells

    search_s: list[float] = []  # seconds in `search_cells`, one entry per call

    def shot() -> list[dict]:
        search_s.append(0.0)
        out = []
        for family, interp in families:
            start = time.perf_counter()
            sample = search_cells(family, interp)
            search_s[-1] += time.perf_counter() - start
            edges = sample.edges
            cells = [
                (i, j, {**c.witness.to_json(), "dom": str(c.witness.dom), "cod": str(c.witness.cod)}, n)
                for c, (i, j, n) in zip(sample.cells, edges)
            ]
            out.append({"classes": pi0_classes(sample), "n_cells": sum(n for _, _, n in edges), "cells": cells})
        return out

    seconds, result = shots(shot, repeat)
    return {
        "seconds": {"shot": seconds, "search": statistics.median(search_s)},
        "counts": {"n_cells": [r["n_cells"] for r in result]},
        "outputs": {"cells": result, "classes": [r["classes"] for r in result]},
    }


def real_case() -> dict:
    import cartoptics as C
    from cartoptics.cost import FD_REL_TOL

    chain = C.build_chain(16, "real", dim=256, seed=0)
    interp = C.Interp.from_signature(chain.signature)
    a = C.chain_input(chain, 0)
    lens = C.compose_chain(chain.lenses)
    optic = C.compose_optic_chain([C.reify(l) for l in chain.lenses])
    round_trips = {  # each the flat tuple (b..., a'...)
        "lens": sum(C.lens_exec(lens, a, interp)[:2], ()),
        "optic": sum(C.optic_exec(optic, a, interp)[:2], ()),
        "shared": C.evaluate_dag(C.share(C.round_trip_term(C.reify(lens))), a, interp, C.CostReport()),
    }
    validate_s, worst = shots(lambda: C.validate_chain_vjps(chain, interp, 0))
    tradeoff_s, rows = shots(lambda: C.run_tradeoff(16, "real", dim=256))
    return {
        "seconds": {"validate_chain_vjps": validate_s, "run_tradeoff": tradeoff_s},
        "counts": {"rows": [[v for v in astuple(r) if not isinstance(v, float)] for r in rows]},
        "outputs": {
            "round_trips": {k: [v.tobytes().hex() for v in out] for k, out in round_trips.items()},
            "fd_passed": worst <= FD_REL_TOL,
        },
    }


def exec_case(n: int) -> dict:
    import cartoptics as C

    chain = C.build_chain(n, "finite", seed=0)
    interp = C.Interp.from_signature(chain.signature)
    lens = C.compose_chain(chain.lenses)
    optic = C.compose_optic_chain([C.reify(l) for l in chain.lenses])
    dag = C.share(C.round_trip_term(C.reify(lens)))

    def shared(a: tuple) -> tuple:  # (b, a', report), as the executors return
        # evaluate_dag, not evaluate: an older --before revision's evaluate takes no forms
        report = C.CostReport()
        out = C.evaluate_dag(dag, a, interp, report)
        return out[:1], out[1:], report

    runs = {
        "lens_exec": lambda a: C.lens_exec(lens, a, interp),
        "optic_exec": lambda a: C.optic_exec(optic, a, interp),
        "evaluate_dag": shared,
    }
    a = C.chain_input(chain, 0)
    inputs = list(C.enumerate_inputs(lens.dom_pair[0]))
    reports = {op: run(a)[2] for op, run in runs.items()}
    return {
        "seconds": {op: shots(lambda run=run: run(a))[0] for op, run in runs.items()},
        "counts": {  # per strategy: [get evaluations, copies, residual slots]
            op: [r.total_evals(chain.get_names), r.copies, r.peak_residual_slots] for op, r in reports.items()
        },
        "outputs": {op: [list(map(list, run(x)[:2])) for x in inputs] for op, run in runs.items()},
    }


def parse_case(n: int) -> dict:
    import cartoptics as C

    chain = C.build_chain(n, "finite", seed=9)
    text = str(C.compose_optic_chain([C.reify(l) for l in chain.lenses]).forward)
    seconds, term = shots(lambda: C.parse_term(text, chain.signature))
    return {"seconds": {"parse_term": seconds}, "counts": {"text_length": len(text)}, "outputs": {"term": str(term)}}


CASES = {
    **{f"chain {n}": lambda n=n: term_case("chain", n) for n in (16, 64, 128, 200, 1000)},
    **{f"copy {k}": lambda k=k: term_case("copy", k) for k in (12, 16, 20, 64)},
    **{f"optic {n}": lambda n=n: term_case("optic", n) for n in (64, 256, 1000)},
    **{f"exec {n}": lambda n=n: exec_case(n) for n in (64, 256)},
    "check-laws": check_laws_case,
    "coherence": coherence_case,
    "pi0": lambda: pi0_case(demo_families(), REPEAT),
    "pi0 1000": lambda: pi0_case(chain_packagings(1000), 1),
    "real": real_case,
    "parse 600": lambda: parse_case(600),
}


def digest(output) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def measure(case: str) -> dict:
    """Run in the child interpreter: seconds per timed operation, exact counts, output digests."""
    row = CASES[case]()
    row["digests"] = {name: digest(output) for name, output in row.pop("outputs").items()}
    return row


def run_case(src: Path, case: str) -> dict:
    """`measure(case)` in a fresh interpreter on src, with its status."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-c", CHILD, str(Path(__file__).resolve().parent), case]
    try:
        p = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"status": f"not run: did not finish within {TIMEOUT_S:g} s"}
    if p.returncode != 0:
        err = (p.stderr.strip().splitlines() or ["no output"])[-1]
        return {"status": f"failed: {err}"}
    return {"status": "ok", **json.loads(p.stdout)}


def interleave(sides: dict[str, Path], cases: list[str]) -> dict[str, dict[str, list[dict]]]:
    """Every case on every side, ROUNDS times: case -> side -> rows, one per round.

    Within a round the side that goes first alternates from round to round,
    so a machine whose speed drifts slows both alike.
    """
    names = list(sides)
    runs = {case: {name: [] for name in names} for case in cases}
    for r in range(ROUNDS):
        for case in cases:
            for name in names if r % 2 == 0 else names[::-1]:
                row = run_case(sides[name], case)
                runs[case][name].append(row)
                print(f"round {r} {name:6s} {case:10s} {row.get('seconds', row['status'])}", file=sys.stderr)
    return runs


def exact(row: dict) -> str:
    """What must not change from run to run: the counts and the output digests."""
    return json.dumps({"counts": row["counts"], "digests": row["digests"]}, sort_keys=True)


def summarize(by_side: dict[str, list[dict]]) -> dict:
    """One case's rows: spread per side, per-round ratios, and whether all runs agree exactly."""
    rows = [row for side in by_side.values() for row in side]
    failed = [row["status"] for row in rows if row["status"] != "ok"]
    if failed:
        return {"ok": False, "failed_runs": len(failed), "status": failed[0]}
    distinct = {name: sorted({exact(row) for row in side}) for name, side in by_side.items()}
    out: dict = {"ok": True, "identical": len({e for es in distinct.values() for e in es}) == 1}
    if out["identical"]:
        out.update(json.loads(exact(rows[0])))
    else:
        out["distinct"] = {name: [json.loads(e) for e in es] for name, es in distinct.items()}
    ops = list(rows[0]["seconds"])
    for name, side in by_side.items():
        out[name] = {}
        for op in ops:
            xs = [row["seconds"][op] for row in side]
            q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
            out[name][op] = {"median_s": q2, "quartiles_s": [q1, q3]}
    if len(by_side) == 2:
        pairs = list(zip(by_side["after"], by_side["before"]))
        out["after_over_before"] = {
            op: {
                "median": statistics.median(a["seconds"][op] / b["seconds"][op] for a, b in pairs),
                "wins": sum(a["seconds"][op] < b["seconds"][op] for a, b in pairs),
            }
            for op in ops
        }
    return out


def extract_src(rev: str, dest: Path) -> tuple[str, Path]:
    """`src/` of git revision REV, extracted with `git archive` under dest: (short hash, path)."""
    rev = subprocess.run(
        ["git", "rev-parse", "--short", rev], cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = dest / "src.tar"
    subprocess.run(["git", "archive", "-o", str(archive), rev, "src"], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    return rev, dest / "src"


def versions() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--before", metavar="REV", help="also run src/ of git revision REV, interleaved")
    ap.add_argument("--out", metavar="FILE", help="write the summary here instead of to stdout")
    ap.add_argument(
        "--case", action="append", metavar="NAME",
        help="a case, or the first word of some, such as 'chain' (repeatable; default: every case)",
    )
    args = ap.parse_args()
    names = args.case or list(CASES)
    cases = [case for case in CASES if case in names or case.split()[0] in names]
    unknown = set(names) - set(CASES) - {case.split()[0] for case in CASES}
    if unknown:
        ap.error(f"unknown case {', '.join(sorted(unknown))}; the cases are {', '.join(CASES)}")

    report: dict = {
        "what": (
            f"each side: median and quartiles over rounds of the seconds per call of each operation, "
            f"the median of {REPEAT} timeit shots (one for check-laws and pi0 1000) of the fewest calls, "
            f"doubling from one, that take {MIN_SHOT_S:g} s; counts are exact"
        ),
        "command": "cartoptics " + " ".join(CHECK_LAWS),
        "repeat": REPEAT,
        "rounds": ROUNDS,
        "timeout_s": TIMEOUT_S,
        "versions": versions(),
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"after": ROOT / "src"}
        if args.before:
            rev, src = extract_src(args.before, Path(tmp))
            sides = {"before": src, **sides}
            report["before_rev"] = rev
        runs = interleave(sides, cases)
    report["cases"] = {case: summarize(by_side) for case, by_side in runs.items()}
    report["ok"] = all(s["ok"] and s["identical"] for s in report["cases"].values())
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
