"""Time normalize, share, normal_eq, ==, hash and gen_occurrences on deep shared terms.

Three families of terms, each at several sizes:

- `chain n`: the round trip of `build_chain(n)` as one lens (finite carriers,
  seed 0): 2n distinct nodes, n(n+1)/2 + 2n generator occurrences;
- `copy k`: `(copy[A] ; h)` repeated k times: k distinct nodes, 2^k - 1
  generator occurrences;
- `optic n`: the round trip of `compose_optic_chain` over the n reified
  stages of the same chain: the same 2n distinct nodes and occurrences as
  `chain n`, but no subterm of the term is reached twice, so the walk that
  keeps the outputs of shared subterms finds none to keep (its worst case).

Each size runs in its own interpreter, killed after TIMEOUT_S seconds (marked
"not run"), which times REPEAT single shots of each operation and reports
their median, next to the exact counts `len(share(t).nodes)` and
`sum(gen_occurrences(normalize(t)).values())`.  `eq` compares a fresh
`normalize(t)` with `==` to a form normalized earlier, and `hash` hashes a
fresh form, so neither finds anything cached.

    python tools/bench_hashcons.py                      # this checkout's src/
    python tools/bench_hashcons.py --before REV --out BENCH_canonical.json

With `--before`, the same sizes also run on `src/` of git revision REV
(extracted with `git archive` into a temporary directory).  The two sides
are interleaved: each of ROUNDS rounds runs every size on both, and the side
that goes first alternates from round to round, so a machine whose speed
drifts slows both alike.  Each side reports the median over rounds, and
`after_over_before` the median of the per-round after/before ratios.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import timeit
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SIZES = (
    [("chain", n) for n in (16, 64, 128, 200, 1000)]
    + [("copy", k) for k in (12, 16, 20, 64)]
    + [("optic", n) for n in (64, 256, 1000)]
)
OPS = ("normalize", "share", "normal_eq", "eq", "hash", "gen_occurrences")
REPEAT = 5
ROUNDS = 6
TIMEOUT_S = 60.0


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


def measure(kind: str, size: int) -> dict:
    """Run in the child interpreter: timings and counts for one size."""
    from cartoptics import gen_occurrences, normal_eq, normalize, share

    t = build_term(kind, size)
    cf = normalize(t)
    calls = {
        "normalize": lambda: normalize(t),
        "share": lambda: share(t),
        "normal_eq": lambda: normal_eq(t, t),
        "eq": lambda: normalize(t) == cf,
        "hash": lambda: hash(normalize(t)),
        "gen_occurrences": lambda: gen_occurrences(cf),
    }
    median_s = {op: statistics.median(timeit.repeat(calls[op], number=1, repeat=REPEAT)) for op in OPS}
    return {
        "median_s": median_s,
        "dag_nodes": len(share(t).nodes),
        "gen_occurrences": sum(gen_occurrences(cf).values()),
    }


def run_child(script: str, src: Path, args: list[str], timeout_s: float = TIMEOUT_S) -> dict:
    """Run `script --one ARGS` on src in a fresh interpreter, which prints one JSON object."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, script, "--one", *args]
    try:
        p = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return {"status": f"not run: did not finish within {timeout_s:g} s"}
    if p.returncode != 0:
        err = (p.stderr.strip().splitlines() or ["no output"])[-1]
        return {"status": f"not run: failed with {err}"}
    return {"status": "ok", **json.loads(p.stdout)}


def interleave(sides: dict[str, Path], cases: dict[str, Callable[[Path], dict]], rounds: int):
    """Every case on every side, `rounds` times: side -> case -> rows, one per round.

    Within a round the side that goes first alternates from round to round,
    so a machine whose speed drifts slows both alike.
    """
    names = list(sides)
    runs: dict[str, dict[str, list[dict]]] = {name: {key: [] for key in cases} for name in names}
    for r in range(rounds):
        for key, measure in cases.items():
            for name in names if r % 2 == 0 else names[::-1]:
                row = measure(sides[name])
                runs[name][key].append(row)
                print(f"round {r} {name:6s} {key:12s}  {json.dumps(row)}", file=sys.stderr)
    return runs


def run_all(sides: dict[str, Path]) -> dict:
    """Every size on every side, ROUNDS times; rows per side, then ratios."""
    names = list(sides)
    cases = {
        f"{kind} {size}": lambda src, args=[kind, str(size)]: run_child(__file__, src, args)
        for kind, size in SIZES
    }
    runs = interleave(sides, cases, ROUNDS)
    out: dict = {name: {} for name in names}
    for name in names:
        for key, rows in runs[name].items():
            failed = [row for row in rows if row["status"] != "ok"]
            if failed:
                out[name][key] = failed[0]
                continue
            out[name][key] = {
                "status": "ok",
                "median_s": {op: statistics.median(row["median_s"][op] for row in rows) for op in OPS},
                "dag_nodes": rows[0]["dag_nodes"],
                "gen_occurrences": rows[0]["gen_occurrences"],
            }
    if len(names) == 2:
        before, after = (runs[name] for name in names)
        ratios = out["after_over_before"] = {}
        for key in before:
            pairs = list(zip(after[key], before[key]))
            if all(a["status"] == b["status"] == "ok" for a, b in pairs):
                ratios[key] = {
                    op: statistics.median(a["median_s"][op] / b["median_s"][op] for a, b in pairs)
                    for op in OPS
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
    ap.add_argument("--before", metavar="REV")
    ap.add_argument("--out")
    ap.add_argument("--one", nargs=2, metavar=("KIND", "SIZE"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        kind, size = args.one
        print(json.dumps(measure(kind, int(size))))
        return 0

    report: dict = {
        "what": "median over rounds of the median of single-shot timeit runs per operation; counts are exact",
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
        report.update(run_all(sides))
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
