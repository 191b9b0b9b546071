"""Time normalize, share, normal_eq, ==, hash and gen_occurrences on deep shared terms.

Two families of terms, each at several sizes:

- `chain n`: the round trip of `build_chain(n)` as one lens (finite carriers,
  seed 0): 2n distinct nodes, n(n+1)/2 + 2n generator occurrences;
- `copy k`: `(copy[A] ; h)` repeated k times: k distinct nodes, 2^k - 1
  generator occurrences.

For each size it prints the median of REPEAT single-shot `timeit` runs of
each operation, next to the exact counts `len(share(t).nodes)` and
`sum(gen_occurrences(normalize(t)).values())`.  `eq` compares a fresh
`normalize(t)` with `==` to a form normalized earlier, and `hash` hashes a
fresh form, so neither finds anything cached.  Each size runs in its own
interpreter, killed after TIMEOUT_S seconds (marked "not run").

    python tools/bench_hashcons.py                      # this checkout's src/
    python tools/bench_hashcons.py --before REV --out BENCH_listing.json

With `--before`, the same sizes are also run on `src/` of git revision REV
(extracted with `git archive` into a temporary directory).
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

ROOT = Path(__file__).resolve().parent.parent
SIZES = [("chain", n) for n in (16, 64, 128, 200)] + [("copy", k) for k in (12, 16, 20, 64)]
OPS = ("normalize", "share", "normal_eq", "eq", "hash", "gen_occurrences")
REPEAT = 5
TIMEOUT_S = 60.0


def build_term(kind: str, size: int):
    import cartoptics as C
    from cartoptics.optic import round_trip_term

    if kind == "chain":
        chain = C.build_chain(size, "finite", seed=0)
        return round_trip_term(C.reify(C.compose_chain(chain.lenses)))
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


def run_all(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = {}
    for kind, size in SIZES:
        cmd = [sys.executable, __file__, "--one", kind, str(size)]
        try:
            p = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            row = {"status": f"not run: did not finish within {TIMEOUT_S:g} s"}
        else:
            if p.returncode == 0:
                row = {"status": "ok", **json.loads(p.stdout)}
            else:
                err = (p.stderr.strip().splitlines() or ["no output"])[-1]
                row = {"status": f"not run: failed with {err}"}
        out[f"{kind} {size}"] = row
        print(f"{kind:6s} {size:4d}  {json.dumps(row)}", file=sys.stderr)
    return out


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
        "what": "median of single-shot timeit runs per operation; counts are exact",
        "repeat": REPEAT,
        "timeout_s": TIMEOUT_S,
        "versions": versions(),
    }
    if args.before:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", args.before], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
        with tempfile.TemporaryDirectory() as tmp:
            archive = Path(tmp) / "src.tar"
            subprocess.run(
                ["git", "archive", "-o", str(archive), rev, "src"], cwd=ROOT, check=True
            )
            with tarfile.open(archive) as tar:
                tar.extractall(tmp, filter="data")
            print(f"before: {rev}", file=sys.stderr)
            report["before"] = {"rev": rev, "sizes": run_all(Path(tmp) / "src")}
    print("after: working tree", file=sys.stderr)
    report["after"] = {"rev": "working tree", "sizes": run_all(ROOT / "src")}
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
