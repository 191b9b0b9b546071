"""Time the layers that cross-check 2-cells by exhaustive evaluation, and `pi0`.

Four cases, each run in its own interpreter:

- `check-laws`: `cartoptics check-laws --random-signatures 3 --seed 0`, wall
  time of the whole command (one shot), with the SHA-256 of its stdout;
- `coherence`: `check_oplax_coherence` on the 3-stage windows of
  `build_chain(64, "finite", seed=0)` that start at 0, 8, ..., 56; one shot
  checks all eight windows, and the output is every law's checked count and
  verdict;
- `pi0`: `search_cells` and `pi0_classes` on the optic family of
  `demos/05_connected_components.py`, once for each of the four tables of f
  (a revision whose search still takes a depth is given 3);
- `pi0-1000`: `search_cells` with no interpretation (depth 2 where taken) and
  `pi0_classes` on four packagings of `build_chain(1000, "finite", seed=0)`:
  reify of the left- and of the right-associated lens composite, the optic
  chain, and the optic of two reified half chains.

The output of a `pi0` case is, per family, the classes, the number of cells
and every cell as (source index, target index, witness text, count), the
count being 1 where the search reports none.  Its classes also get a digest
of their own (`classes_sha256`), since a search that finds more cells
changes the rest of the output but must not change the classes.  The
in-process cases report the median of REPEAT single shots (one shot for
`pi0-1000`); a `pi0` case also reports the seconds spent in `search_cells`
alone (`search_s`), since printing the witnesses of `pi0-1000` takes longer
than finding them.

    python tools/bench_exhaustive.py                      # this checkout's src/
    python tools/bench_exhaustive.py --before REV --out BENCH_exhaustive.json

With `--before`, every case also runs on `src/` of git revision REV; the
extraction and the interleaving (each of ROUNDS rounds runs every case on
both sides, the side that goes first alternating) are those of
`tools/bench_hashcons.py`.  Each side reports the median and quartiles over
rounds; `after_over_before` is the median of the per-round ratios; and
`outputs_identical` says whether every run of every side printed the same
output digest, and `classes_identical` the same for the classes of the `pi0`
cases.  The exit code is 0 when every run finished and every case printed
identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_hashcons import ROOT, extract_src, interleave, run_child, versions  # noqa: E402

CASES = ("check-laws", "coherence", "pi0", "pi0-1000")
CHECK_LAWS = ["check-laws", "--random-signatures", "3", "--seed", "0"]
REPEAT = 5
ROUNDS = 10
TIMEOUT_S = 300.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def coherence_shot():
    import cartoptics as C

    chain = C.build_chain(64, "finite", seed=0)
    interp = C.Interp.from_signature(chain.signature)
    windows = [chain.lenses[i : i + 3] for i in range(0, 57, 8)]

    def shot():
        reports = [C.check_oplax_coherence(l1, l2, l3, interp) for l1, l2, l3 in windows]
        return [r.to_json() for r in reports]

    return shot


def timed_search(search_s: list[float], family, sig, depth, interp):
    """`search_cells`, adding its seconds to the last entry of search_s.

    A tree whose `search_cells` still takes the signature and a depth gets them.
    """
    from cartoptics import search_cells

    args = (family, interp)
    if "depth" in inspect.signature(search_cells).parameters:
        args = (family, sig, depth, interp)
    start = time.perf_counter()
    sample = search_cells(*args)
    search_s[-1] += time.perf_counter() - start
    return sample


def pi0_output(C, sample, family) -> dict:
    index = {id(o): i for i, o in enumerate(family)}
    counts = getattr(sample, "counts", ()) or (1,) * len(sample.cells)
    cells = [
        (index[id(c.src)], index[id(c.tgt)], str(c.witness), n) for c, n in zip(sample.cells, counts)
    ]
    return {"classes": C.pi0_classes(sample), "n_cells": sum(counts), "cells": cells}


def pi0_1000_shot(search_s: list[float]):
    import cartoptics as C

    chain = C.build_chain(1000, "finite", seed=0)
    sig, lenses = chain.signature, list(chain.lenses)
    halves = [C.reify(C.compose_chain(lenses[:500])), C.reify(C.compose_chain(lenses[500:]))]
    family = [
        C.reify(C.compose_chain(lenses)),
        C.reify(C.compose_chain(lenses, "right")),
        C.compose_optic_chain([C.reify(l) for l in lenses]),
        C.compose_optic_chain(halves),
    ]

    def shot():
        search_s.append(0.0)
        return [pi0_output(C, timed_search(search_s, family, sig, 2, None), family)]

    return shot


def pi0_shot(search_s: list[float]):
    import cartoptics as C

    a = C.Sort("A", C.FiniteCarrier(2))
    A = C.Obj((a,))
    cases = []
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
        cases.append((sig, family, C.Interp.from_signature(sig)))

    def shot():
        search_s.append(0.0)
        return [
            pi0_output(C, timed_search(search_s, family, sig, 3, ip), family)
            for sig, family, ip in cases
        ]

    return shot


def measure(case: str) -> dict:
    """Run in the child interpreter: the median of REPEAT shots and the output digests."""
    search_s: list[float] = []  # seconds in `search_cells`, one entry per shot
    if case == "coherence":
        shot = coherence_shot()
    else:
        shot = {"pi0": pi0_shot, "pi0-1000": pi0_1000_shot}[case](search_s)
    start = time.perf_counter()
    result = shot()
    seconds = [time.perf_counter() - start]
    if case != "pi0-1000":
        seconds = timeit.repeat(shot, number=1, repeat=REPEAT)
    out = {"seconds": statistics.median(seconds), "output_sha256": digest(json.dumps(result, sort_keys=True))}
    if case.startswith("pi0"):
        out["classes_sha256"] = digest(json.dumps([r["classes"] for r in result]))
        out["search_s"] = statistics.median(search_s[-len(seconds) :])
    return out


def run_check_laws(src: Path) -> dict:
    """One `check-laws` command on src, timed from outside."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "cartoptics", *CHECK_LAWS]
    start = time.perf_counter()
    try:
        p = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"status": f"not run: did not finish within {TIMEOUT_S:g} s"}
    seconds = time.perf_counter() - start
    if p.returncode != 0:
        err = (p.stderr.strip().splitlines() or ["no output"])[-1]
        return {"status": f"not run: exited {p.returncode} with {err}"}
    return {"status": "ok", "seconds": seconds, "output_sha256": digest(p.stdout)}


def quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3


def run_all(sides: dict[str, Path]) -> dict:
    cases = {"check-laws": run_check_laws}
    for case in CASES[1:]:
        cases[case] = lambda src, case=case: run_child(__file__, src, [case], TIMEOUT_S)
    runs = interleave(sides, cases, ROUNDS)
    out: dict = {}
    for name, by_case in runs.items():
        out[name] = {}
        for case, rows in by_case.items():
            failed = [row for row in rows if row["status"] != "ok"]
            if failed:
                out[name][case] = failed[0]
                continue
            seconds = [row["seconds"] for row in rows]
            out[name][case] = {
                "status": "ok",
                "median_s": statistics.median(seconds),
                "quartiles_s": quartiles(seconds),
                **{k: v for k, v in rows[0].items() if k.endswith("_sha256")},
            }
            if "search_s" in rows[0]:
                out[name][case]["search_median_s"] = statistics.median(row["search_s"] for row in rows)
    every = [row for by_case in runs.values() for rows in by_case.values() for row in rows]

    def identical(key: str, cases) -> dict:
        return {
            case: len({row.get(key) for rows in runs.values() for row in rows[case]}) == 1
            for case in cases
        }

    out["outputs_identical"] = identical("output_sha256", CASES)
    out["classes_identical"] = identical("classes_sha256", ("pi0", "pi0-1000"))
    out["all_ok"] = all(row["status"] == "ok" for row in every)
    if len(runs) == 2:
        before, after = runs["before"], runs["after"]
        ratios = out["after_over_before"] = {}
        for case in CASES:
            pairs = list(zip(after[case], before[case]))
            if all(a["status"] == b["status"] == "ok" for a, b in pairs):
                ratios[case] = statistics.median(a["seconds"] / b["seconds"] for a, b in pairs)
                ratios[f"{case} wins"] = sum(a["seconds"] < b["seconds"] for a, b in pairs)
                if all("search_s" in row for pair in pairs for row in pair):
                    ratios[f"{case} search"] = statistics.median(
                        a["search_s"] / b["search_s"] for a, b in pairs
                    )
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--before", metavar="REV")
    ap.add_argument("--out")
    ap.add_argument("--one", nargs=1, metavar="CASE", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        print(json.dumps(measure(args.one[0])))
        return 0

    report: dict = {
        "what": (
            "check-laws: wall seconds of one command per round; coherence and pi0: median of "
            f"{REPEAT} single shots per round; each side: median and quartiles over rounds"
        ),
        "command": "cartoptics " + " ".join(CHECK_LAWS),
        "repeat": REPEAT,
        "rounds": ROUNDS,
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
    return 0 if report["all_ok"] and all(report["outputs_identical"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
