"""Write the expected stdout of `cartoptics` commands to `tests/golden/cli/`.

Run from the repository root after a change that is meant to alter what one
of these commands prints:

    PYTHONPATH=src python tests/golden/write_cli.py

Each case writes its input files to a directory of its own, runs its
commands in this process, as `tests/test_golden.py` runs them, and keeps
their stdout, concatenated, in one file:

- `run` on the README lens and optic, on inputs 0 and 1, with `--env id`
  and with `--env const:[2]`;
- `normalize` and `optimize` on the README expression, and `optimize` on 18
  repetitions of `copy[A] ; h` (`normalize` prints 7.3 MB there);
- `pi0` on the `demos/05` family, once for each of the four tables of f;
- `pi0` on four packagings of eight 3-stage windows of
  `build_chain(64, kind, seed=s)`, for both kinds and s = 1, 2, 3;
- the count columns of `bench --max-n 8`, finite and real, left and right;
  the wall-time columns are dropped.
"""

import contextlib
import functools
import io
import json
import random
import tempfile
from pathlib import Path

import cartoptics as C

GOLDEN = Path(__file__).resolve().parent / "cli"

# the signature, lens, optic and expression of the README
README_SIGNATURE = {
    "sorts": [{"name": "A", "carrier": {"finite": 2}}, {"name": "B", "carrier": {"finite": 3}}],
    "generators": [
        {"name": "f", "dom": ["A"], "cod": ["B"], "table": [[1], [2]]},
        {"name": "h", "dom": ["A", "B"], "cod": ["A"], "table": [[0], [1], [0], [1], [0], [1]]},
    ],
}
README_LENS = {"get": "f", "put": "h"}
README_OPTIC = {"residual": ["A"], "forward": "copy[A] ; id[A] * f", "backward": "h"}
README_EXPR = "graph(f) ; h"

# h is exclusive or, so `copy[A] ; h` repeated k times has k rows but 2^k - 1 occurrences
COPY_SIGNATURE = {
    "sorts": [{"name": "A", "carrier": {"finite": 2}}],
    "generators": [{"name": "h", "dom": ["A", "A"], "cod": ["A"], "table": [[0], [1], [1], [0]]}],
}
COPY_EXPR = " ; ".join(["copy[A] ; h"] * 18)

F_TABLES = (((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,)))
WINDOWS = 8


def _write(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def _homcat(optics: list) -> dict:
    return {
        "optics": [
            {"residual": [s.name for s in o.residual], "forward": str(o.forward), "backward": str(o.backward)}
            for o in optics
        ]
    }


def run_cases(work: Path) -> list[list[str]]:
    sig = _write(work / "sig.json", README_SIGNATURE)
    lens = _write(work / "lens.json", README_LENS)
    optic = _write(work / "optic.json", README_OPTIC)
    return [
        ["run", f"--{kind}", path, "--signature", sig, "--input", value, *env]
        for kind, path in (("lens", lens), ("optic", optic))
        for env in (("--env", "id"), ("--env", "const:[2]"))
        for value in ("[0]", "[1]")
    ]


def readme_expr_cases(work: Path) -> list[list[str]]:
    sig = _write(work / "sig.json", README_SIGNATURE)
    return [[command, "--signature", sig, "--expr", README_EXPR] for command in ("normalize", "optimize")]


def copy_chain_cases(work: Path) -> list[list[str]]:
    sig = _write(work / "sig.json", COPY_SIGNATURE)
    return [["optimize", "--signature", sig, "--expr", COPY_EXPR]]


def demo_family(table) -> tuple[C.Signature, list]:
    """The optics A -> A of `demos/05`, over an endo-generator f with the given table."""
    a = C.Sort("A", C.FiniteCarrier(2))
    A = C.Obj((a,))
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
    return sig, family


def demo_family_cases(work: Path, table) -> list[list[str]]:
    sig, family = demo_family(table)
    sig_path = _write(work / "sig.json", C.signature_to_json(sig))
    return [["pi0", "--signature", sig_path, "--homcat", _write(work / "family.json", _homcat(family))]]


def window_packagings(lenses) -> list:
    """Four ways to package three stages as an optic; all erase to one lens."""
    l1, l2, l3 = lenses
    reify, lc, oc = C.reify, C.compose_chain, C.compose_optic_chain
    return [
        reify(lc([l1, l2, l3])),
        oc([reify(lc([l1, l2])), reify(l3)]),
        oc([reify(l1), reify(lc([l2, l3]))]),
        oc([reify(l1), reify(l2), reify(l3)]),
    ]


def window_cases(work: Path, kind: str, seed: int) -> list[list[str]]:
    """pi0 on the packagings of eight seeded 3-stage windows of a 64-stage chain."""
    chain = C.build_chain(64, kind, seed=seed)
    sig = str(work / "sig.json")
    C.dump_signature(chain.signature, sig)
    rng = random.Random(seed)
    argvs = []
    for k in range(WINDOWS):
        i = rng.randrange(chain.n - 2)
        path = _write(work / f"window-{k}.json", _homcat(window_packagings(chain.lenses[i : i + 3])))
        argvs.append(["pi0", "--signature", sig, "--homcat", path])
    return argvs


def bench_cases(work: Path, kind: str, assoc: str) -> list[list[str]]:
    return [["bench", "--max-n", "8", "--interp", kind, "--assoc", assoc]]


def counts_only(csv: str) -> str:
    """A `bench` CSV without its wall-time columns."""
    rows = [line.split(",") for line in csv.splitlines()]
    keep = [j for j, name in enumerate(rows[0]) if not name.endswith("_wall_s")]
    return "".join(",".join(row[j] for j in keep) + "\n" for row in rows)


# case name -> the argv lists it runs, given a work directory for its files
CASES = {
    "run_readme": run_cases,
    "readme_expr": readme_expr_cases,
    "optimize_copy_chain_18": copy_chain_cases,
    **{
        f"pi0_demo05_f{''.join(str(row[0]) for row in t)}": functools.partial(demo_family_cases, table=t)
        for t in F_TABLES
    },
    **{
        f"pi0_windows_{kind}_{s}": functools.partial(window_cases, kind=kind, seed=s)
        for kind in ("finite", "real")
        for s in (1, 2, 3)
    },
    **{
        f"bench_{kind}_{assoc}": functools.partial(bench_cases, kind=kind, assoc=assoc)
        for kind in ("finite", "real")
        for assoc in ("left", "right")
    },
}


def case_stdout(name: str, work: Path) -> str:
    """The stdout of the case's commands, each of which must exit 0; `bench` keeps its counts only."""
    out = []
    for argv in CASES[name](work):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = C.main(argv)
        if rc != 0:
            raise AssertionError(f"cartoptics {argv[0]} exited {rc}")
        out.append(counts_only(buf.getvalue()) if argv[0] == "bench" else buf.getvalue())
    return "".join(out)


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.txt"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        with tempfile.TemporaryDirectory() as work:
            golden_path(name).write_text(case_stdout(name, Path(work)))
        print(golden_path(name).relative_to(Path(__file__).resolve().parents[2]))
