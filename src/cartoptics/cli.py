"""Command line front end.

Subcommands:

  check-laws   run the adjunction and coherence law suites, one JSON line
               per signature checked
  bench        write the space-time tradeoff table as CSV
  run          execute a lens or optic file on one input tuple
  normalize    print the canonical form of an expression
  optimize     print the hash-consed dag of an expression
  check-cell   validate a structure map between two optic files
  pi0          the cells between a family of optics, decided exactly, and
               their connected components; `search_depth` is accepted for
               old files and bounds nothing

Exit codes: 0 success, 1 a check failed, 2 usage or input error, 3 internal
error (a fault in this package, not in the input).  All output except
wall-clock columns is deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

import numpy as np

from .bridge import check_adjunction, coherence_suite
from .cost import rows_to_csv, run_tradeoff
from .dag import share
from .expr import ExprError, parse_term
from .interp import EnumerationCapError, Interp, UnsupportedInterpretation
from .lens import Lens, lens_exec
from .normal import CanonicalForm, normalize, read_back
from .optic import Optic, optic_exec
from .sampling import random_signature
from .signature import SIGNATURE_FORMAT_VERSION, Obj, SignatureError, load_signature
from .term import TermTypeError
from .twocell import TwoCellError, mk_two_cell, pi0_classes, search_cells

VERSION = "0.1.0"


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True)


def _json_safe(x):
    if isinstance(x, np.ndarray):
        return [float(v) for v in x]
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (np.integer, np.floating)):
        return x.item()
    return x


def _load_json(path: str):
    with open(path) as f:
        return json.load(f)


def _fields(path: str, data, where: str, **kinds: type) -> list:
    """Values of the keys in a JSON object; `where` ("" or e.g. "optics[0].") prefixes errors."""
    if not isinstance(data, dict):
        raise ValueError(f"{path}: {where.rstrip('.') or 'top level'}: expected an object")
    for key, kind in kinds.items():
        if not isinstance(data.get(key), kind):
            problem = f"expected a {kind.__name__}" if key in data else "missing key"
            raise ValueError(f"{path}: {where}{key}: {problem}")
    return [data[k] for k in kinds]


def _load_lens(path: str, sig) -> Lens:
    get, put = _fields(path, _load_json(path), "", get=str, put=str)
    return Lens(parse_term(get, sig), parse_term(put, sig))


def _load_optic(path: str, sig, data=None, where: str = "") -> Optic:
    """An optic file, or the optic object at `where` in the JSON data of `path`."""
    data = _load_json(path) if data is None else data
    res, fw, bw = _fields(path, data, where, residual=list, forward=str, backward=str)
    if not all(isinstance(n, str) for n in res):
        raise ValueError(f"{path}: {where}residual: expected a list of sort names")
    return Optic(Obj(tuple(map(sig.sort, res))), parse_term(fw, sig), parse_term(bw, sig))


def _parse_values(src: str) -> tuple:
    data = json.loads(src)
    if not isinstance(data, list):
        raise ValueError("input must be a JSON list, one entry per wire")
    return tuple(
        np.asarray(v, dtype=float) if isinstance(v, list) else v for v in data
    )


def _form_json(cf: CanonicalForm) -> dict:
    return {**cf.to_json(), "dom": [s.name for s in cf.dom], "cod": [s.name for s in cf.cod]}


def _table_interp(sig) -> Interp | None:
    if all(g.table is not None for g in sig.generators):
        return Interp.from_signature(sig)
    return None


def cmd_check_laws(args) -> int:
    for flag in ("--random-signatures", "--samples", "--triples"):
        if getattr(args, flag[2:].replace("-", "_")) < 1:
            raise ValueError(f"{flag}: expected an int of at least 1")
    rng = random.Random(args.seed)
    jobs = []
    if args.signature:
        sig = load_signature(args.signature)
        jobs.append((args.signature, sig))
    else:
        for i in range(args.random_signatures):
            jobs.append((f"random:{i}", random_signature(rng)))
    all_passed = True
    for label, sig in jobs:
        interp = _table_interp(sig)
        if interp is None:
            raise SignatureError(
                f"{label}: law checking needs table semantics for every generator"
            )
        adj = check_adjunction(sig, interp, rng, n_lenses=args.samples, n_optics=args.samples)
        coh = coherence_suite(sig, interp, rng, n_pairs=args.samples, n_triples=args.triples)
        passed = adj.passed and coh.passed
        all_passed = all_passed and passed
        print(
            _json_line(
                _json_safe(
                    {
                        "signature": label,
                        "passed": passed,
                        "adjunction": adj.to_json(),
                        "coherence": coh.to_json(),
                    }
                )
            )
        )
    return 0 if all_passed else 1


def cmd_bench(args) -> int:
    rows = run_tradeoff(
        args.max_n,
        kind=args.interp,
        seed=args.seed,
        assoc=args.assoc,
        carrier_size=args.carrier_size,
        dim=args.dim,
    )
    csv = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w") as f:
            f.write(csv)
    else:
        sys.stdout.write(csv)
    return 0


def cmd_run(args) -> int:
    sig = load_signature(args.signature)
    interp = Interp.from_signature(sig)
    values = _parse_values(args.input)
    env = None
    if args.env != "id":
        if not args.env.startswith("const:"):
            raise ValueError(f"unknown env {args.env!r}; use 'id' or 'const:<json>'")
        resp = _parse_values(args.env[len("const:") :])
        env = lambda _b: resp  # noqa: E731
    if args.lens:
        l = _load_lens(args.lens, sig)
        b, a_prime, report = lens_exec(l, values, interp, env)
    else:
        o = _load_optic(args.optic, sig)
        b, a_prime, report = optic_exec(o, values, interp, env)
    print(
        _json_line(
            _json_safe({"output": b, "updated": a_prime, "cost": report.to_json()})
        )
    )
    return 0


def cmd_normalize(args) -> int:
    sig = load_signature(args.signature)
    cf = normalize(parse_term(args.expr, sig))
    print(_json_line({**_form_json(cf), "read_back": str(read_back(cf))}))
    return 0


def cmd_optimize(args) -> int:
    sig = load_signature(args.signature)
    dag = share(parse_term(args.expr, sig))
    print(_json_line({**_form_json(dag), "node_count": dag.gen_node_count()}))
    return 0


def cmd_check_cell(args) -> int:
    sig = load_signature(args.signature)
    src = _load_optic(args.src, sig)
    tgt = _load_optic(args.tgt, sig)
    witness = parse_term(args.witness, sig)
    interp = _table_interp(sig)
    try:
        mk_two_cell(src, tgt, witness, interp)
    except TwoCellError as e:
        print(
            _json_line(
                _json_safe(
                    {
                        "valid": False,
                        "side": e.side,
                        "message": str(e),
                        "counterexample": e.counterexample,
                    }
                )
            )
        )
        return 1
    print(_json_line({"valid": True, "witness": str(witness)}))
    return 0


def cmd_pi0(args) -> int:
    sig = load_signature(args.signature)
    data = _load_json(args.homcat)
    (entries,) = _fields(args.homcat, data, "", optics=list)
    optics = [_load_optic(args.homcat, sig, e, f"optics[{i}].") for i, e in enumerate(entries)]
    from_file = args.search_depth is None
    depth = data.get("search_depth", 2) if from_file else args.search_depth
    if isinstance(depth, bool) or not isinstance(depth, int) or depth < 0:
        where = f"{args.homcat}: search_depth" if from_file else "--search-depth"
        raise ValueError(f"{where}: expected a non-negative int")
    interp = _table_interp(sig)
    sample = search_cells(optics, interp)
    index = {id(o): i for i, o in enumerate(optics)}
    edges = [[index[id(c.src)], index[id(c.tgt)], n] for c, n in zip(sample.cells, sample.counts)]
    print(
        _json_line(
            {
                "classes": pi0_classes(sample),
                "edges": edges,
                "n_cells": sum(sample.counts),
                "n_optics": len(optics),
                "search_depth": depth,
            }
        )
    )
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse gets a fresh namespace."""
    p = argparse.ArgumentParser(prog="cartoptics")
    p.add_argument(
        "--version",
        action="version",
        version=f"cartoptics {VERSION} (signature format {SIGNATURE_FORMAT_VERSION})",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("check-laws", help="run adjunction and coherence law suites")
    g = q.add_mutually_exclusive_group()
    g.add_argument("--signature", help="signature JSON file to check")
    g.add_argument("--random-signatures", type=int, default=3, metavar="K")
    q.add_argument("--samples", type=int, default=100)
    q.add_argument("--triples", type=int, default=50)
    q.add_argument("--seed", type=int, default=0)

    q = sub.add_parser("bench", help="space-time tradeoff CSV")
    q.add_argument("--max-n", type=int, default=8)
    q.add_argument("--interp", choices=("finite", "real"), default="finite")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--assoc", choices=("left", "right"), default="left")
    q.add_argument("--carrier-size", type=int, default=2)
    q.add_argument("--dim", type=int, default=4)
    q.add_argument("--out", help="write CSV here instead of stdout")

    q = sub.add_parser("run", help="execute a lens or optic on one input")
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--lens", help="lens JSON file")
    g.add_argument("--optic", help="optic JSON file")
    q.add_argument("--signature", required=True)
    q.add_argument("--input", required=True, help="JSON list, one entry per wire")
    q.add_argument("--env", default="id", help="'id' or 'const:<json list>'")

    q = sub.add_parser("normalize", help="canonical form of an expression")
    q.add_argument("--signature", required=True)
    q.add_argument("--expr", required=True)

    q = sub.add_parser("optimize", help="hash-consed dag of an expression")
    q.add_argument("--signature", required=True)
    q.add_argument("--expr", required=True)

    q = sub.add_parser("check-cell", help="validate a structure map between optics")
    q.add_argument("--signature", required=True)
    q.add_argument("--src", required=True, help="source optic JSON file")
    q.add_argument("--tgt", required=True, help="target optic JSON file")
    q.add_argument("--witness", required=True, help="expression between the residuals")

    q = sub.add_parser(
        "pi0",
        help="exact cells between optics and their connected components",
        description="Decide every cell between the optics of a homcat file by matching "
        "inside the fibres of erasure. Prints the connected components (classes), one "
        "[source, target, count] edge per connected ordered pair, and n_cells, the exact "
        "number of cells.",
    )
    q.add_argument("--signature", required=True)
    q.add_argument("--homcat", required=True, help="JSON file listing optics")
    q.add_argument(
        "--search-depth",
        type=int,
        default=None,
        help="accepted and echoed for old files; it bounds nothing (the search is exact)",
    )
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        code = e.code
        return int(code) if code is not None else 0
    try:
        # looked up at each call, so the cached parser holds no command functions
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (SignatureError, ExprError, TermTypeError, ValueError, OSError,
            EnumerationCapError, UnsupportedInterpretation) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())
