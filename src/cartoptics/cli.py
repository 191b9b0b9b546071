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
               their connected components

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
from .expr import ExprError, parse_term
from .interp import EnumerationCapError, Interp, UnsupportedInterpretation, check_identity_env, check_values
from .lens import Lens, lens_exec
from .normal import CanonicalForm, normalize, read_back
from .optic import Optic, optic_exec
from .sampling import random_signature
from .signature import SIGNATURE_FORMAT_VERSION, Obj, SignatureError, load_signature, read_json
from .term import TermTypeError
from .twocell import TwoCellError, check_boundaries, mk_two_cell, pi0_classes, search_cells

VERSION = "0.1.0"


def _numpy_json(x):
    """`json.dumps` default: numpy arrays and scalars as Python lists and numbers."""
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, default=_numpy_json)


def _at(where: str, make, *args):
    """make(*args), with an input error in it prefixed by where (a file and field, or a flag)."""
    try:
        return make(*args)
    except (TermTypeError, ValueError) as e:  # the package's input errors
        raise ValueError(f"{where}: {e}") from None


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
    get, put = _fields(path, read_json(path), "", get=str, put=str)
    get, put = _at(f"{path}: get", parse_term, get, sig), _at(f"{path}: put", parse_term, put, sig)
    return _at(path, Lens, get, put)


def _load_optic(path: str, sig, data=None, where: str = "") -> Optic:
    """An optic file, or the optic object at `where` in the JSON data of `path`."""
    data = read_json(path) if data is None else data
    res, fw, bw = _fields(path, data, where, residual=list, forward=str, backward=str)
    if not all(isinstance(n, str) for n in res):
        raise ValueError(f"{path}: {where}residual: expected a list of sort names")
    at = f"{path}: {where}"
    residual = Obj(_at(f"{at}residual[{j}]", sig.sort, n) for j, n in enumerate(res))
    fw, bw = _at(f"{at}forward", parse_term, fw, sig), _at(f"{at}backward", parse_term, bw, sig)
    return _at(f"{path}: {where[:-1]}" if where else path, Optic, residual, fw, bw)


def _parse_values(src: str) -> tuple:
    """One value per wire; a real vector is a list of finite numbers, not booleans."""
    data = json.loads(src)
    if not isinstance(data, list):
        raise ValueError("input must be a JSON list, one entry per wire")
    for i, v in enumerate(data):
        for j, x in enumerate(v if isinstance(v, list) else ()):
            if isinstance(x, bool) or not isinstance(x, (int, float)) or not abs(x) <= sys.float_info.max:
                raise ValueError(f"[{i}][{j}]: expected a finite number, got {json.dumps(x)}")
    return tuple(np.asarray(v, dtype=float) if isinstance(v, list) else v for v in data)


def _form_json(cf: CanonicalForm) -> dict:
    return {**cf.to_json(), "dom": [s.name for s in cf.dom], "cod": [s.name for s in cf.cod]}


def _table_interp(sig) -> Interp | None:
    if all(g.table is not None for g in sig.generators):
        return Interp.from_signature(sig)
    return None


def _at_least_one(args, *flags: str) -> None:
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) < 1:
            raise ValueError(f"{flag}: expected an int of at least 1")


def cmd_check_laws(args) -> int:
    _at_least_one(args, "--random-signatures", "--samples", "--triples")
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
        adj = check_adjunction(sig, interp, rng, n_samples=args.samples)
        coh = coherence_suite(sig, interp, rng, n_pairs=args.samples, n_triples=args.triples)
        passed = adj.passed and coh.passed
        all_passed = all_passed and passed
        print(
            _json_line(
                {
                    "signature": label,
                    "passed": passed,
                    "adjunction": adj.to_json(),
                    "coherence": coh.to_json(),
                }
            )
        )
    return 0 if all_passed else 1


def cmd_bench(args) -> int:
    _at_least_one(args, "--max-n", "--dim", "--carrier-size")
    if args.seed < 0:
        raise ValueError("--seed: expected an int of at least 0")
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
    values = _at("--input", _parse_values, args.input)
    resp = None
    if args.env != "id":
        if not args.env.startswith("const:"):
            raise ValueError(f"--env: unknown env {args.env!r}; use 'id' or 'const:<json>'")
        resp = _at("--env", _parse_values, args.env[len("const:") :])
    if args.lens:
        packaging, execute = _load_lens(args.lens, sig), lens_exec
    else:
        packaging, execute = _load_optic(args.optic, sig), optic_exec
    # every entry is checked against its carrier before any pass runs
    check_values(packaging.dom_pair[0], values, "--input")
    if resp is None:
        _at("--env", check_identity_env, packaging.cod_pair)
    else:
        check_values(packaging.cod_pair[1], resp, "--env")
    b, a_prime, report = execute(packaging, values, interp, None if resp is None else lambda _b: resp)
    print(_json_line({"output": b, "updated": a_prime, "cost": report.to_json()}))
    return 0


def cmd_normalize(args) -> int:
    sig = load_signature(args.signature)
    cf = normalize(_at("--expr", parse_term, args.expr, sig))
    print(_json_line({**_form_json(cf), "read_back": str(read_back(cf))}))
    return 0


def cmd_optimize(args) -> int:
    sig = load_signature(args.signature)
    dag = normalize(_at("--expr", parse_term, args.expr, sig))
    print(_json_line({**_form_json(dag), "node_count": len(dag.nodes)}))
    return 0


def cmd_check_cell(args) -> int:
    sig = load_signature(args.signature)
    src = _load_optic(args.src, sig)
    tgt = _load_optic(args.tgt, sig)
    witness = _at("--witness", parse_term, args.witness, sig)
    _at("--tgt", check_boundaries, src, tgt)
    _at("--witness", check_boundaries, src, tgt, witness)
    interp = _table_interp(sig)
    try:
        mk_two_cell(src, tgt, witness, interp)
    except TwoCellError as e:
        print(
            _json_line(
                {
                    "valid": False,
                    "side": e.side,
                    "message": str(e),
                    "counterexample": e.counterexample,
                }
            )
        )
        return 1
    print(_json_line({"valid": True, "witness": str(witness)}))
    return 0


def cmd_pi0(args) -> int:
    sig = load_signature(args.signature)
    data = read_json(args.homcat)
    (entries,) = _fields(args.homcat, data, "", optics=list)
    optics = [_load_optic(args.homcat, sig, e, f"optics[{i}].") for i, e in enumerate(entries)]
    interp = _table_interp(sig)
    sample = search_cells(optics, interp)
    print(
        _json_line(
            {
                "classes": pi0_classes(sample),
                "edges": sample.edges,
                "n_cells": sum(n for _, _, n in sample.edges),
                "n_optics": len(optics),
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
