"""The benchmark's workloads: set-up, operations and reference checks.

Every workload runs the same four kinds of operation in a closed loop, one
operation in flight, on inputs drawn from the seed:

  compile  stage lenses -> composed lens, composed optic, shared round-trip DAG
  run      one round trip with the identity environment, three ways
           (lens_exec, optic_exec, evaluate_dag)
  verdict  one law-suite verdict
  search   one `cartoptics pi0` witness search, through the CLI

The workloads differ in what those inputs are, and so in which layers carry
the time (see README.md).  Each operation's output is checked against a
reference computed here, never by the code under test; a mismatch raises
`Mismatch`, and the caller counts the operation as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

REAL_RTOL = 1e-9
REAL_ATOL = 1e-12
CHECK_LAWS_ARGS = ("--samples", "4", "--triples", "2")
COHERENCE_LAWS = (
    "oplaxator_validity",
    "opunitor_validity",
    "lax_associativity",
    "lax_left_unity",
    "lax_right_unity",
)
POINTS = 16  # input points per chain, cycled through by the round trips
WINDOWS = 8  # 3-stage windows of the chain, cycled through by verdicts and searches
FAMILIES = 4  # seeded tables of the demos/05 optic family, cycled through by searches


class Mismatch(AssertionError):
    """An output of the program disagrees with the benchmark's reference."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int  # chain length
    kind: str  # "finite" or "real"
    dim: int = 4
    carrier_size: int = 2
    # "chain": verdicts are coherence on 3-stage chain windows, searches run over
    # their packagings; "random": verdicts are check-laws on random signatures,
    # searches run over the demos/05 optic family
    checks: str = "chain"
    search_depth: int = 2
    runs_per_round: int = 8
    verdicts_per_round: int = 4
    searches_per_round: int = 1
    trace_rounds: int = 2  # rounds that fix the exact counts of a traced run

    def recipe(self) -> list[str]:
        """The operations of one round: a compile, then the other kinds spread
        evenly through the round, so that each kind meets the same machine."""
        kinds = (
            (("run.lens", "run.optic", "run.shared"), self.runs_per_round),
            (("verdict",), self.verdicts_per_round),
            (("search",), self.searches_per_round),
        )
        keyed = [
            ((j + 0.5) / count, k, op)
            for k, (ops, count) in enumerate(kinds)
            for j in range(count)
            for op in ops
        ]
        return ["compile"] + [op for _, _, op in sorted(keyed, key=lambda x: x[:2])]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chain-finite",
            "deep terms over 2-element carriers: composing, normalizing and sharing "
            "a 64-stage round trip dominates, generators are table lookups",
            n=64,
            kind="finite",
            runs_per_round=8,
            verdicts_per_round=4,
            trace_rounds=2,
        ),
        Workload(
            "chain-real",
            "16 affine-tanh stages of width 256: numpy matvecs in the generators "
            "dominate and compiling is light",
            n=16,
            kind="real",
            dim=256,
            runs_per_round=16,
            verdicts_per_round=2,
            trace_rounds=6,
        ),
        Workload(
            "verify",
            "many small terms checked on every input: law suites on random finite "
            "signatures and witness search over a controlled optic family",
            n=8,
            kind="finite",
            carrier_size=3,
            checks="random",
            search_depth=3,
            runs_per_round=60,
            verdicts_per_round=40,
            searches_per_round=10,
            trace_rounds=2,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload at a size that runs in about a second (for tests)."""
    return replace(
        w,
        n=min(w.n, 5),
        dim=min(w.dim, 8),
        search_depth=min(w.search_depth, 2),
        runs_per_round=1,
        verdicts_per_round=1,
        trace_rounds=1,
    )


# --- references --------------------------------------------------------------


def apply_generator(gen, args: tuple) -> tuple:
    """A generator's declared semantics, read directly off its table or callable."""
    if gen.table is not None:
        row = 0
        for v, s in zip(args, gen.dom):
            row = row * s.carrier.size + v
        return tuple(gen.table[row])
    return tuple(gen.fn(args))


def reference_round_trip(chain, a: tuple) -> tuple[tuple, tuple]:
    """(b, a') of the chain with the identity environment, stage by stage."""
    sig = chain.signature
    xs = [a[0]]
    for name in chain.get_names:
        (x,) = apply_generator(sig.generator(name), (xs[-1],))
        xs.append(x)
    b = xs[-1]
    y = b
    for i in reversed(range(chain.n)):
        (y,) = apply_generator(sig.generator(chain.put_names[i]), (xs[i], y))
    return (b,), (y,)


def same_values(got: tuple, want: tuple, kind: str) -> bool:
    if len(got) != len(want):
        return False
    if kind == "finite":
        return all(int(g) == int(w) for g, w in zip(got, want))
    return all(
        np.allclose(g, w, rtol=REAL_RTOL, atol=REAL_ATOL) for g, w in zip(got, want)
    )


def expect(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


# --- state ---------------------------------------------------------------------


@dataclass
class State:
    w: Workload
    M: SimpleNamespace  # the cartoptics modules, looked up at call time
    chain: object
    interp: object
    points: list[tuple]
    window_starts: list[int]
    search_files: list[tuple[str, str, list[frozenset]]] = field(default_factory=list)
    check_law_seeds: list[int] = field(default_factory=list)
    refs: list[tuple[tuple, tuple]] = field(default_factory=list)
    compiled: tuple | None = None
    laws_checked: int = 0
    counts: dict[str, int] = field(default_factory=dict)


def prepare(M: SimpleNamespace, w: Workload, seed: int, workdir: Path) -> State:
    """The timed set-up: chain generation, FD validation, files for pi0."""
    rng = random.Random(seed)
    chain = M.cost.build_chain(
        w.n, w.kind, carrier_size=w.carrier_size, dim=w.dim, seed=seed
    )
    interp = M.interp.Interp.from_signature(chain.signature)
    if w.kind == "real":
        M.cost.validate_chain_vjps(chain, interp, seed)
        nrng = np.random.default_rng(seed)
        points = [(nrng.standard_normal(w.dim),) for _ in range(POINTS)]
    else:
        points = [(rng.randrange(w.carrier_size),) for _ in range(POINTS)]
    starts = [rng.randrange(w.n - 2) for _ in range(WINDOWS)]
    st = State(w, M, chain, interp, points, starts)

    if w.checks == "chain":
        sig_path = str(workdir / "chain-signature.json")
        M.signature.dump_signature(chain.signature, sig_path)
        for k, i in enumerate(starts):
            path = workdir / f"window-{k}.json"
            optics = window_packagings(M, chain.lenses[i : i + 3])
            write_homcat(path, optics, w.search_depth)
            # every packaging of one window erases to the same lens
            st.search_files.append((sig_path, str(path), [frozenset(range(len(optics)))]))
    else:
        st.check_law_seeds = [rng.randrange(2**31) for _ in range(4096)]
        for k in range(FAMILIES):
            sig_path = workdir / f"family-{k}-signature.json"
            path = workdir / f"family-{k}.json"
            sig, optics, keys = optic_family(M, rng)
            M.signature.dump_signature(sig, str(sig_path))
            write_homcat(path, optics, w.search_depth)
            st.search_files.append((str(sig_path), str(path), fibers(keys)))
    return st


def attach_references(st: State) -> None:
    """Reference outputs, computed outside the timed set-up."""
    st.refs = [reference_round_trip(st.chain, p) for p in st.points]


def window_packagings(M, lenses) -> list:
    """Four ways to package three stages as an optic; all erase to one lens."""
    reify, lc, oc = M.bridge.reify, M.lens.compose_chain, M.optic.compose_optic_chain
    l1, l2, l3 = lenses
    return [
        reify(lc([l1, l2, l3])),
        oc([reify(lc([l1, l2])), reify(l3)]),
        oc([reify(l1), reify(lc([l2, l3]))]),
        oc([reify(l1), reify(l2), reify(l3)]),
    ]


def optic_family(M, rng: random.Random):
    """The optics A -> A of demos/05, over an endo-generator f with a seeded table.

    Returns the signature, the optics and each optic's erased lens written as
    (get word, what put reads, put word), words listing generator names in the
    order they apply.  That key is worked out from how each optic is built,
    without the normalizer.
    """
    S = M.signature
    T = M.term
    a = S.Sort("A", S.FiniteCarrier(2))
    A = S.Obj((a,))
    f = S.Generator("f", A, A, table=tuple((rng.randrange(2),) for _ in range(2)))
    sig = S.Signature((a,), (f,))
    unary = [((), T.Id(A)), (("f",), T.Gen(f))]
    optics, keys = [], []
    for fw_word, fw in unary:
        for bw_word, bw in unary:
            optics.append(M.optic.Optic(S.UNIT, fw, bw))
            keys.append((fw_word, "response", bw_word))
    for u_word, u in unary:
        for v_word, v in unary:
            for reads, p in (("input", T.Proj1(A, A)), ("response", T.Proj2(A, A))):
                for w_word, w in unary:
                    optics.append(M.optic.Optic(A, T.Copy(A) >> (u @ v), p >> w))
                    put_word = u_word + w_word if reads == "input" else w_word
                    keys.append((v_word, reads, put_word))
    return sig, optics, keys


def fibers(keys: list) -> list[frozenset]:
    groups: dict = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, set()).add(i)
    return [frozenset(g) for g in groups.values()]


def write_homcat(path: Path, optics: list, depth: int) -> None:
    entries = [
        {
            "residual": [s.name for s in o.residual],
            "forward": str(o.forward),
            "backward": str(o.backward),
        }
        for o in optics
    ]
    path.write_text(json.dumps({"optics": entries, "search_depth": depth}))


# --- operations ------------------------------------------------------------------
#
# Each operation takes the state and an input index and returns
# (sample name, seconds).  Only the call into the program is timed.


def call_cli(M, argv: list[str], clock) -> tuple[float, str]:
    """Run `cartoptics <argv>` in-process; return its time and standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        rc = M.cli.main(argv)
        dt = clock() - t0
    if rc != 0:
        raise Mismatch(f"cartoptics {argv[0]} exited {rc}: {err.getvalue().strip()}")
    return dt, out.getvalue()


def op_compile(st: State, index: int, clock) -> tuple[str, float]:
    M, chain = st.M, st.chain
    t0 = clock()
    lens = M.lens.compose_chain(list(chain.lenses))
    optic = M.optic.compose_optic_chain([M.bridge.reify(l) for l in chain.lenses])
    dag = M.dag.share(M.optic.round_trip_term(M.bridge.reify(lens)))
    dt = clock() - t0
    n = chain.n
    expect("shared DAG get nodes", dag.gen_node_count(chain.get_names), n)
    expect("shared DAG put nodes", dag.gen_node_count(chain.put_names), n)
    expect("shared DAG nodes", len(dag.nodes), 2 * n)
    st.compiled = (lens, optic, dag)
    return "compile_s", dt


def _run(st: State, index: int, clock, strategy: str) -> tuple[str, float]:
    M, chain, n = st.M, st.chain, st.chain.n
    lens, optic, dag = st.compiled
    a = st.points[index % len(st.points)]
    want_b, want_a = st.refs[index % len(st.points)]
    if strategy == "lens":
        t0 = clock()
        b, a_prime, rep = M.lens.lens_exec(lens, a, st.interp)
        dt = clock() - t0
        expect("lens get evaluations", rep.total_evals(chain.get_names), n * (n + 1) // 2)
        expect("lens copies", rep.copies, n)
        expect("lens residual slots", rep.peak_residual_slots, 1)
        st.counts["lens.get_evals"] = rep.total_evals(chain.get_names)
        st.counts["lens.copies"] = rep.copies
        st.counts["lens.residual_slots"] = rep.peak_residual_slots
    elif strategy == "optic":
        t0 = clock()
        b, a_prime, rep = M.optic.optic_exec(optic, a, st.interp)
        dt = clock() - t0
        slot_bytes = 1 if st.w.kind == "finite" else 8 * st.w.dim
        expect("optic get evaluations", rep.total_evals(chain.get_names), n)
        expect("optic residual slots", rep.peak_residual_slots, n)
        expect("optic residual bytes", rep.peak_residual_bytes, n * slot_bytes)
        st.counts["optic.get_evals"] = rep.total_evals(chain.get_names)
        st.counts["optic.residual_slots"] = rep.peak_residual_slots
        st.counts["optic.residual_bytes"] = rep.peak_residual_bytes
    else:
        rep = M.interp.CostReport()
        t0 = clock()
        out = M.dag.evaluate_dag(dag, a, st.interp, rep)
        dt = clock() - t0
        b, a_prime = out[:1], out[1:]
        expect("shared get evaluations", rep.total_evals(chain.get_names), n)
    if not (same_values(b, want_b, st.w.kind) and same_values(a_prime, want_a, st.w.kind)):
        raise Mismatch(f"{strategy} round trip at point {index % len(st.points)} disagrees with the reference")
    return f"run_s.{strategy}", dt


def op_verdict(st: State, index: int, clock) -> tuple[str, float]:
    M = st.M
    if st.w.checks == "random":
        seed = st.check_law_seeds[index % len(st.check_law_seeds)]
        argv = ["check-laws", "--random-signatures", "1", "--seed", str(seed), *CHECK_LAWS_ARGS]
        dt, out = call_cli(M, argv, clock)
        lines = [json.loads(line) for line in out.splitlines() if line.strip()]
        expect("check-laws lines", len(lines), 1)
        laws = 0
        for line in lines:
            if line.get("passed") is not True:
                raise Mismatch(f"check-laws seed {seed}: passed is {line.get('passed')!r}")
            for part in ("adjunction", "coherence"):
                laws += sum(law["checked"] for law in line[part]["laws"].values())
    else:
        i = st.window_starts[index % len(st.window_starts)]
        l1, l2, l3 = st.chain.lenses[i : i + 3]
        t0 = clock()
        report = M.bridge.check_oplax_coherence(l1, l2, l3, st.interp)
        dt = clock() - t0
        if not report.passed:
            raise Mismatch(f"oplax coherence fails on stages {i + 1}..{i + 3}")
        laws = 0
        for name in COHERENCE_LAWS:
            if report.law(name).checked < 1:
                raise Mismatch(f"coherence law {name} was not checked")
            laws += report.law(name).checked
    st.laws_checked += laws
    return "verdict_s", dt


def op_search(st: State, index: int, clock) -> tuple[str, float]:
    sig_path, homcat, want = st.search_files[index % len(st.search_files)]
    argv = ["pi0", "--signature", sig_path, "--homcat", homcat]
    dt, out = call_cli(st.M, argv, clock)
    got = json.loads(out)["classes"]
    if {frozenset(c) for c in got} != set(want):
        raise Mismatch(f"pi0 on {Path(homcat).name}: classes {got} are not the fibers of erasure")
    return "search_s", dt


OPS = {
    "compile": op_compile,
    "run.lens": lambda st, i, c: _run(st, i, c, "lens"),
    "run.optic": lambda st, i, c: _run(st, i, c, "optic"),
    "run.shared": lambda st, i, c: _run(st, i, c, "shared"),
    "verdict": op_verdict,
    "search": op_search,
}


def structure_counts(st: State) -> dict[str, int]:
    """Exact sizes of the compiled chain (computed untimed, untraced)."""
    M = st.M
    lens, optic, dag = st.compiled
    occ = M.normal.gen_occurrences(
        M.normal.normalize(M.optic.round_trip_term(M.bridge.reify(lens)))
    )
    return {
        "normal.gen_occurrences": sum(occ.values()),
        "dag.nodes": len(dag.nodes),
        "term.lens_put_nodes": term_nodes(M, lens.put),
        "term.optic_backward_nodes": term_nodes(M, optic.backward),
    }


def term_nodes(M, t) -> int:
    """Nodes of a term tree, counting a shared subterm at every occurrence."""
    total, todo = 0, [t]
    while todo:
        u = todo.pop()
        total += 1
        if isinstance(u, (M.term.Seq, M.term.Ten)):
            todo.append(u.left)
            todo.append(u.right)
    return total
