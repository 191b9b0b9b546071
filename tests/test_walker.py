"""The one term walker (`term.run`) behind `evaluate`, `normalize` and `normal_eq`.

Since evaluating and normalizing share the walker, the cross-check of
`normal_eq` against exhaustive evaluation no longer catches a walker bug.  The
recursive walkers the package used before are kept here as the oracle: the
differential tests compare outputs, generator counts, copies and canonical
forms on random terms.  The exhaustive check, which runs the walker once over
columns of inputs, is compared with a per-point loop over the oracle.  A
recursive evaluator of canonical forms, from the outputs down and each row
once, is the oracle for `evaluate_dag`.  The recursive printer is kept the
same way as the oracle for `term_to_expr`, and the table walk and the
read-back that `UniqueTable.pull` and `run` of a form replaced are the
oracles for `UniqueTable.form` and `read_back`.  The deep-chain tests run terms
nested several times deeper than the interpreter's default recursion limit.
Pushes into a unique table remember the outputs of shared subterms; they are
checked against the same term reparsed from its text, which shares nothing.
"""

import random
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cartoptics import (
    UNIT,
    CanonicalForm,
    CarrierMismatch,
    Copy,
    CostReport,
    Delete,
    FiniteCarrier,
    Gen,
    Generator,
    Id,
    Interp,
    Obj,
    Proj1,
    Proj2,
    Seq,
    Signature,
    Sort,
    Swap,
    Ten,
    build_chain,
    chain_input,
    compose_chain,
    compose_optic_chain,
    enumerate_inputs,
    evaluate,
    evaluate_dag,
    extensional_counterexample,
    gen_occurrences,
    lens_compose,
    lens_exec,
    normal_eq,
    normalize,
    optic_exec,
    pairing,
    parse_term,
    read_back,
    reify,
    round_trip_term,
    select_wire,
    share,
)
from cartoptics.normal import UniqueTable
from cartoptics.sampling import (
    random_composable_lenses,
    random_lens,
    random_morphism,
    random_obj,
    random_signature,
    random_table,
)
from cartoptics.term import run
from sampling_helpers import padded_variants, stage_by_stage

# --- oracle: the recursive walkers ---------------------------------------------


def oracle_eval(t, xs, interp, report):
    if isinstance(t, Gen):
        report.generator_counts[t.gen.name] += 1
        return interp.apply(t.gen, xs)
    if isinstance(t, Id):
        return xs
    if isinstance(t, Seq):
        return oracle_eval(t.right, oracle_eval(t.left, xs, interp, report), interp, report)
    if isinstance(t, Ten):
        k = len(t.left.dom)
        return oracle_eval(t.left, xs[:k], interp, report) + oracle_eval(
            t.right, xs[k:], interp, report
        )
    if isinstance(t, Copy):
        report.copies += len(t.obj)
        return xs + xs
    if isinstance(t, Delete):
        return ()
    if isinstance(t, Swap):
        k = len(t.first)
        return xs[k:] + xs[:k]
    if isinstance(t, Proj1):
        return xs[: len(t.first)]
    if isinstance(t, Proj2):
        return xs[len(t.first) :]
    raise TypeError(f"not a term: {t!r}")


def oracle_push(t, xs, table):
    if isinstance(t, Gen):
        return table.apply(t.gen, xs)
    if isinstance(t, Id):
        return xs
    if isinstance(t, Seq):
        return oracle_push(t.right, oracle_push(t.left, xs, table), table)
    if isinstance(t, Ten):
        k = len(t.left.dom)
        return oracle_push(t.left, xs[:k], table) + oracle_push(t.right, xs[k:], table)
    if isinstance(t, Copy):
        return xs + xs
    if isinstance(t, Delete):
        return ()
    if isinstance(t, Swap):
        k = len(t.first)
        return xs[k:] + xs[:k]
    if isinstance(t, Proj1):
        return xs[: len(t.first)]
    if isinstance(t, Proj2):
        return xs[len(t.first) :]
    raise TypeError(f"not a term: {t!r}")


def oracle_print(t):
    if isinstance(t, Gen):
        return t.gen.name
    if isinstance(t, Seq):
        return f"({oracle_print(t.left)} ; {oracle_print(t.right)})"
    if isinstance(t, Ten):
        return f"({oracle_print(t.left)} * {oracle_print(t.right)})"
    name = {Id: "id", Copy: "copy", Delete: "del", Swap: "swap", Proj1: "pi1", Proj2: "pi2"}[type(t)]
    if isinstance(t, (Id, Copy, Delete)):
        return f"{name}[{' '.join(s.name for s in t.obj)}]"
    return f"{name}[{' '.join(s.name for s in t.first)},{' '.join(s.name for s in t.second)}]"


def oracle_form(table, dom, cod, outputs):
    """The rows the outputs use, numbered once all their arguments are, leftmost first."""
    rows, new, nodes = table.rows, {}, []

    def ref(r):
        return r if isinstance(r, int) else (new[r[0]], r[1])

    todo = [r[0] for r in reversed(outputs) if not isinstance(r, int)]
    while todo:
        i = todo[-1]
        if i in new:
            todo.pop()
            continue
        gen, args = rows[i]
        pending = [a[0] for a in reversed(args) if not isinstance(a, int) and a[0] not in new]
        if pending:
            todo += pending
            continue
        todo.pop()
        new[i] = len(nodes)
        nodes.append((gen, tuple(map(ref, args))))
    return CanonicalForm(dom, cod, tuple(nodes), tuple(map(ref, outputs)))


def oracle_read_back(cf):
    """A term for the canonical form, each projection spelled out where it is used."""
    dom, rows = cf.dom, []

    def term(r):
        if isinstance(r, int):
            return select_wire(dom, r)
        node, out = r
        cod = cf.nodes[node][0].cod
        return rows[node] if len(cod) == 1 else rows[node] >> select_wire(cod, out)

    for gen, args in cf.nodes:
        rows.append(pairing([term(a) for a in args], dom) >> Gen(gen))
    return pairing([term(r) for r in cf.outputs], dom)


def oracle_normalize(t):
    table = UniqueTable(len(t.dom))
    return oracle_form(table, t.dom, t.cod, oracle_push(t, table.inputs, table))


def oracle_normal_eq(f, g):
    if f.dom != g.dom or f.cod != g.cod:
        return False
    table = UniqueTable(len(f.dom))
    return oracle_push(f, table.inputs, table) == oracle_push(g, table.inputs, table)


def oracle_eval_dag(cf, xs, interp, report):
    """Evaluate a canonical form from its outputs down, each row once."""
    results = {}

    def value(r):
        if isinstance(r, int):
            return xs[r]
        node, out = r
        if node not in results:
            gen, args = cf.nodes[node]
            arg_values = tuple(value(a) for a in args)
            report.generator_counts[gen.name] += 1
            results[node] = interp.apply(gen, arg_values)
        return results[node][out]

    return tuple(value(r) for r in cf.outputs)


def oracle_counterexample(f, g, interp):
    """The per-point loop: the first input tuple, row-major, where f and g differ."""
    for xs in enumerate_inputs(f.dom):
        throwaway = CostReport()
        if oracle_eval(f, xs, interp, throwaway) != oracle_eval(g, xs, interp, throwaway):
            return xs
    return None


def oracle_gen_occurrences(cf):
    """Each row's counts, merged from its arguments' counts: quadratic in the rows."""
    counts = []
    for gen, args in cf.nodes:
        total = Counter({gen.name: 1})
        for a in args:
            if not isinstance(a, int):
                total.update(counts[a[0]])
        counts.append(total)
    out = Counter()
    for r in cf.outputs:
        if not isinstance(r, int):
            out.update(counts[r[0]])
    return out


# --- random terms ----------------------------------------------------------------


def structural_term(rng, sig, dom, depth):
    """A random term out of dom, mostly swaps, projections, deletions and tensors."""
    if depth > 0 and rng.random() < 0.7:
        if rng.random() < 0.5:
            first = structural_term(rng, sig, dom, depth - 1)
            return Seq(first, structural_term(rng, sig, first.cod, depth - 1))
        k = rng.randint(0, len(dom))
        return Ten(
            structural_term(rng, sig, dom[:k], depth - 1),
            structural_term(rng, sig, dom[k:], depth - 1),
        )
    k = rng.randint(0, len(dom))
    leaves = [Id(dom), Delete(dom), Swap(dom[:k], dom[k:]), Proj1(dom[:k], dom[k:])]
    leaves += [Proj2(dom[:k], dom[k:])] + [Gen(g) for g in sig.generators if g.dom == dom]
    if len(dom) <= 3:
        leaves.append(Copy(dom))
    return rng.choice(leaves)


def random_terms(seed, count):
    """(interp, term) pairs: sampled morphisms, their padded variants, structural terms."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        sig = random_signature(rng)
        interp = Interp.from_signature(sig)
        for _ in range(10):
            dom, cod = random_obj(rng, sig, 1, 3), random_obj(rng, sig, 1, 3)
            try:
                t = random_morphism(rng, sig, dom, cod, budget=rng.randint(1, 3))
            except ValueError:
                continue
            out += [(interp, u) for u in [t, *padded_variants(rng, t, 2)]]
            out.append((interp, structural_term(rng, sig, dom, 5)))
    return out


# --- differential tests ----------------------------------------------------------


def test_evaluate_matches_oracle():
    for interp, t in random_terms(1, 300):
        for xs in list(enumerate_inputs(t.dom))[:8]:
            got, want = CostReport(), CostReport()
            assert evaluate(t, xs, interp, got) == oracle_eval(t, xs, interp, want)
            assert got.generator_counts == want.generator_counts
            assert got.copies == want.copies


def test_normalize_matches_oracle():
    for _, t in random_terms(2, 300):
        cf, want = normalize(t), oracle_normalize(t)
        assert cf == want
        assert gen_occurrences(cf) == oracle_gen_occurrences(want)
        assert share(t).to_json() == want.to_json()


def _with_two_outputs(rng, sig):
    """sig and a generator with two outputs, so rows are used through either output."""
    dom, cod = random_obj(rng, sig, 1, 2), random_obj(rng, sig, 2, 2)
    m = Generator("m", dom, cod, table=random_table(rng, dom, cod))
    return Signature(sig.sorts, (*sig.generators, m))


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.randoms(use_true_random=False))
def test_form_and_read_back_match_oracle(rng):
    # two terms in one table: each form keeps only the rows its own outputs use
    sig = _with_two_outputs(rng, random_signature(rng))
    dom = random_obj(rng, sig, 1, 3)
    table = UniqueTable(len(dom))
    for _ in range(2):
        try:
            t = random_morphism(rng, sig, dom, random_obj(rng, sig, 1, 3), budget=rng.randint(1, 4))
        except ValueError:
            continue
        outs = table.push(t, table.inputs)
        cf = table.form(dom, t.cod, outs)
        assert cf == oracle_form(table, dom, t.cod, outs)
        assert str(read_back(cf)) == str(oracle_read_back(cf))
        assert table.pull(outs, table.apply) == outs


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.randoms(use_true_random=False))
def test_evaluate_dag_matches_oracle(rng):
    for interp, t in random_terms(rng.randrange(2**32), 4):
        cf = share(t)
        assert normalize(read_back(cf)) == cf
        for xs in list(enumerate_inputs(t.dom))[:8]:
            got, want, tree = CostReport(), CostReport(), CostReport()
            out = evaluate_dag(cf, xs, interp, got)
            assert out == oracle_eval_dag(cf, xs, interp, want) == oracle_eval(t, xs, interp, tree)
            assert got.generator_counts == want.generator_counts
            assert sum(got.generator_counts.values()) == len(cf.nodes) <= sum(tree.generator_counts.values())


# --- the report protocol: each walker counts into the report it is given ---------


class _LoggedCounts(Counter):
    def __init__(self, log):
        self.log = log
        super().__init__()

    def update(self, names=None, **kwargs):
        self.log.append(("counts", list(names or ())))
        super().update(names, **kwargs)


class _LoggedReport(CostReport):
    """A report that logs each update of its counts and each write of its copies."""

    def __init__(self):
        self.log = []
        super().__init__(_LoggedCounts(self.log))
        self.log.clear()

    def __setattr__(self, name, value):
        if name == "copies":
            self.log.append(("copies", value))
        super().__setattr__(name, value)


def _walkers(t):
    """(name, walk, oracle) for `run` of t and of its canonical form.

    `walk(xs, apply, report)` runs t or its form; `oracle(t, xs, interp,
    report)` is the matching recursive walker.
    """
    cf = normalize(t)
    return (
        ("run", lambda xs, apply, report: run(t, xs, apply, report), oracle_eval),
        (
            "form",
            lambda xs, apply, report: run(cf, xs, apply, report),
            lambda _, xs, interp, report: oracle_eval_dag(cf, xs, interp, report),
        ),
    )


def test_a_report_receives_the_counts_and_copies_once_per_walk():
    for interp, t in random_terms(5, 60):
        for name, walk, oracle in _walkers(t):
            for xs in list(enumerate_inputs(t.dom))[:4]:
                got, want = _LoggedReport(), CostReport()
                assert walk(xs, interp.apply, got) == oracle(t, xs, interp, want), name
                assert got.generator_counts == want.generator_counts, name
                assert got.copies == (want.copies if name == "run" else 0), name
                # one update, keys in first-application order; a form writes no copies
                names = [k for k, _ in got.log]
                assert names == (["counts", "copies"] if name == "run" else ["counts"]), name
                assert list(dict.fromkeys(got.log[0][1])) == list(got.generator_counts), name


def test_a_walk_that_raises_leaves_the_report_untouched():
    class Stop(Exception):
        pass

    for interp, t in random_terms(6, 60):
        for name, walk, _ in _walkers(t):
            xs = next(enumerate_inputs(t.dom))
            report = CostReport()
            walk(xs, interp.apply, report)
            before = (Counter(report.generator_counts), report.copies)
            for k in range(1, sum(before[0].values()) // 2 + 1):
                calls = []

                def apply(gen, args):  # the k-th application raises
                    calls.append(gen)
                    if len(calls) == k:
                        raise Stop
                    return interp.apply(gen, args)

                with pytest.raises(Stop):
                    walk(xs, apply, report)
                assert (report.generator_counts, report.copies) == before, (name, k)


def test_evaluate_runs_terms_and_forms_as_evaluate_dag_did():
    for interp, t in random_terms(7, 100):
        cf = normalize(t)
        for xs in list(enumerate_inputs(t.dom))[:4]:
            got, want, dag = CostReport(), CostReport(), CostReport()
            out = evaluate(cf, xs, interp, got)
            assert out == evaluate_dag(share(t), xs, interp, dag) == oracle_eval_dag(cf, xs, interp, want)
            assert got == dag and got.generator_counts == want.generator_counts
            assert list(got.generator_counts) == list(want.generator_counts)
            assert evaluate(cf, xs, interp) == evaluate(t, xs, interp) == out


def test_evaluate_rejects_a_bad_value_as_evaluate_dag_did():
    A = Obj((Sort("A", FiniteCarrier(2)),))
    f = Gen(Generator("f", A, A, table=((1,), (0,))))
    interp = Interp.from_signature(Signature(tuple(A), (f.gen,)))
    for x in (f >> f, normalize(f >> f)):
        with pytest.raises(CarrierMismatch, match=r"^input: \[0\]: value 2 not in finite carrier of A$"):
            evaluate(x, (2,), interp)
        with pytest.raises(CarrierMismatch, match=r"^input: expected 1 values for A, got 2$"):
            evaluate(x, (0, 1), interp, CostReport())


def test_print_matches_oracle():
    for _, t in random_terms(6, 300):
        back = read_back(normalize(t))
        assert str(t) == oracle_print(t) and str(back) == oracle_print(back)


def test_normal_eq_and_counterexample_match_oracle():
    terms = random_terms(3, 300)
    rng = random.Random(4)
    for (interp, f), (_, g) in zip(terms, terms[1:]):
        if f.dom != g.dom or f.cod != g.cod:
            g = rng.choice(padded_variants(rng, f))
        assert normal_eq(f, g) == oracle_normal_eq(f, g)
        assert extensional_counterexample(f, g, interp) == oracle_counterexample(f, g, interp)


# --- the column check against the per-point loop -------------------------------------

A2, B3 = Sort("A", FiniteCarrier(2)), Sort("B", FiniteCarrier(3))
A, B = Obj((A2,)), Obj((B3,))


def column_signature(rng):
    """A constant k, a two-output m, a two-input h and endomaps p, q of B agreeing below 2."""
    p = random_table(rng, B, B)
    q = p[:2] + ((rng.choice([v for v in range(3) if v != p[2][0]]),),)
    return Signature(
        (A2, B3),
        (
            Generator("k", UNIT, A, table=random_table(rng, UNIT, A)),
            Generator("m", A, A @ B, table=random_table(rng, A, A @ B)),
            Generator("h", A @ B, A, table=random_table(rng, A @ B, A)),
            Generator("p", B, B, table=p),
            Generator("q", B, B, table=q),
        ),
    )


def column_interp(rng, sig):
    """The declared tables, some generators given as functions (checked point by point)."""
    tables = Interp.from_signature(sig)
    interp = Interp(tables={g.name: g.table for g in sig.generators})
    for g in sig.generators:
        if rng.random() < 0.3:
            del interp.tables[g.name]
            interp.fns[g.name] = lambda args, g=g: tables.apply(g, args)
    return interp


def column_cases(rng, sig):
    """Pairs with one boundary: unit domains, del then a constant, two outputs, no outputs."""
    dom = random_obj(rng, sig, 1, 3)
    cod = random_obj(rng, sig, 1, 2)
    k, m = Gen(sig.generator("k")), Gen(sig.generator("m"))
    some = random_morphism(rng, sig, dom, cod, budget=3)
    moves = structural_term(rng, sig, dom, 4)
    def sampled(dom, cod):
        return random_morphism(rng, sig, dom, cod, budget=3)

    return [
        (sampled(UNIT, cod), sampled(UNIT, cod)),
        (k >> m, sampled(UNIT, A @ B)),
        (Delete(dom) >> k, sampled(dom, A)),
        (Delete(dom) >> k >> m, sampled(dom, A @ B)),
        (Proj2(dom, A) >> m, sampled(dom @ A, A @ B)),
        (Delete(dom), some >> Delete(cod)),
        (some, sampled(dom, cod)),
        (some, rng.choice(padded_variants(rng, some))),
        (moves, sampled(dom, moves.cod)),
    ]


COLUMN_SETTINGS = settings(
    deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow]
)


@settings(COLUMN_SETTINGS, max_examples=60)
@given(st.randoms(use_true_random=False))
def test_column_check_matches_per_point_loop(rng):
    sig = column_signature(rng)
    interp = column_interp(rng, sig)
    for f, g in column_cases(rng, sig):
        assert extensional_counterexample(f, g, interp) == oracle_counterexample(f, g, interp)


@settings(COLUMN_SETTINGS, max_examples=4)
@given(st.randoms(use_true_random=False))
def test_column_check_spans_blocks(rng):
    """8 wires of size 3: 6561 inputs, more than one block.  p and q differ only at 2."""
    sig = column_signature(rng)
    interp = column_interp(rng, sig)
    dom = Obj((B3,) * 8)
    p, q = Gen(sig.generator("p")), Gen(sig.generator("q"))
    # the first wire is 2 from row 2 * 3**7 = 4374 on, in the second block
    first, other = select_wire(dom, 0), select_wire(dom, rng.randrange(1, 8))
    assert oracle_counterexample(first >> p, first >> q, interp) == (2,) + (0,) * 7
    pairs = [(first >> p, first >> q), (other >> p, other >> q), (first >> p, first >> p)]
    pairs.append((other >> Delete(B), Delete(dom)))
    for f, g in pairs:
        assert extensional_counterexample(f, g, interp) == oracle_counterexample(f, g, interp)


def test_chain_round_trips_match_oracle():
    """64-stage benchmark shapes: shallow enough for the oracle, deep for the walker."""
    chain = build_chain(64, "finite", seed=5)
    interp = Interp.from_signature(chain.signature)
    optic = compose_optic_chain([reify(l) for l in chain.lenses])
    lens = compose_chain(list(chain.lenses), "right")
    a = chain_input(chain)
    for t in (round_trip_term(optic), round_trip_term(reify(lens))):
        got, want = CostReport(), CostReport()
        assert evaluate(t, a, interp, got) == oracle_eval(t, a, interp, want)
        assert got.to_json() == want.to_json()
        assert normalize(t) == oracle_normalize(t)


def test_gen_occurrences_matches_oracle_on_round_trips():
    chain = build_chain(200, "finite", seed=9)
    for n in (1, 2, 50, 200):
        stages = list(chain.lenses[:n])
        terms = [round_trip_term(compose_optic_chain([reify(l) for l in stages]))]
        terms += [round_trip_term(reify(compose_chain(stages, assoc))) for assoc in ("left", "right")]
        for t in terms:
            cf = normalize(t)
            assert gen_occurrences(cf) == oracle_gen_occurrences(cf)


# --- deep chains -------------------------------------------------------------------

# Three times the interpreter's default recursion limit of 1000.  No test
# changes the limit.
DEEP = 3000
DEEP_LENS = 1200


def test_deep_optic_chain_executes_normalizes_and_shares():
    start = time.perf_counter()
    chain = build_chain(DEEP, "finite", seed=7)
    interp = Interp.from_signature(chain.signature)
    optic = compose_optic_chain([reify(l) for l in chain.lenses])
    a = chain_input(chain)

    b, a_prime, report = optic_exec(optic, a, interp)
    assert (b, a_prime) == stage_by_stage(chain, interp, a, DEEP)
    assert report.total_evals(chain.get_names) == DEEP
    assert report.total_evals(chain.put_names) == DEEP
    assert report.copies == DEEP

    # the forward pass emits x0 .. xn, and x_i's wire tree holds i forward maps
    cf = normalize(optic.forward)
    occ = gen_occurrences(cf)
    assert sum(occ[name] for name in chain.get_names) == DEEP * (DEEP + 1) // 2
    assert normalize(read_back(cf)) == cf

    stages = []
    t = optic.forward
    while isinstance(t, Seq):  # left-nested: peel stages off the end
        stages.append(t.right)
        t = t.left
    stages.append(t)
    # left-nested stages print as "(((s1 ; s2) ; s3) ; s4)"; each stage is shallow
    printed = "(" * (len(stages) - 1) + oracle_print(t)
    printed += "".join(f" ; {oracle_print(s)})" for s in reversed(stages[:-1]))
    same = str(optic.forward) == printed  # tens of megabytes: no diff on failure
    assert same
    right_nested = stages[0]
    for s in stages[1:]:
        right_nested = Seq(s, right_nested)
    assert normal_eq(optic.forward, right_nested)

    dag = share(round_trip_term(optic))
    assert dag.gen_node_count(chain.get_names) == DEEP
    assert evaluate_dag(dag, a, interp) == b + a_prime
    assert time.perf_counter() - start < 120


def test_deep_lens_chain_executes():
    start = time.perf_counter()
    chain = build_chain(DEEP_LENS, "finite", seed=8)
    interp = Interp.from_signature(chain.signature)
    lens = compose_chain(list(chain.lenses), "left")
    a = chain_input(chain)
    b, a_prime, report = lens_exec(lens, a, interp)
    assert (b, a_prime) == stage_by_stage(chain, interp, a, DEEP_LENS)
    assert report.total_evals(chain.get_names) == DEEP_LENS * (DEEP_LENS + 1) // 2
    assert report.total_evals(chain.put_names) == DEEP_LENS
    assert time.perf_counter() - start < 120


# --- pushes that remember shared subterms -----------------------------------------


def _counting_table(dom):
    """A unique table that records every generator it is asked to apply."""
    table, calls = UniqueTable(len(dom)), []
    apply = table.apply

    def counted(gen, xs):
        calls.append(gen.name)
        return apply(gen, xs)

    table.apply = counted
    return table, calls


def test_run_rejects_counts_with_a_memo():
    A = Obj((Sort("A", FiniteCarrier(2)),))
    t = Copy(A) >> Swap(A, A)
    with pytest.raises(ValueError, match="memo"):
        run(t, (0,), lambda gen, xs: xs, CostReport(), {})
    assert run(t, (0,), lambda gen, xs: xs, memo={}) == (0, 0)


def test_a_shared_subterm_runs_once_per_distinct_input():
    A = Obj((Sort("A", FiniteCarrier(2)),))
    d = Gen(Generator("d", A, A, table=((1,), (0,))))
    s = d >> d  # a Seq node: the memo sits on those
    # s meets x twice, then s(x) twice: the first visit only marks s, the
    # second keeps its output on x, the third on s(x), and the fourth reuses that
    t = Copy(A) >> Ten(s, s) >> Ten(s, Id(A)) >> Ten(Id(A), s)
    table, calls = _counting_table(A)
    memo: dict = {}
    outs = run(t, table.inputs, table.apply, memo=memo)
    assert len(calls) == 2 + 2 + 2
    assert memo[id(s)] == {(0,): ((1, 0),), ((1, 0),): ((3, 0),)}
    assert outs == ((3, 0), (3, 0))
    assert table.form(A, A @ A, outs) == oracle_normalize(t)


def test_pull_applies_each_row_once_and_stops_at_leaves():
    A = Obj((A2,))
    k = Generator("k", A, A, table=((1,), (0,)))
    m = Generator("m", A, A @ A, table=((0, 1), (1, 0)))
    h = Generator("h", A @ A, A, table=((0,), (1,), (1,), (0,)))
    table = UniqueTable(1)
    (x,) = table.apply(k, (0,))
    y, z = table.apply(m, (x,))
    (u,) = table.apply(h, (y, z))
    (v,) = table.apply(h, (u, z))
    # the leaf gives the row k its value, as the search gives a forward ref a residual wire
    fresh, calls = _counting_table(A)
    got = table.pull((v, y), fresh.apply, lambda r: 0 if r == x else None)
    assert calls == ["m", "h", "h"]  # m once, though v reads both its outputs; k never
    assert got == ((2, 0), (0, 0))
    assert fresh.rows == [(m, (0,)), (h, ((0, 0), (0, 1))), (h, ((1, 0), (0, 1)))]
    # with no leaves, pulling a table's refs through its own rows gives them back
    assert table.pull((v, y, 0), table.apply) == (v, y, 0)


def test_a_term_sharing_nothing_keeps_no_values():
    chain = build_chain(16, "finite", seed=2)
    optic = round_trip_term(compose_optic_chain([reify(l) for l in chain.lenses]))
    lens = round_trip_term(reify(compose_chain(list(chain.lenses))))
    kept = {}
    for name, t in (("optic", optic), ("lens", lens)):
        memo: dict = {}
        table = UniqueTable(len(t.dom))
        run(t, table.inputs, table.apply, memo=memo)
        assert memo, name  # its Seq nodes are marked
        kept[name] = sum(v is not None for v in memo.values())
    # the lens composite's put reruns each prefix of its get pass
    assert kept == {"optic": 0, "lens": 14}


def _random_composite(rng):
    """A random bracketing of random lenses whose last backward boundary fits its forward one.

    Half the time the stages are drawn from two lenses (C, C) -> (C, C), so
    one get term recurs at several stages, on different inputs.
    """
    while True:
        sig = random_signature(rng)
        c = random_obj(rng, sig)
        try:
            if rng.random() < 0.5:
                pool = [random_lens(rng, sig, (c, c), (c, c)) for _ in range(2)]
                lenses = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            else:
                lenses = list(random_composable_lenses(rng, sig, rng.randint(1, 5)))
                lenses.append(random_lens(rng, sig, lenses[-1].cod_pair, (c, c)))
        except ValueError:
            continue
        break

    def bracket(ls):
        if len(ls) == 1:
            return ls[0]
        k = rng.randint(1, len(ls) - 1)
        return lens_compose(bracket(ls[:k]), bracket(ls[k:]))

    return sig, bracket(lenses)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.randoms(use_true_random=False))
def test_pushes_of_lens_round_trips_match_their_unshared_copies(rng):
    sig, lens = _random_composite(rng)
    t = round_trip_term(reify(lens))
    copy = parse_term(str(t), sig)  # the same tree, with no node reached twice
    cf = normalize(t)
    assert cf == normalize(copy) == oracle_normalize(t)
    assert normal_eq(t, copy) and normal_eq(lens.put, parse_term(str(lens.put), sig))
