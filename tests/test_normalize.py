"""Canonical forms: hand-checked values, equational laws, soundness limits.

The soundness property (equal canonical forms imply equal behaviour under
every interpretation) is exercised at random.  The converse direction fails
at tiny carriers: every endo-map u of a 2-element set satisfies u^3 = u
pointwise, so u and u;u;u agree under all four unary tables while their
canonical forms differ.  The desk-scale experiment below pins down that this
is the only collapse among the first four powers, and that a 3-element
carrier separates the pair again.
"""

import dataclasses
import importlib.util
import pickle
import random
from collections import Counter
from pathlib import Path

import pytest

from cartoptics import (
    CanonicalForm,
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
    Signature,
    Sort,
    Swap,
    UNIT,
    UnsupportedInterpretation,
    enumerate_inputs,
    eq_extensional,
    evaluate_dag,
    extensional_counterexample,
    gen_occurrences,
    graph,
    normal_eq,
    normalize,
    pairing,
    read_back,
)
from cartoptics.normal import UniqueTable
from cartoptics.sampling import random_morphism, random_obj, random_signature, random_table
from cartoptics.term import run
from sampling_helpers import padded_variants, random_interp


class TestHandValues:
    def test_generator(self, sig, f, A, B):
        assert normalize(f) == CanonicalForm(A, B, ((sig.generator("f"), (0,)),), ((0, 0),))

    def test_copy(self, A):
        assert normalize(Copy(A)) == CanonicalForm(A, A @ A, (), (0, 0))

    def test_swap(self, A, B):
        assert normalize(Swap(A, B)) == CanonicalForm(A @ B, B @ A, (), (1, 0))

    def test_graph(self, sig, f, A, B):
        assert normalize(graph(f)) == CanonicalForm(
            A, A @ B, ((sig.generator("f"), (0,)),), (0, (0, 0))
        )

    def test_multi_output_projection(self, sig, k, A):
        second = k >> Proj2(A, A)
        assert normalize(second) == CanonicalForm(A, A, ((sig.generator("k"), (0,)),), ((0, 1),))

    def test_dead_rows_are_dropped(self, sig, f, e, A, B):
        # e's row is made, then deleted: only f's row remains, numbered 0
        t = Copy(A) >> ((e >> Delete(A)) @ f)
        assert normalize(t) == CanonicalForm(A, B, ((sig.generator("f"), (0,)),), ((0, 0),))

    def test_rows_follow_the_outputs_left_to_right(self, sig, f, g, e, A):
        # evaluated e first, but the first output needs f ; g, so f and g come first
        t = Copy(A) >> (e @ (f >> g)) >> Swap(A, A)
        assert normalize(t).nodes == (
            (sig.generator("f"), (0,)),
            (sig.generator("g"), ((0, 0),)),
            (sig.generator("e"), (0,)),
        )
        assert normalize(t).outputs == ((1, 0), (2, 0))

    def test_delete(self, A):
        assert normalize(Delete(A)) == CanonicalForm(A, UNIT, (), ())


class TestEquationalLaws:
    def test_copy_naturality(self, f, A, B):
        assert normal_eq(f >> Copy(B), Copy(A) >> (f @ f))

    def test_delete_naturality(self, f, A, B):
        assert normal_eq(f >> Delete(B), Delete(A))

    def test_coassociativity(self, A):
        left = Copy(A) >> (Copy(A) @ Id(A))
        right = Copy(A) >> (Id(A) @ Copy(A))
        assert normal_eq(left, right)

    def test_counit(self, A):
        assert normal_eq(Copy(A) >> (Delete(A) @ Id(A)), Id(A))
        assert normal_eq(Copy(A) >> (Id(A) @ Delete(A)), Id(A))

    def test_cocommutativity(self, A):
        assert normal_eq(Copy(A) >> Swap(A, A), Copy(A))

    def test_graph_projections(self, f, A, B):
        assert normal_eq(graph(f) >> Proj2(A, B), f)
        assert normal_eq(graph(f) >> Proj1(A, B), Id(A))

    def test_pairing_projections(self, f, e, A, B):
        p = pairing([e, f], A)
        assert normal_eq(p >> Proj1(A, B), e)
        assert normal_eq(p >> Proj2(A, B), f)

    def test_boundaries_distinguish(self, A, B):
        assert not normal_eq(Id(A), Id(B))
        assert not normal_eq(Delete(A), Delete(B))

    def test_syntactically_distinct_stays_distinct(self, f, g, e):
        # f;g happens to agree with e under the default tables, but they are
        # different morphisms of the free category
        assert not normal_eq(f >> g, e)


class TestSoundness:
    def test_padded_variants_normalize_identically(self, sig, interp):
        rng = random.Random(21)
        checked = 0
        for _ in range(60):
            t = random_morphism(rng, sig, random_obj(rng, sig), random_obj(rng, sig))
            for v in padded_variants(rng, t):
                assert normal_eq(t, v)
                assert eq_extensional(t, v, interp)
                checked += 1
        assert checked >= 200

    def test_normal_eq_implies_extensional_eq(self, sig):
        rng = random.Random(22)
        interps = [random_interp(rng, sig) for _ in range(3)]
        agreements = 0
        for _ in range(120):
            dom = random_obj(rng, sig)
            cod = random_obj(rng, sig)
            t1 = random_morphism(rng, sig, dom, cod)
            t2 = random_morphism(rng, sig, dom, cod)
            if normal_eq(t1, t2):
                agreements += 1
                for ip in interps:
                    assert eq_extensional(t1, t2, ip)
            # also check both against themselves, which must always agree
            for ip in interps:
                assert eq_extensional(t1, t1, ip)
        assert agreements >= 1  # tiny sorts make collisions common

    def test_extensional_difference_implies_normal_difference(self, sig, interp):
        rng = random.Random(23)
        for _ in range(120):
            dom = random_obj(rng, sig)
            cod = random_obj(rng, sig)
            t1 = random_morphism(rng, sig, dom, cod)
            t2 = random_morphism(rng, sig, dom, cod)
            if not eq_extensional(t1, t2, interp):
                assert not normal_eq(t1, t2)


class TestReadBack:
    def test_round_trip_fixes_canonical_form(self, sig):
        rng = random.Random(31)
        for _ in range(100):
            t = random_morphism(rng, sig, random_obj(rng, sig), random_obj(rng, sig))
            cf = normalize(t)
            back = read_back(cf)
            assert back.dom == cf.dom and back.cod == cf.cod
            assert normalize(back) == cf

    def test_read_back_empty_cod(self, A):
        cf = normalize(Delete(A))
        assert normalize(read_back(cf)) == cf


class TestGenOccurrences:
    def test_counts(self, f, g, A):
        assert gen_occurrences(normalize(graph(f))) == Counter({"f": 1})
        assert gen_occurrences(normalize(Copy(A) >> (f @ f))) == Counter({"f": 2})
        assert gen_occurrences(normalize((f >> g) @ f)) == Counter({"f": 2, "g": 1})

    def test_multiplicity_of_shared_subtrees(self, f, g, A, B):
        # graph(f;g) followed by re-running f on the kept input: f appears
        # twice in the canonical form even though the subtree is shared
        t = graph(f >> g) >> (graph(f) @ Id(A))
        assert gen_occurrences(normalize(t)) == Counter({"f": 2, "g": 1})


def _power(t, n, obj):
    out = Id(obj)
    for _ in range(n):
        out = out >> t
    return out


def _powers_of_an_endo(size: int) -> list:
    """u^0 .. u^3 for an endo-map u of a sort with `size` elements."""
    a = Sort("A", FiniteCarrier(size))
    obj = Obj((a,))
    sig = Signature((a,), (Generator("u", obj, obj, table=tuple((x,) for x in range(size))),))
    return [_power(Gen(sig.generator("u")), n, obj) for n in range(4)]


@pytest.fixture(scope="module")
def setup():
    powers = _powers_of_an_endo(2)
    tables = [((x,), (y,)) for x in range(2) for y in range(2)]
    interps = [Interp(tables={"u": t}) for t in tables]
    return powers, interps


class TestSmallCarrierCollapse:
    """u^3 = u holds for every endo-map of a 2-element set."""

    def test_all_powers_have_distinct_normal_forms(self, setup):
        powers, _ = setup
        for i in range(4):
            for j in range(i + 1, 4):
                assert not normal_eq(powers[i], powers[j])

    def test_only_collapse_is_u_vs_u_cubed(self, setup):
        powers, interps = setup
        collapsed = set()
        for i in range(4):
            for j in range(i + 1, 4):
                if all(eq_extensional(powers[i], powers[j], ip) for ip in interps):
                    collapsed.add((i, j))
        assert collapsed == {(1, 3)}

    def test_three_element_carrier_separates(self):
        powers = _powers_of_an_endo(3)
        # a 3-cycle: u(x) = x + 1 mod 3, so u^3 is the identity but u is not
        cyc = Interp(tables={"u": ((1,), (2,), (0,))})
        assert not eq_extensional(powers[1], powers[3], cyc)


def _edge_signature():
    """One 3-element sort; c takes no input, m has two outputs, h two inputs."""
    a = Sort("A", FiniteCarrier(3))
    x = Obj((a,))
    return Signature(
        (a,),
        (
            Generator("c", UNIT, x, table=((2,),)),
            Generator("m", x, x @ x, table=((0, 1), (1, 2), (2, 0))),
            Generator("h", x @ x, x, table=tuple(((i + 2 * j) % 3,) for i in range(3) for j in range(3))),
        ),
    )


def _edge_term(sig):
    """x x -> x x x x x: outputs a c row fed to h, m's first output (its second
    unused), input wire 0, and one m output twice."""
    x = sig.obj("A")
    c, m, h = (Gen(sig.generator(n)) for n in "cmh")
    first = m >> Proj1(x, x)
    parts = [
        pairing([Delete(x @ x) >> c, Proj1(x, x)], x @ x) >> h,
        Proj2(x, x) >> first,
        Proj1(x, x),
        Proj1(x, x) >> first,
        Proj1(x, x) >> first,
    ]
    return pairing(parts, x @ x)


class TestPlan:
    """`term.run` runs a form through the plan it built, and agrees with running the term."""

    @staticmethod
    def cases(seed, count):
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            sig = random_signature(rng)
            # a generator with no input and one with two outputs, so every shape of row occurs
            s = sig.sorts[0]
            dom, cod = random_obj(rng, sig, 1, 2), Obj((s, rng.choice(sig.sorts)))
            extra = (
                Generator("k", UNIT, Obj((s,)), table=random_table(rng, UNIT, Obj((s,)))),
                Generator("w", dom, cod, table=random_table(rng, dom, cod)),
            )
            sig = Signature(sig.sorts, (*sig.generators, *extra))
            interp = Interp.from_signature(sig)
            for _ in range(6):
                dom, cod = random_obj(rng, sig, 1, 3), random_obj(rng, sig, 1, 3)
                try:
                    t = random_morphism(rng, sig, dom, cod, budget=rng.randint(1, 4))
                except ValueError:
                    continue
                out += [(interp, u) for u in [t, *padded_variants(rng, t, 1)]]
        return out

    def test_matches_term_run_on_random_terms(self):
        for interp, t in self.cases(0, 200):
            cf = normalize(t)
            for xs in enumerate_inputs(t.dom):
                assert run(cf, xs, interp.apply) == run(t, xs, interp.apply)

    def test_matches_term_run_on_columns_and_table_refs(self):
        for interp, t in self.cases(1, 100):
            cf = normalize(t)
            block = list(enumerate_inputs(t.dom))
            cols = tuple(map(list, zip(*block))) if t.dom else ()
            apply = interp.column_apply(len(block))
            assert run(cf, cols, apply) == run(t, cols, apply)
            table = UniqueTable(len(t.dom))
            assert run(cf, table.inputs, table.apply) == table.push(t, table.inputs)

    def test_edge_rows(self):
        sig = _edge_signature()
        t = _edge_term(sig)
        cf = normalize(t)
        # a row with no argument, an unused second output, an input wire and a repeated ref
        assert [len(args) for _, args in cf.nodes] == [0, 2, 1, 1]
        assert cf.outputs == ((1, 0), (2, 0), 0, (3, 0), (3, 0))
        interp = Interp.from_signature(sig)
        for xs in enumerate_inputs(t.dom):
            x0, x1 = xs
            want = ((2 + 2 * x0) % 3, x1, x0, x0, x0)  # m's first output is its input
            assert run(cf, xs, interp.apply) == run(t, xs, interp.apply) == want
        block = list(enumerate_inputs(t.dom))
        cols = tuple(map(list, zip(*block)))
        apply = interp.column_apply(len(block))
        assert run(cf, cols, apply) == run(t, cols, apply)
        table = UniqueTable(2)
        assert table.push(cf, table.inputs) == table.push(t, table.inputs)
        assert normalize(read_back(cf)) == cf

    def test_an_empty_form(self, A):
        cf = normalize(Delete(A))
        assert cf.plan == ((), None, ())
        assert run(cf, (1,), None) == ()
        assert run(normalize(Id(A)), (1,), None) == (1,)

    def test_wrong_number_of_inputs_is_rejected(self, A):
        with pytest.raises(ValueError, match="expected 2 values"):
            run(normalize(Id(A @ A)), (0,), None)

    def test_plan_is_outside_eq_hash_repr_and_json(self, f, A):
        cf = normalize(Copy(A) >> (f @ f))
        twin = CanonicalForm(cf.dom, cf.cod, cf.nodes, cf.outputs)
        object.__setattr__(twin, "plan", None)
        assert twin == cf and hash(twin) == hash(cf)
        assert repr(twin) == repr(cf) and "plan" not in repr(cf)
        assert twin.to_json() == cf.to_json() and "plan" not in cf.to_json()
        (field,) = [x for x in dataclasses.fields(CanonicalForm) if x.name == "plan"]
        assert not (field.init or field.compare or field.repr)

    def test_plan_survives_pickle_and_replace(self):
        t = _edge_term(_edge_signature())
        cf = normalize(t)
        interp = Interp.from_signature(_edge_signature())
        back = pickle.loads(pickle.dumps(cf))
        assert back == cf and run(back, (1, 2), interp.apply) == run(cf, (1, 2), interp.apply)
        swapped = dataclasses.replace(cf, outputs=cf.outputs[::-1])
        assert run(swapped, (1, 2), interp.apply) == run(cf, (1, 2), interp.apply)[::-1]
        assert swapped.plan[2] == cf.plan[2] and swapped.plan[1] != cf.plan[1]

    def test_a_run_that_raises_partway_counts_nothing(self):
        sig = _edge_signature()
        cf = normalize(_edge_term(sig))
        tables = {g.name: g.table for g in sig.generators}
        del tables["m"]  # the third of four rows has no semantics
        report = CostReport()
        with pytest.raises(UnsupportedInterpretation, match="generator m"):
            evaluate_dag(cf, (0, 1), Interp(tables), report)
        assert report.generator_counts == Counter()
        evaluate_dag(cf, (0, 1), Interp.from_signature(sig), report)
        assert report.generator_counts == Counter({"c": 1, "h": 1, "m": 2})

    def test_a_form_runs_wherever_its_term_runs(self):
        for interp, t in self.cases(2, 100):
            cf = normalize(t)
            assert extensional_counterexample(cf, t, interp) is None
            assert eq_extensional(t, cf, interp)

    def test_a_report_with_a_memo_is_rejected_for_a_form_as_for_a_term(self, f, A):
        t = Copy(A) >> (f @ f)
        for x in (t, normalize(t)):
            with pytest.raises(ValueError, match="a memo skips applications"):
                run(x, (0,), None, report=CostReport(), memo={})


def test_forms_pickled_when_the_class_lived_in_normal_still_load():
    spec = importlib.util.spec_from_file_location("write_forms", Path(__file__).parent / "golden" / "write_forms.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    back = pickle.loads(golden.GOLDEN.read_bytes())
    assert back == golden.forms()
    assert all(type(cf) is CanonicalForm for cf in back)
    interp = Interp.from_signature(golden.signature())
    for cf, t in zip(back, golden.terms(), strict=True):
        for xs in enumerate_inputs(t.dom):
            assert run(cf, xs, interp.apply) == run(t, xs, interp.apply)
