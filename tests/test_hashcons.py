"""Hash-consed canonical forms: linear cost on shared forms, unchanged answers.

A `(copy[A] ; h)` chain of length k has k distinct nodes but 2^k - 1
generator occurrences when its canonical form is read as a tree.  Every
operation on canonical forms must cost time in the number of nodes.

The reference for equality is the structural tree comparison: `_tree`,
below, expands a listing into one nested tuple per output wire, and
`_pushed_tree` builds the same trees straight from a term.  Both walk every
path, so they are used on small forms only.
"""

import pickle
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cartoptics import (
    CanonicalForm,
    Copy,
    FiniteCarrier,
    Gen,
    Generator,
    Id,
    Interp,
    Obj,
    Proj2,
    Sort,
    build_chain,
    check_oplax_coherence,
    compose_chain,
    compose_optic_chain,
    eq_extensional,
    gen_occurrences,
    normal_eq,
    normalize,
    pi0_classes,
    read_back,
    reify,
    search_cells,
    select_wire,
    share,
)
from cartoptics.normal import UniqueTable
from cartoptics.optic import round_trip_term
from cartoptics.sampling import random_morphism, random_obj, random_signature
from cartoptics.term import run
from sampling_helpers import padded_variants, random_interp


A = Obj((Sort("A", FiniteCarrier(2)),))
H = Gen(Generator("h", A @ A, A, table=((0,), (1,), (1,), (0,))))


def _copy_chain(k):
    t = Id(A)
    for _ in range(k):
        t = t >> (Copy(A) >> H)
    return t


@pytest.fixture
def applications(monkeypatch):
    """Every `UniqueTable.apply` call made while the test runs, as generator names."""
    calls = []
    apply = UniqueTable.apply

    def counted(self, gen, xs):
        calls.append(gen.name)
        return apply(self, gen, xs)

    monkeypatch.setattr(UniqueTable, "apply", counted)
    return calls


class TestSharedSubtermsPushedOnce:
    """A lens composite's put reruns each prefix of its get pass; the table sees each once."""

    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_round_trips_take_linear_applications(self, n, applications):
        chain = build_chain(n, "finite", seed=0)
        lenses = list(chain.lenses)
        left = round_trip_term(reify(compose_chain(lenses)))
        cf = normalize(left)
        # n for the get pass, n - 1 for its prefixes once more inside the put, n puts
        assert len(applications) == 3 * n
        assert len(cf.nodes) == 2 * n
        for t in (
            round_trip_term(reify(compose_chain(lenses, "right"))),
            round_trip_term(compose_optic_chain([reify(l) for l in lenses])),
        ):
            applications.clear()
            assert normalize(t) == cf
            assert len(applications) <= 3 * n
        applications.clear()
        assert normal_eq(left, left) and len(applications) == 6 * n

    def test_four_packagings_are_decided_in_linear_applications(self, applications):
        n = 300
        chain = build_chain(n, "finite", seed=0)
        lenses = list(chain.lenses)
        halves = [reify(compose_chain(lenses[:150])), reify(compose_chain(lenses[150:]))]
        family = [
            reify(compose_chain(lenses)),
            reify(compose_chain(lenses, "right")),
            compose_optic_chain([reify(l) for l in lenses]),
            compose_optic_chain(halves),
        ]
        sample = search_cells(family)
        searched = len(applications)
        # the classes come from the search's edges: no pass is pushed again
        applications.clear()
        assert len(sample.cells) == 7 and pi0_classes(sample) == [[0, 1, 2, 3]]
        assert applications == []
        # about 52 per stage; squares in tables of their own took about 84, and
        # walking the puts as trees about 1300
        assert searched <= 60 * n

    def test_coherence_windows_take_the_same_applications(self, applications):
        # validating a cell pushes fw1, fw2, bw1, bw2 and the witness (on each
        # square) once each; sharing one table for both squares adds no push
        chain = build_chain(64, "finite", seed=1)
        interp = Interp.from_signature(chain.signature)
        for i in range(20):
            assert check_oplax_coherence(*chain.lenses[i : i + 3], interp).passed
        assert len(applications) == 3960


class TestExponentialCases:
    def test_copy_chain_k64(self):
        start = time.perf_counter()
        t = _copy_chain(64)
        cf = normalize(t)
        assert len(share(t).nodes) == 64
        assert normal_eq(t, t)
        assert hash(cf) == hash(normalize(t))
        assert gen_occurrences(cf) == {"h": 2**64 - 1}
        # separate calls: equality is structural, not by identity
        assert normalize(t) == normalize(t)
        assert normalize(_copy_chain(63) >> Copy(A) >> H) == cf
        assert normalize(_copy_chain(63)) != cf
        assert time.perf_counter() - start < 5.0

    def test_200_stage_round_trip_shares_without_recursion_error(self):
        chain = build_chain(200, "finite", seed=3)
        dag = share(round_trip_term(reify(compose_chain(chain.lenses))))
        assert len(dag.nodes) == 400
        assert dag.gen_node_count(chain.get_names) == 200


# --- differential tests against the structural tree comparison ---------------


def _tree(cf):
    """The form as nested tuples: boundaries, then one tree per output wire."""

    def expand(r):
        if isinstance(r, int):
            return ("var", r)
        gen, args = cf.nodes[r[0]]
        return ("app", gen, r[1], tuple(map(expand, args)))

    return cf.dom, cf.cod, tuple(map(expand, cf.outputs))


def _pushed_tree(t):
    """The trees of t built by pushing variables through it, with no table."""

    def apply(gen, xs):
        return tuple(("app", gen, j, xs) for j in range(len(gen.cod)))

    wires = run(t, tuple(("var", i) for i in range(len(t.dom))), apply)
    return t.dom, t.cod, wires


def _hand_built(t):
    """The listing of t's pushed trees, each distinct application numbered
    once its arguments are, left to right; built without the unique table."""
    dom, cod, wires = _pushed_tree(t)
    rows: dict = {}

    def ref(w):
        if w[0] == "var":
            return w[1]
        _, gen, out, args = w
        return rows.setdefault((gen, tuple(map(ref, args))), len(rows)), out

    outputs = tuple(map(ref, wires))
    return CanonicalForm(dom, cod, tuple(rows), outputs)


def _setup(rng):
    sig = random_signature(rng)
    dom = random_obj(rng, sig)
    cod = random_obj(rng, sig)
    return sig, dom, cod


def _partner(rng, sig, t):
    """A padded variant of t (always equal) or a fresh term (often distinct)."""
    if rng.random() < 0.5:
        return rng.choice(padded_variants(rng, t))
    return random_morphism(rng, sig, t.dom, t.cod, budget=1)


PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestAgainstTreeOracle:
    @PROPERTY
    @given(st.randoms(use_true_random=False))
    def test_cross_form_equality_and_hash(self, rng):
        sig, dom, cod = _setup(rng)
        t1 = random_morphism(rng, sig, dom, cod)
        t2 = _partner(rng, sig, t1)
        cf1, cf2 = normalize(t1), normalize(t2)
        want = _tree(cf1) == _tree(cf2)
        assert (cf1 == cf2) == want
        assert normal_eq(t1, t2) == want
        if want:
            assert hash(cf1) == hash(cf2)
        # wire by wire: the table decides each output on its own
        for i, (w1, w2) in enumerate(zip(_tree(cf1)[2], _tree(cf2)[2])):
            pick = select_wire(cod, i)
            assert normal_eq(t1 >> pick, t2 >> pick) == (w1 == w2)

    @PROPERTY
    @given(st.randoms(use_true_random=False))
    def test_hand_built_forms(self, rng):
        sig, dom, cod = _setup(rng)
        t = random_morphism(rng, sig, dom, cod)
        dead = random_morphism(rng, sig, dom, cod, budget=1)
        # the last variant makes dead's rows and then projects them away
        variants = [*padded_variants(rng, t, 2), Copy(dom) >> (dead @ t) >> Proj2(cod, cod)]
        for u in (t, *variants):
            cf, hand = normalize(u), _hand_built(u)
            assert cf == hand and hash(cf) == hash(hand)
            assert _tree(cf) == _pushed_tree(u)
        other = _hand_built(dead)
        assert (hand == other) == (_tree(hand) == _tree(other))

    @PROPERTY
    @given(st.randoms(use_true_random=False))
    def test_pickle_round_trip(self, rng):
        sig, dom, cod = _setup(rng)
        cf = normalize(random_morphism(rng, sig, dom, cod))
        back = pickle.loads(pickle.dumps(cf))
        assert back == cf and hash(back) == hash(cf)

    @PROPERTY
    @given(st.randoms(use_true_random=False))
    def test_read_back_is_a_section(self, rng):
        sig, dom, cod = _setup(rng)
        cf = normalize(random_morphism(rng, sig, dom, cod))
        assert normalize(read_back(cf)) == cf


class TestAgainstExhaustiveEvaluation:
    """normal_eq implies equality under every interpretation.

    The converse fails on tiny carriers (u;u;u = u for every endo-map of a
    2-element set, see test_normalize.py), so that direction is checked
    against the tree oracle above instead.
    """

    @PROPERTY
    @given(st.randoms(use_true_random=False))
    def test_normal_eq_implies_extensional_eq(self, rng):
        sig, dom, cod = _setup(rng)
        t1 = random_morphism(rng, sig, dom, cod)
        t2 = _partner(rng, sig, t1)
        if normal_eq(t1, t2):
            for _ in range(2):
                assert eq_extensional(t1, t2, random_interp(rng, sig))


def test_generators_compare_by_value():
    a = Sort("A", FiniteCarrier(2))
    obj = Obj((a,))

    def gen(table):
        return Generator("u", obj, obj, table=table)

    u1, u2, other = gen(((1,), (0,))), gen(((1,), (0,))), gen(((0,), (0,)))
    assert u1 is not u2 and u1 == u2
    # equal but distinct generator objects are one generator
    t = Copy(obj) >> (Gen(u1) @ Gen(u2))
    assert len(share(t).nodes) == 1
    assert normalize(t) == CanonicalForm(obj, obj @ obj, ((u2, (0,)),), ((0, 0), (0, 0)))
    assert normal_eq(Gen(u1), Gen(u2))
    assert normalize(Gen(u1)) == CanonicalForm(obj, obj, ((u2, (0,)),), ((0, 0),))
    # same name, different table: different generators
    assert not normal_eq(Gen(u1), Gen(other))
    assert normalize(Gen(u1)) != normalize(Gen(other))
    assert len(share(Copy(obj) >> (Gen(u1) @ Gen(other))).nodes) == 2
