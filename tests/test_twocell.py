"""Cells between optics: validation, pasting, and connected components."""

import itertools
import math
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cartoptics import (
    UNIT,
    CanonicalForm,
    Copy,
    Delete,
    FiniteCarrier,
    Gen,
    Generator,
    HomCatSample,
    Id,
    Interp,
    Obj,
    Optic,
    Proj1,
    Proj2,
    Signature,
    Sort,
    TermTypeError,
    TwoCellError,
    check_oplax_coherence,
    enumerate_morphisms,
    erase,
    graph,
    hcompose,
    identity_cell,
    lens_id,
    mk_two_cell,
    normal_eq,
    normalize,
    optic_compose,
    optic_id,
    optic_normal_eq,
    pi0_classes,
    read_back,
    reify,
    search_cells,
    vcompose,
)
from cartoptics import compose_chain, compose_optic_chain, term, twocell
from cartoptics import optic as optic_module
from cartoptics.cost import build_chain
from cartoptics.interp import first_disagreement
from cartoptics.normal import UniqueTable
from cartoptics.term import gen_wire, pairing, run, select_wire
from cartoptics.sampling import canon, random_obj, random_optic, random_signature, random_valid_cell
from cartoptics.twocell import NormalizerDisagreement
from sampling_helpers import composed_parts, random_cell_chain, random_composable_cells, random_optic_chain


@pytest.fixture
def rewired(f, h, e, A, B):
    """A valid cell: rewiring the residual by e, with both squares commuting."""
    src = Optic(A, graph(f), (e @ Id(B)) >> h)
    tgt = Optic(A, Copy(A) >> (e @ f), h)
    return src, tgt


class TestValidation:
    def test_valid_cell(self, rewired, e, interp):
        src, tgt = rewired
        cell = mk_two_cell(src, tgt, e, interp)
        assert cell.src is src and cell.tgt is tgt and cell.witness is e

    def test_forward_failure_with_counterexample(self, rewired, f, h, A, interp):
        _, tgt = rewired
        plain = Optic(A, graph(f), h)
        with pytest.raises(TwoCellError) as info:
            mk_two_cell(plain, tgt, Id(A), interp)
        assert info.value.side == "forward"
        assert info.value.counterexample == (0,)
        assert "separating input (0,)" in str(info.value)

    def test_backward_failure_with_counterexample(self, f, h, e, A, B, interp):
        src = Optic(A, graph(f), h)
        tgt = Optic(A, graph(f), (e @ Id(B)) >> h)
        with pytest.raises(TwoCellError) as info:
            mk_two_cell(src, tgt, Id(A), interp)
        assert info.value.side == "backward"
        assert info.value.counterexample == (0, 0)

    def test_rejection_without_interp_has_no_counterexample(self, rewired, f, h, A, interp):
        _, tgt = rewired
        plain = Optic(A, graph(f), h)
        with pytest.raises(TwoCellError) as info:
            mk_two_cell(plain, tgt, Id(A), None)
        assert info.value.counterexample is None
        assert "separating input" not in str(info.value)

    def test_normalizer_disagreement_is_a_bug_report(self, rewired, f, h, A, interp, monkeypatch):
        # a normalizer that accepts everything is caught by the exhaustive cross-check
        monkeypatch.setattr(twocell, "_rejected_side", lambda *args: None)
        _, tgt = rewired
        with pytest.raises(NormalizerDisagreement, match=r"forward square: .* input \(0,\) separates"):
            mk_two_cell(Optic(A, graph(f), h), tgt, Id(A), interp)

    def test_witness_boundary_mismatch(self, rewired, f, interp):
        src, tgt = rewired
        with pytest.raises(TermTypeError, match="witness boundary"):
            mk_two_cell(src, tgt, f, interp)

    def test_endpoint_boundary_mismatch(self, rewired, A, interp):
        src, _ = rewired
        other = optic_id((A, A))  # cod pair (A, A), not (B, B)
        with pytest.raises(TermTypeError, match="different boundaries"):
            mk_two_cell(src, other, Delete(A), interp)

    def test_identity_cell(self, rewired, A, interp):
        src, _ = rewired
        cell = identity_cell(src, interp)
        assert cell.witness == Id(A)


class TestPasting:
    def test_vertical_composition(self, sig, interp):
        rng = random.Random(81)
        for _ in range(15):
            c1, c2 = random_cell_chain(rng, sig, interp, length=2)
            c = vcompose(c1, c2, interp)
            assert c.src == c1.src and c.tgt == c2.tgt
            assert normal_eq(c.witness, c1.witness >> c2.witness)

    def test_vertical_needs_shared_representative(self, sig, interp):
        rng = random.Random(82)
        c1 = random_valid_cell(rng, sig, interp)
        c2 = random_valid_cell(rng, sig, interp, dom_pair=c1.src.dom_pair)
        if c1.tgt != c2.src:
            with pytest.raises(TermTypeError, match="same representative"):
                vcompose(c1, c2, interp)

    def test_horizontal_composition(self, sig, interp):
        rng = random.Random(83)
        for _ in range(15):
            c1, c2 = random_composable_cells(rng, sig, interp)
            c = hcompose(c1, c2, interp)
            assert c.src == optic_compose(c1.src, c2.src)
            assert c.tgt == optic_compose(c1.tgt, c2.tgt)
            assert normal_eq(c.witness, c1.witness @ c2.witness)

    def test_interchange_on_a_grid(self, sig, interp):
        # two vertical chains side by side: pasting columns-then-rows equals
        # rows-then-columns
        rng = random.Random(84)
        for _ in range(10):
            mid = (random_obj(rng, sig), random_obj(rng, sig))
            a1, a2 = random_cell_chain(rng, sig, interp, length=2, cod_pair=mid)
            b1, b2 = random_cell_chain(rng, sig, interp, length=2, dom_pair=mid)
            cols = hcompose(vcompose(a1, a2, interp), vcompose(b1, b2, interp), interp)
            rows = vcompose(hcompose(a1, b1, interp), hcompose(a2, b2, interp), interp)
            assert cols.src == rows.src
            assert cols.tgt == rows.tgt
            assert normal_eq(cols.witness, rows.witness)


class TestComponents:
    def test_cells_merge_classes(self, f, h, A, interp):
        connected = [optic_id((A, A)), reify(lens_id((A, A)))]
        lone = Optic(A, graph(f), h)
        cell = mk_two_cell(connected[1], connected[0], Delete(A), interp)
        sample = HomCatSample((*connected, lone), (cell,), ((1, 0, 1),))
        assert pi0_classes(sample) == [[0, 1], [2]]
        assert pi0_classes(search_cells([*connected, lone], interp)) == [[0, 1], [2]]
        # a cell without its edge would join nothing
        with pytest.raises(ValueError, match="each cell needs its edge"):
            HomCatSample((*connected, lone), (cell,))

    def test_structurally_equal_optics_are_identified(self, f, h, A):
        o = Optic(A, graph(f), h)
        sample = search_cells([o, Optic(A, graph(f), h)])
        assert pi0_classes(sample) == [[0, 1]]
        # the identity witness, both ways
        assert sample.edges == ((0, 1, 1), (1, 0, 1))
        assert all(normal_eq(c.witness, Id(A)) for c in sample.cells)

    def test_one_optic_listed_twice_has_its_own_indices(self, f, h, A):
        o = Optic(A, graph(f), h)
        sample = search_cells([o, o])
        assert sample.edges == ((0, 1, 1), (1, 0, 1))
        assert pi0_classes(sample) == [[0, 1]]


class TestDeepComponents:
    def test_1500_stage_composed_optic(self):
        # the dataclass hash and == of such an optic recurse once per term level
        chain = build_chain(1500, "finite", seed=3)
        optics = [compose_optic_chain([reify(l) for l in chain.lenses]) for _ in range(2)]
        start = time.perf_counter()
        assert pi0_classes(search_cells(optics[:1])) == [[0]]
        assert pi0_classes(search_cells(optics)) == [[0, 1]]
        assert time.perf_counter() - start < 5.0


    @pytest.mark.parametrize("n", [20, 1500])
    def test_identity_cell_of_a_long_chain_under_an_interpretation(self, n):
        # the backward square's 2**(n+1) inputs are over the cap: the normal forms decide it alone
        chain = build_chain(n, "finite", seed=0)
        o = compose_optic_chain([reify(l) for l in chain.lenses])
        assert identity_cell(o, Interp.from_signature(chain.signature)).witness == Id(o.residual)

    def test_a_wrong_witness_over_the_cap_has_no_counterexample(self):
        chain = build_chain(20, "finite", seed=0)
        optics = [reify(l) for l in chain.lenses]
        last = optics[-1]
        other = Optic(last.residual, last.forward, Proj1(last.residual, last.cod_pair[1]))
        src, tgt = compose_optic_chain(optics), compose_optic_chain([*optics[:-1], other])
        with pytest.raises(TwoCellError) as info:
            mk_two_cell(src, tgt, Id(src.residual), Interp.from_signature(chain.signature))
        assert info.value.side == "backward" and info.value.counterexample is None

    def test_1000_stage_packagings_are_decided(self):
        # four packagings of one chain; the bounded search needed depth 4 at 5 stages
        chain = build_chain(1000, "finite", seed=0)
        lenses = list(chain.lenses)
        halves = [reify(compose_chain(lenses[:500])), reify(compose_chain(lenses[500:]))]
        family = [
            reify(compose_chain(lenses)),
            reify(compose_chain(lenses, "right")),
            compose_optic_chain([reify(l) for l in lenses]),
            compose_optic_chain(halves),
        ]
        sample = search_cells(family)
        # cells run from recompute to store, and the optic chain has none going out
        assert sample.edges == ((0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 0, 1), (1, 2, 1), (1, 3, 1), (3, 2, 1))
        assert pi0_classes(sample) == [[0, 1, 2, 3]]

    def test_a_witness_sharing_its_rows_is_checked_row_by_row(self):
        # t applies m to two copies of the previous stage 40 times: 40 rows, 2**40 paths
        a = Sort("A", FiniteCarrier(2))
        A = Obj((a,))
        sig = Signature((a,), (Generator("m", A @ A, A, table=((0,), (1,), (1,), (0,))),))
        t = Id(A)
        for _ in range(40):
            t = t >> Copy(A) >> Gen(sig.generator("m"))
        holds_input = Optic(A, Copy(A) >> (Id(A) @ t), Proj2(A, A))
        holds_output = Optic(A, Copy(A) >> (t @ t), Proj2(A, A))
        start = time.perf_counter()
        sample = search_cells([holds_input, holds_output], Interp.from_signature(sig))
        found = search_cells([holds_input, holds_output]).cells
        assert time.perf_counter() - start < 5.0
        # the witness recomputes t; nothing gets the input back from t
        assert [(c.src, c.tgt) for c in sample.cells] == [(holds_input, holds_output)]
        assert sample.edges == ((0, 1, 1),) and len(found) == 1


@pytest.fixture(scope="module")
def mono_sig():
    a = Sort("A", FiniteCarrier(2))
    obj = Obj((a,))
    return Signature((a,), (Generator("u", obj, obj, table=((1,), (0,))),))


class TestEnumeration:
    def test_endo_count_is_depth_bounded(self, mono_sig):
        obj = mono_sig.obj("A")
        assert len(list(enumerate_morphisms(mono_sig, obj, obj, 0))) == 1
        assert len(list(enumerate_morphisms(mono_sig, obj, obj, 2))) == 3
        assert len(list(enumerate_morphisms(mono_sig, obj, obj, 3))) == 4

    def test_pair_count_is_product(self, mono_sig):
        obj = mono_sig.obj("A")
        assert len(list(enumerate_morphisms(mono_sig, obj, obj @ obj, 1))) == 4

    def test_representatives_are_distinct(self, sig, k, A):
        forms = [normalize(t) for t in enumerate_morphisms(sig, A, A, 2)]
        assert len(set(forms)) == len(forms)
        # each output of the two-output k is a candidate of its own
        assert normalize(k >> Proj2(A, A)) in forms


def twin_residuals(A, reads_residual):
    """An optic holding its input twice, and one holding it once; one fibre of erase.

    The backward passes read the second copy and the one copy, or neither.
    """
    if reads_residual:
        back2, back1 = Proj2(A, A @ A) >> Proj1(A, A), Proj1(A, A)
    else:
        back2, back1 = Proj2(A @ A, A), Proj2(A, A)
    return Optic(A @ A, Copy(A) >> (Copy(A) @ Id(A)), back2), Optic(A, Copy(A), back1)


class TestWitnessSearch:
    def test_the_backward_square_binds_what_it_reads(self, A, interp):
        src, tgt = twin_residuals(A, reads_residual=True)
        sample = search_cells([src, tgt], interp)
        assert sample.edges == ((0, 1, 1), (1, 0, 1))
        assert normal_eq(sample.cells[0].witness, Proj2(A, A))
        assert normal_eq(sample.cells[1].witness, Copy(A))

    def test_wires_read_by_nothing_count_every_forward_solution(self, A, interp):
        src, tgt = twin_residuals(A, reads_residual=False)
        sample = search_cells([src, tgt], interp)
        assert sample.edges == ((0, 1, 2), (1, 0, 1))
        # the first witness takes the lowest residual wire
        assert normal_eq(sample.cells[0].witness, Proj1(A, A))
        assert search_cells([src, tgt], interp).cells[0].witness == sample.cells[0].witness

    def test_counit_witness_is_found(self, f, h, A, interp):
        o = Optic(A, graph(f), h)
        hub = reify(erase(o))
        found = [c for c in search_cells([hub, o], interp).cells if c.src is hub]
        assert len(found) == 1
        assert normal_eq(found[0].witness, Id(A))

    def test_search_connects_hub_and_optic(self, f, h, A, interp):
        o = Optic(A, graph(f), h)
        sample = search_cells([o, reify(erase(o))], interp)
        assert len(sample.cells) >= 2  # both directions
        assert pi0_classes(sample) == [[0, 1]]


def demo_family(table):
    """The optics A -> A of demos/05 over an endo-generator f with the given table."""
    a = Sort("A", FiniteCarrier(2))
    A = Obj((a,))
    sig = Signature((a,), (Generator("f", A, A, table=table),))
    unary = [Id(A), Gen(sig.generator("f"))]
    family = [Optic(UNIT, fw, bw) for fw in unary for bw in unary]
    family += [
        Optic(A, Copy(A) >> (u @ v), p >> w)
        for u in unary
        for v in unary
        for p in (Proj1(A, A), Proj2(A, A))
        for w in unary
    ]
    return sig, family, Interp.from_signature(sig)


DEMO_TABLES = (((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,)))


def window_packagings(lenses):
    """The four ways to package three chain stages as one optic."""
    l1, l2, l3 = lenses
    return [
        reify(compose_chain([l1, l2, l3])),
        compose_optic_chain([reify(compose_chain([l1, l2])), reify(l3)]),
        compose_optic_chain([reify(l1), reify(compose_chain([l2, l3]))]),
        compose_optic_chain([reify(l1), reify(l2), reify(l3)]),
    ]


def reference_search(optics, sig, depth, interp):
    """The bounded oracle: every candidate of every ordered pair through mk_two_cell.

    Returns (source index, target index, cell) triples.
    """
    cells = []
    for i, j in itertools.permutations(range(len(optics)), 2):
        src, tgt = optics[i], optics[j]
        if src.dom_pair != tgt.dom_pair or src.cod_pair != tgt.cod_pair:
            continue
        for r in enumerate_morphisms(sig, src.residual, tgt.residual, depth):
            try:
                cells.append((i, j, mk_two_cell(src, tgt, r, interp)))
            except TwoCellError:
                pass
    return cells


ENUMERATION_CAP = 4096


def forward_solutions(src, tgt, cap=ENUMERATION_CAP):
    """Every witness closing the forward square, distinct up to normal form; None past cap.

    A solution for one of tgt's forward residual refs is a wire of src's
    residual on that ref, or a generator row over solutions for its
    arguments, enumerated as terms; the witnesses are their tuples.
    """
    table = UniqueTable(len(src.forward.dom))
    fw1 = run(src.forward, table.inputs, table.apply)
    fw2 = run(tgt.forward, table.inputs, table.apply)
    m1, k1, k2 = src.residual, len(src.residual), len(tgt.residual)
    if fw1[k1:] != fw2[k2:]:
        return []
    memo = {}

    def terms(ref):
        if ref not in memo:
            out = [select_wire(m1, q) for q in range(k1) if fw1[q] == ref]
            if not isinstance(ref, int):
                gen, args = table.rows[ref[0]]
                for parts in itertools.product(*map(terms, args)):
                    out.append(gen_wire(gen, ref[1], list(parts), m1))
                    if len(out) > cap:
                        break
            memo[ref] = out
        return memo[ref]

    wires = [terms(ref) for ref in fw2[:k2]]
    if any(len(w) > cap for w in wires) or math.prod(map(len, wires)) > cap:
        return None
    return [pairing(list(parts), m1) for parts in itertools.product(*wires)]


def enumerated_count(src, tgt):
    """Forward-square solutions that also close the backward square; None past the cap."""
    solutions = forward_solutions(src, tgt)
    if solutions is None:
        return None
    table = UniqueTable(len(src.backward.dom))
    k = len(src.residual)
    want = run(src.backward, table.inputs, table.apply)

    def closes(r):
        ms = run(r, table.inputs[:k], table.apply)
        return run(tgt.backward, ms + table.inputs[k:], table.apply) == want

    return sum(map(closes, solutions))


def fibre(o):
    l = erase(o)
    return o.dom_pair, o.cod_pair, normalize(l.get), normalize(l.put)


def generator_depth(t):
    """The deepest nesting of generators in the canonical form of t."""
    cf = normalize(t)
    depth = []
    for _, args in cf.nodes:
        depth.append(1 + max((depth[a[0]] for a in args if not isinstance(a, int)), default=0))
    return max((depth[r[0]] for r in cf.outputs if not isinstance(r, int)), default=0)


def assert_search_matches_reference(optics, sig, depth, interp):
    """The exact search against the bounded oracle and an enumeration of both squares."""
    sample = search_cells(optics, interp)
    decided = {(i, j): (n, c.witness) for c, (i, j, n) in zip(sample.cells, sample.edges)}
    assert len(decided) == len(sample.cells) == len(sample.edges)
    oracle: dict = {}
    for i, j, c in reference_search(optics, sig, depth, interp):
        oracle.setdefault((i, j), []).append(c.witness)
    for (i, j), witnesses in oracle.items():
        # the oracle finds no cell between different fibres of erase
        assert fibre(optics[i]) == fibre(optics[j])
        # every oracle cell is among the decided ones, and the first is the same
        count, first = decided[i, j]
        assert len(witnesses) <= count
        assert normal_eq(witnesses[0], first)
    for (i, j), (count, witness) in decided.items():
        assert count >= 1
        # the witness is the canonical form the search checked, and it validates as given
        assert isinstance(witness, CanonicalForm) and normalize(witness) == witness
        mk_two_cell(optics[i], optics[j], witness, interp)
        if generator_depth(witness) <= depth:
            assert (i, j) in oracle
    enumerated = 0
    for i, j in itertools.permutations(range(len(optics)), 2):
        src, tgt = optics[i], optics[j]
        if src.dom_pair != tgt.dom_pair or src.cod_pair != tgt.cod_pair:
            continue
        want = enumerated_count(src, tgt)
        if want is not None:
            enumerated += 1
            assert decided.get((i, j), (0, None))[0] == want, (i, j)
    return sample, enumerated


class TestSearchAgainstReference:
    @pytest.mark.parametrize("table", DEMO_TABLES)
    def test_demo_families_at_depth_3(self, table):
        sig, family, interp = demo_family(table)
        sample, enumerated = assert_search_matches_reference(family, sig, 3, interp)
        assert sample.cells and enumerated == len(family) * (len(family) - 1)

    @pytest.mark.parametrize("start", range(6))
    def test_chain_window_packagings(self, start):
        chain = build_chain(8, "finite")
        optics = window_packagings(chain.lenses[start : start + 3])
        interp = Interp.from_signature(chain.signature)
        sample, enumerated = assert_search_matches_reference(optics, chain.signature, 2, interp)
        assert pi0_classes(sample) == [[0, 1, 2, 3]] and enumerated == 12

    @settings(
        max_examples=25,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.randoms(use_true_random=False))
    def test_random_optic_families(self, rng):
        sig = random_signature(rng)
        interp = Interp.from_signature(sig)
        dom_pair = (random_obj(rng, sig, hi=1), random_obj(rng, sig, hi=1))
        cod_pair = (random_obj(rng, sig, hi=1), random_obj(rng, sig, hi=1))
        cell = random_valid_cell(rng, sig, interp, dom_pair, cod_pair)
        optics = [random_optic(rng, sig, dom_pair, cod_pair) for _ in range(2)]
        optics += [reify(erase(optics[0])), cell.src, cell.tgt]
        assert_search_matches_reference(optics, sig, 1, interp)


class TestSearchCrossChecks:
    def test_only_accepted_squares_are_cross_checked(self, monkeypatch):
        # the cross-check runs once per square of each returned witness, and only there
        _, family, interp = demo_family(((1,), (0,)))
        checked = []

        def recording(dom, lhs, rhs, interp):
            checked.append((dom, lhs, rhs))
            return first_disagreement(dom, lhs, rhs, interp)

        monkeypatch.setattr(twocell, "first_disagreement", recording)
        sample = search_cells(family, interp)
        want = [(c, side) for c in sample.cells for side in ("forward", "backward")]
        assert sample.cells and len(checked) == len(want)
        for (dom, lhs, rhs), (c, side) in zip(checked, want):
            assert dom == (c.src.forward if side == "forward" else c.src.backward).dom
            # the checked sides are that square of that cell's witness, and they commute
            table = UniqueTable(len(dom))
            sides = twocell._square_sides(c.src, c.tgt, side, c.witness)
            want_refs = [run_side(table.inputs, table.apply) for run_side in sides]
            assert [run_side(table.inputs, table.apply) for run_side in (lhs, rhs)] == want_refs
            assert want_refs[0] == want_refs[1]

    def test_a_wrong_match_is_caught_by_the_squares(self, monkeypatch, A, interp):
        # a matcher that binds nothing takes the first forward solution, wire 0
        monkeypatch.setattr(twocell._Passes, "match", lambda self, i, j: {})
        with pytest.raises(AssertionError, match=r"matched witness fails the backward square"):
            search_cells(list(twin_residuals(A, reads_residual=True)), interp)

    def test_normalizer_disagreement_in_search(self, monkeypatch, A, interp):
        # an always-accepting normalizer must not let the search return a bogus cell
        monkeypatch.setattr(twocell._Passes, "match", lambda self, i, j: {})
        monkeypatch.setattr(twocell, "_rejected_side", lambda *args: None)
        with pytest.raises(NormalizerDisagreement, match=r"backward square: normalizer accepted but input"):
            search_cells(list(twin_residuals(A, reads_residual=True)), interp)


class TestSearchedWitnessesPaste:
    """A searched cell holds a canonical form; pasting reads it back to a term."""

    def test_vertical_composition(self):
        chain = build_chain(8, "finite")
        interp = Interp.from_signature(chain.signature)
        sample = search_cells(window_packagings(chain.lenses[:3]), interp)
        composable = [(c1, c2) for c1, c2 in itertools.product(sample.cells, repeat=2) if c1.tgt is c2.src]
        assert composable
        for c1, c2 in composable:
            c = vcompose(c1, c2, interp)
            assert normal_eq(c.witness, read_back(c1.witness) >> read_back(c2.witness))

    def test_horizontal_composition(self):
        chain = build_chain(8, "finite")
        interp = Interp.from_signature(chain.signature)
        left = search_cells(window_packagings(chain.lenses[:3]), interp).cells
        right = search_cells(window_packagings(chain.lenses[3:6]), interp).cells
        assert left and right
        for c1, c2 in itertools.product(left[:3], right[:3]):
            c = hcompose(c1, c2, interp)
            assert normal_eq(c.witness, read_back(c1.witness) @ read_back(c2.witness))


def normal_key(o):
    return o.residual, normalize(o.forward), normalize(o.backward)


def oracle_pi0_classes(sample):
    """The classes as found by identifying optics by their normal forms, then joining cells.

    Optics with equal residuals and canonical forms are merged first; each
    cell then joins its endpoints, found by object identity or else by that
    key.
    """
    classes = [{i} for i in range(len(sample.optics))]

    def join(i, j):
        a, b = (next(c for c in classes if x in c) for x in (i, j))
        if a is not b:
            a |= b
            classes.remove(b)

    seen = {}
    for i, o in enumerate(sample.optics):
        join(i, seen.setdefault(normal_key(o), i))
    by_id = {id(o): i for i, o in enumerate(sample.optics)}
    for c in sample.cells:
        join(*(by_id[id(o)] if id(o) in by_id else seen[normal_key(o)] for o in (c.src, c.tgt)))
    return sorted(sorted(c) for c in classes)


class TestClassesFromEdges:
    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.randoms(use_true_random=False))
    def test_normal_equal_optics_are_joined_by_the_search(self, rng):
        # random optics, copies with re-canonicalized passes, one object twice, a lens's hub
        sig = random_signature(rng)
        interp = Interp.from_signature(sig)
        dom_pair = (random_obj(rng, sig, hi=1), random_obj(rng, sig, hi=1))
        cod_pair = (random_obj(rng, sig, hi=1), random_obj(rng, sig, hi=1))
        optics = [random_optic(rng, sig, dom_pair, cod_pair) for _ in range(3)]
        family = optics + [Optic(o.residual, canon(o.forward), canon(o.backward)) for o in optics]
        family += [optics[0], reify(erase(optics[1]))]
        rng.shuffle(family)
        sample = search_cells(family, interp)
        witnesses = {(i, j): c.witness for c, (i, j, _) in zip(sample.cells, sample.edges)}
        for i, j in itertools.permutations(range(len(family)), 2):
            src, tgt = family[i], family[j]
            if normal_key(src) != normal_key(tgt):
                continue
            # the identity is a cell, so the search finds an edge each way
            m = src.residual
            mk_two_cell(src, tgt, Id(m), interp)
            assert (i, j) in witnesses
            # the first witness takes the lowest residual wire carrying each forward value
            refs = normalize(src.forward).outputs[: len(m)]
            if len(set(refs)) == len(refs):
                assert normal_eq(witnesses[i, j], Id(m))
        assert pi0_classes(sample) == oracle_pi0_classes(sample)


def built_copy(o):
    """The optic built from o's terms: its passes are terms where a composite's are chains."""
    return Optic(o.residual, o.forward, o.backward)


def assert_terms_unbuilt(optics):
    """No composite among optics has had its terms built: neither is stored on it."""
    composites = [o for o in optics if isinstance(o.passes[0], term.Blocks)]
    assert composites
    for o in composites:
        assert "forward" not in vars(o) and "backward" not in vars(o)


class TestCellsReadStoredPasses:
    """Deciding and checking cells runs a composite's stored chains and builds none of its terms."""

    @pytest.mark.parametrize("kind, n", [("finite", 8), ("real", 5)])
    def test_oplax_coherence(self, monkeypatch, kind, n):
        chain = build_chain(n, kind, seed=0)
        interp = Interp.from_signature(chain.signature)
        made = []

        def recording(optics):
            made.append(compose_optic_chain(optics))
            return made[-1]

        # every composite the laws make comes through `optic_compose`
        monkeypatch.setattr(optic_module, "compose_optic_chain", recording)
        for i in range(n - 2):
            report = check_oplax_coherence(*chain.lenses[i : i + 3], interp)
            assert report.passed, report.to_json()
        assert_terms_unbuilt(made)

    def test_search_and_cells_between_composites(self):
        chain = build_chain(8, "finite", seed=0)
        interp = Interp.from_signature(chain.signature)
        for start in range(6):
            searched = window_packagings(chain.lenses[start : start + 3])
            sample = search_cells(searched, interp)
            assert pi0_classes(sample) == [[0, 1, 2, 3]]
            assert_terms_unbuilt(searched)
            optics = window_packagings(chain.lenses[start : start + 3])
            for o in optics:
                identity_cell(o, interp)
                identity_cell(o)
            for c, (i, j, _) in zip(sample.cells, sample.edges):
                mk_two_cell(optics[i], optics[j], c.witness, interp)
                mk_two_cell(optics[i], optics[j], read_back(c.witness), interp)
            # the middle stage's input dropped: the forward square holds, the backward one fails
            m = optics[3].residual
            drop_middle = pairing([select_wire(m, 0), select_wire(m, 2)], m)
            with pytest.raises(TwoCellError, match="backward"):
                mk_two_cell(optics[3], optics[1], drop_middle, interp)
            assert_terms_unbuilt(optics)

    def test_optic_equality_and_normal_equality(self):
        chain = build_chain(8, "finite", seed=0)
        a, b, c = (compose_optic_chain([reify(l) for l in chain.lenses[i : i + 2]]) for i in (0, 2, 4))
        left, right = optic_compose(optic_compose(a, b), c), optic_compose(a, optic_compose(b, c))
        assert left == right and optic_normal_eq(left, right)
        twins = window_packagings(chain.lenses[:3]), window_packagings(chain.lenses[:3])
        assert all(optic_normal_eq(o, twin) for o, twin in zip(*twins))
        assert not optic_normal_eq(twins[0][3], twins[1][1])  # residuals differ
        assert_terms_unbuilt([a, b, c, left, right, *twins[0], *twins[1]])


def cell_outcome(src, tgt, witness, interp):
    """None if the cell validates, else the rejected side and its counterexample."""
    try:
        mk_two_cell(src, tgt, witness, interp)
    except TwoCellError as err:
        return err.side, err.counterexample
    return None


class TestCompositesAgainstBuiltCopies:
    """Searching and checking cells on a composite's chains gives what its built terms give."""

    def assert_same_search(self, optics, copies, interp):
        got, want = search_cells(optics, interp), search_cells(copies, interp)
        assert got.edges == want.edges and got.edges
        assert [c.witness for c in got.cells] == [c.witness for c in want.cells]

    @pytest.mark.parametrize("start", range(6))
    def test_window_packagings(self, start):
        chain = build_chain(8, "finite", seed=0)
        interp = Interp.from_signature(chain.signature)
        lenses = chain.lenses[start : start + 3]
        optics = window_packagings(lenses)
        copies = [built_copy(o) for o in window_packagings(lenses)]
        for i in (interp, None):
            self.assert_same_search(optics, copies, i)
        # every candidate of depth 1 between two packagings, right or wrong
        rejected = 0
        for i, j in itertools.permutations(range(4), 2):
            for r in enumerate_morphisms(chain.signature, optics[i].residual, optics[j].residual, 1):
                outcome = cell_outcome(optics[i], optics[j], r, interp)
                assert outcome == cell_outcome(copies[i], copies[j], r, interp)
                rejected += outcome is not None and outcome[1] is not None
        assert rejected

    def test_random_composites(self, sig, interp):
        # contextual stages and nested sub-chains, some built before they are composed
        rng = random.Random(91)
        rejected = 0
        for _ in range(20):
            pair = (random_obj(rng, sig, hi=1), random_obj(rng, sig, hi=1))
            parts = composed_parts(random_optic_chain(rng, sig, rng.randint(2, 3), pair), compose_optic_chain)
            o = compose_optic_chain(parts)
            optics = [o, compose_optic_chain([optic_compose(*parts[:2]), *parts[2:]]), reify(erase(o))]
            copies = [built_copy(x) for x in optics]
            self.assert_same_search(optics, copies, interp)
            for i, j in itertools.permutations(range(3), 2):
                for r in itertools.islice(enumerate_morphisms(sig, optics[i].residual, optics[j].residual, 0), 20):
                    outcome = cell_outcome(optics[i], optics[j], r, interp)
                    assert outcome == cell_outcome(copies[i], copies[j], r, interp)
                    rejected += outcome is not None
        assert rejected
