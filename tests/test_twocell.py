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
    enumerate_morphisms,
    erase,
    find_witnesses,
    graph,
    hcompose,
    identity_cell,
    lens_id,
    mk_two_cell,
    normal_eq,
    normalize,
    optic_compose,
    optic_id,
    pi0_classes,
    reify,
    search_cells,
    vcompose,
)
from cartoptics import compose_chain, compose_optic_chain, twocell
from cartoptics.cost import build_chain
from cartoptics.interp import first_disagreement
from cartoptics.normal import UniqueTable
from cartoptics.term import gen_wire, pairing, run, select_wire
from cartoptics.sampling import random_obj, random_optic, random_signature, random_valid_cell
from cartoptics.twocell import NormalizerDisagreement
from sampling_helpers import random_cell_chain, random_composable_cells


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
        monkeypatch.setattr(twocell.Squares, "commutes", lambda self, side, witness: True)
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
        sample = HomCatSample((*connected, lone), (cell,))
        assert pi0_classes(sample) == [[0, 1], [2]]

    def test_structurally_equal_optics_are_identified(self, f, h, A):
        o = Optic(A, graph(f), h)
        sample = HomCatSample((o, Optic(A, graph(f), h)))
        assert pi0_classes(sample) == [[0, 1]]

    def test_unsampled_endpoint_is_an_error(self, rewired, e, A, interp):
        src, tgt = rewired
        cell = mk_two_cell(src, tgt, e, interp)
        with pytest.raises(ValueError, match="not among"):
            pi0_classes(HomCatSample((src,), (cell,)))


class TestDeepComponents:
    def test_1500_stage_composed_optic(self):
        # the dataclass hash and == of such an optic recurse once per term level
        chain = build_chain(1500, "finite", seed=3)
        optics = [compose_optic_chain([reify(l) for l in chain.lenses]) for _ in range(2)]
        start = time.perf_counter()
        assert pi0_classes(HomCatSample(optics[:1])) == [[0]]
        assert pi0_classes(HomCatSample(tuple(optics))) == [[0, 1]]
        assert time.perf_counter() - start < 5.0


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
        sample = search_cells(family, chain.signature, 2)
        index = {id(o): i for i, o in enumerate(family)}
        edges = [(index[id(c.src)], index[id(c.tgt)], n) for c, n in zip(sample.cells, sample.counts)]
        # cells run from recompute to store, and the optic chain has none going out
        assert edges == [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 0, 1), (1, 2, 1), (1, 3, 1), (3, 2, 1)]
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
        sample = search_cells([holds_input, holds_output], sig, 2, Interp.from_signature(sig))
        found = find_witnesses(holds_input, holds_output, sig, 2)
        assert time.perf_counter() - start < 5.0
        # the witness recomputes t; nothing gets the input back from t
        assert [(c.src, c.tgt) for c in sample.cells] == [(holds_input, holds_output)]
        assert sample.counts == (1,) and len(found) == 1


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
    def test_the_backward_square_binds_what_it_reads(self, sig, A, interp):
        src, tgt = twin_residuals(A, reads_residual=True)
        sample = search_cells([src, tgt], sig, 0, interp)
        assert sample.counts == (1, 1)
        assert normal_eq(sample.cells[0].witness, Proj2(A, A))
        assert normal_eq(sample.cells[1].witness, Copy(A))

    def test_wires_read_by_nothing_count_every_forward_solution(self, sig, A, interp):
        src, tgt = twin_residuals(A, reads_residual=False)
        sample = search_cells([src, tgt], sig, 0, interp)
        assert sample.counts == (2, 1)
        # the first witness takes the lowest residual wire
        assert normal_eq(sample.cells[0].witness, Proj1(A, A))
        assert find_witnesses(src, tgt, sig, 0, interp)[0].witness == sample.cells[0].witness

    def test_depth_is_validated_and_bounds_nothing(self, sig, A, interp):
        o = Optic(A, Copy(A) >> (Id(A) @ Gen(sig.generator("e"))), Proj1(A, A))
        hub = reify(erase(o))
        for depth in (-1, 1.5, True):
            with pytest.raises(ValueError, match="search depth"):
                search_cells([o, hub], sig, depth, interp)
        assert search_cells([o, hub], sig, 0, interp).counts == (1, 1)

    def test_counit_witness_is_found(self, sig, f, h, A, interp):
        o = Optic(A, graph(f), h)
        hub = reify(erase(o))
        found = find_witnesses(hub, o, sig, depth=2, interp=interp)
        assert len(found) == 1
        assert normal_eq(found[0].witness, Id(A))

    def test_search_connects_hub_and_optic(self, sig, f, h, A, interp):
        o = Optic(A, graph(f), h)
        sample = search_cells([o, reify(erase(o))], sig, depth=2, interp=interp)
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
    """The bounded oracle: every candidate of every ordered pair through mk_two_cell."""
    cells = []
    for src, tgt in itertools.permutations(optics, 2):
        if src.dom_pair != tgt.dom_pair or src.cod_pair != tgt.cod_pair:
            continue
        for r in enumerate_morphisms(sig, src.residual, tgt.residual, depth):
            try:
                cells.append(mk_two_cell(src, tgt, r, interp))
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
    fw1 = run(src.forward, table.inputs, table.apply)[0]
    fw2 = run(tgt.forward, table.inputs, table.apply)[0]
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
    squares = twocell.Squares(src, tgt)
    return sum(squares.commutes("backward", r) for r in solutions)


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
    sample = search_cells(optics, sig, depth, interp)
    index = {id(o): i for i, o in enumerate(optics)}
    decided = {
        (index[id(c.src)], index[id(c.tgt)]): (n, c.witness)
        for c, n in zip(sample.cells, sample.counts)
    }
    assert len(decided) == len(sample.cells) == len(sample.counts)
    oracle: dict = {}
    for c in reference_search(optics, sig, depth, interp):
        oracle.setdefault((index[id(c.src)], index[id(c.tgt)]), []).append(c.witness)
    for (i, j), witnesses in oracle.items():
        # the oracle finds no cell between different fibres of erase
        assert fibre(optics[i]) == fibre(optics[j])
        # every oracle cell is among the decided ones, and the first is the same
        count, first = decided[i, j]
        assert len(witnesses) <= count
        assert normal_eq(witnesses[0], first)
    for (i, j), (count, witness) in decided.items():
        assert count >= 1
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
        sig, family, interp = demo_family(((1,), (0,)))
        checked = []

        def recording(dom, lhs, rhs, interp):
            checked.append((dom, lhs, rhs))
            return first_disagreement(dom, lhs, rhs, interp)

        monkeypatch.setattr(twocell, "first_disagreement", recording)
        sample = search_cells(family, sig, 3, interp)
        want = [(c, side) for c in sample.cells for side in ("forward", "backward")]
        assert sample.cells and len(checked) == len(want)
        for (dom, lhs, rhs), (c, side) in zip(checked, want):
            assert dom == (c.src.forward if side == "forward" else c.src.backward).dom
            # the checked sides are that square of that cell's witness, and they commute
            table = UniqueTable(len(dom))
            sides = twocell.Squares(c.src, c.tgt).sides(side, c.witness)
            want_refs = [run_side(table.inputs, table.apply) for run_side in sides]
            assert [run_side(table.inputs, table.apply) for run_side in (lhs, rhs)] == want_refs
            assert want_refs[0] == want_refs[1]

    def test_a_wrong_match_is_caught_by_the_squares(self, monkeypatch, sig, A, interp):
        # a matcher that binds nothing takes the first forward solution, wire 0
        monkeypatch.setattr(twocell._Passes, "match", lambda self, i, j: {})
        with pytest.raises(AssertionError, match=r"matched witness fails the backward square"):
            search_cells(list(twin_residuals(A, reads_residual=True)), sig, 0, interp)

    def test_normalizer_disagreement_in_search(self, monkeypatch, sig, A, interp):
        # an always-accepting normalizer must not let the search return a bogus cell
        monkeypatch.setattr(twocell._Passes, "match", lambda self, i, j: {})
        monkeypatch.setattr(twocell.Squares, "commutes", lambda self, side, witness: True)
        with pytest.raises(NormalizerDisagreement, match=r"backward square: normalizer accepted but input"):
            search_cells(list(twin_residuals(A, reads_residual=True)), sig, 0, interp)
