"""Optics: strict composition of representatives, residual costs, run modes."""

import random
import time
from functools import reduce

import pytest

from cartoptics import (
    UNIT,
    Copy,
    Id,
    Interp,
    Optic,
    Proj1,
    Proj2,
    Swap,
    Ten,
    TermTypeError,
    build_chain,
    chain_input,
    compose_chain,
    compose_optic_chain,
    erase,
    evaluate,
    lens_compose,
    lens_normal_eq,
    optic_compose,
    optic_exec,
    optic_id,
    optic_normal_eq,
    reify,
    round_trip_term,
    graph,
    identity_cell,
    vcompose,
)
from cartoptics.optic import _chain, _stages
from cartoptics.sampling import random_obj, random_optic
from sampling_helpers import loop_term, random_values, stage_by_stage


def response_term(optic):
    """A x B' -> B x A': the optic with the environment's response as an input."""
    m = optic.residual
    b_obj, b_back = optic.cod_pair
    return (
        Ten(optic.forward, Id(b_back))
        >> Ten(Swap(m, b_obj), Id(b_back))
        >> Ten(Id(b_obj), optic.backward)
    )


def _composable_pair(rng, sig, identity_env=False):
    o1 = random_optic(rng, sig)
    cod = None
    if identity_env:
        c = random_obj(rng, sig)
        cod = (c, c)
    o2 = random_optic(rng, sig, dom_pair=o1.cod_pair, cod_pair=cod)
    return o1, o2


class TestConstruction:
    def test_boundary_inference(self, f, h, A, B):
        o = Optic(A, graph(f), h)
        assert o.residual == A
        assert o.dom_pair == (A, A)
        assert o.cod_pair == (B, B)

    def test_forward_must_emit_residual(self, f, h, A, B):
        with pytest.raises(TermTypeError) as err:
            Optic(B, graph(f), h)
        assert str(err.value) == "forward codomain A * B does not start with residual B"
        assert (err.value.expected, err.value.actual) == (B, A)

    def test_backward_must_consume_residual(self, f, g, A, B):
        with pytest.raises(TermTypeError) as err:
            Optic(A, graph(f), g)
        assert str(err.value) == "backward domain B does not start with residual A"
        assert (err.value.expected, err.value.actual) == (A, B)

    def test_identity_padding_is_normalized_away(self, f, h, A, B):
        plain = Optic(A, graph(f), h)
        padded = Optic(A, Id(A) >> graph(f), (Id(A @ B) >> h) >> Id(A))
        assert padded == plain

    def test_flat_passes_are_kept(self, f, g, h, A, B):
        # left-nested chains with no identity stage, single stages, lone identities
        fw = Copy(A) >> Ten(Id(A), f) >> Ten(Id(A), g >> f)
        bw = Ten(Id(A), g >> f) >> Ten(Id(A), g) >> Swap(A, A) >> Ten(f, Id(A)) >> Proj2(B, A)
        for m, fw, bw in ((A, fw, bw), (A, graph(f), h), (A, fw, h), (UNIT, Id(A), Id(A))):
            o = Optic(m, fw, bw)
            assert o.forward is fw and o.backward is bw

    def test_nested_or_padded_passes_are_rebuilt(self, f, g, h, A, B):
        s1, s2, s3 = Copy(A), Ten(Id(A), f), Ten(Id(A), g >> f)
        flat = s1 >> s2 >> s3
        for fw in (
            s1 >> (s2 >> s3),  # right-nested
            (s1 >> Id(A @ A)) >> s2 >> s3,  # an identity stage inside
            Id(A) >> flat,  # an identity stage first
            flat >> Id(A @ B),  # an identity stage last
            Id(A) >> s1 >> (s2 >> (Id(A @ B) >> s3)),
        ):
            o = Optic(A, fw, h)
            assert o.forward is not fw
            assert o.forward == _chain(_stages(fw), fw.dom) == flat
        # a pass with no stages left is the identity on its domain
        assert Optic(UNIT, Id(A) >> Id(A), Id(A)).forward == Id(A)

    def test_composed_chains_equal_rebuilt_ones(self, sig):
        rng = random.Random(75)
        for _ in range(40):
            pair = (random_obj(rng, sig), random_obj(rng, sig))
            chain = []
            for _ in range(rng.randint(1, 5)):
                o = optic_id(pair) if rng.random() < 0.2 else random_optic(rng, sig, pair)
                chain.append(o)
                pair = o.cod_pair
            o = compose_optic_chain(chain)
            fw, bw = (_chain(_stages(t), t.dom) for t in (o.forward, o.backward))
            assert (o.forward, o.backward) == (fw, bw)
            assert Optic(o.residual, fw, bw) == o


class TestStrictCategoryLaws:
    def test_unit_laws_on_the_nose(self, sig):
        rng = random.Random(71)
        for _ in range(40):
            o = random_optic(rng, sig)
            assert optic_compose(optic_id(o.dom_pair), o) == o
            assert optic_compose(o, optic_id(o.cod_pair)) == o

    def test_associativity_on_the_nose(self, sig):
        rng = random.Random(72)
        for _ in range(40):
            o1, o2 = _composable_pair(rng, sig)
            o3 = random_optic(rng, sig, dom_pair=o2.cod_pair)
            assert optic_compose(optic_compose(o1, o2), o3) == optic_compose(
                o1, optic_compose(o2, o3)
            )

    def test_residuals_concatenate(self, sig):
        rng = random.Random(73)
        for _ in range(20):
            o1, o2 = _composable_pair(rng, sig)
            assert optic_compose(o1, o2).residual == o1.residual @ o2.residual

    def test_boundary_mismatch(self, f, h, A):
        o = Optic(A, graph(f), h)
        with pytest.raises(TermTypeError, match="do not match"):
            optic_compose(o, o)

    def test_chain_fold(self, sig):
        """One-pass composition equals both folds, identity optics included."""
        rng = random.Random(74)
        for _ in range(40):
            pair = (random_obj(rng, sig), random_obj(rng, sig))
            chain = []
            for _ in range(rng.randint(1, 4)):
                o = optic_id(pair) if rng.random() < 0.3 else random_optic(rng, sig, pair)
                chain.append(o)
                pair = o.cod_pair
            left = reduce(optic_compose, chain)
            right = reduce(lambda acc, o: optic_compose(o, acc), reversed(chain))
            assert compose_optic_chain(chain) == left == right
            for o in chain:
                assert compose_optic_chain([o]) == o
        with pytest.raises(ValueError, match="empty"):
            compose_optic_chain([])


class TestDeepChains:
    def test_1500_stage_chain_composes(self):
        start = time.perf_counter()
        chain = build_chain(1500, "finite", seed=3)
        lens = compose_chain(chain.lenses)
        optic = compose_optic_chain([reify(l) for l in chain.lenses])
        assert time.perf_counter() - start < 5.0
        assert len(optic.residual) == 1500
        assert (optic.dom_pair, optic.cod_pair) == (lens.dom_pair, lens.cod_pair)
        interp = Interp.from_signature(chain.signature)
        a = chain_input(chain)
        b, a_prime, _ = optic_exec(optic, a, interp)
        assert (b, a_prime) == stage_by_stage(chain, interp, a, 1500)

    def test_separate_builds_are_one_representative(self):
        chain = build_chain(1500, "finite", seed=3)
        o1, o2 = (compose_optic_chain([reify(l) for l in chain.lenses]) for _ in range(2))
        assert o1.forward is not o2.forward and o1.backward is not o2.backward
        assert o1 == o2
        assert hash(o1) == hash(o2)
        assert repr(o1).startswith("Optic(residual=Obj(sorts=(Sort(name='X0'")
        assert repr(o1.forward) == f"Seq({str(o1.forward)!r})"
        cell = vcompose(identity_cell(o1), identity_cell(o2))
        assert cell.src is o1 and cell.tgt is o2
        assert compose_chain(chain.lenses) == compose_chain(chain.lenses)


class TestCompositionSemantics:
    def test_erase_is_functorial_up_to_normalization(self, sig):
        rng = random.Random(75)
        for _ in range(30):
            o1, o2 = _composable_pair(rng, sig)
            assert lens_normal_eq(
                erase(optic_compose(o1, o2)), lens_compose(erase(o1), erase(o2))
            )

    def test_composite_runs_stages_in_order(self, sig, interp):
        rng = random.Random(76)
        for _ in range(30):
            o1, o2 = _composable_pair(rng, sig, identity_env=True)
            comp = optic_compose(o1, o2)
            a = random_values(rng, comp.forward.dom)
            n1, n2 = len(o1.residual), len(o2.residual)
            out1 = evaluate(o1.forward, a, interp)
            m1, b = out1[:n1], out1[n1:]
            out2 = evaluate(o2.forward, b, interp)
            m2, c = out2[:n2], out2[n2:]
            b_back = evaluate(o2.backward, m2 + c, interp)
            want_a = evaluate(o1.backward, m1 + b_back, interp)
            got_c, got_a, _ = optic_exec(comp, a, interp)
            assert (got_c, got_a) == (c, want_a)


class TestExecution:
    def test_hand_run(self, f, h, interp):
        o = Optic(f.dom, graph(f), h)
        b, a_prime, report = optic_exec(o, (1,), interp)
        assert b == (2,)
        assert a_prime == (1,)  # h(1, 2)
        assert report.generator_counts == {"f": 1, "h": 1}
        assert report.peak_residual_slots == 1

    def test_const_env(self, f, h, interp):
        o = Optic(f.dom, graph(f), h)
        b, a_prime, _ = optic_exec(o, (0,), interp, env=lambda _b: (0,))
        assert (b, a_prime) == ((1,), (0,))

    def test_reified_chain_counts(self):
        chain = build_chain(3, "finite", seed=1)
        interp = Interp.from_signature(chain.signature)
        optic = compose_optic_chain([reify(l) for l in chain.lenses])
        _, _, report = optic_exec(optic, chain_input(chain), interp)
        assert report.total_evals(chain.get_names) == 3  # each stage runs once
        assert report.total_evals(chain.put_names) == 3
        assert report.copies == 3
        assert report.peak_residual_slots == 3  # every intermediate is held
        assert report.peak_residual_bytes == 3

    def test_normal_eq_respects_residual(self, f, h, A):
        o = Optic(A, graph(f), h)
        assert optic_normal_eq(o, o)
        assert not optic_normal_eq(o, optic_id((A, A)))


class TestDerivedTerms:
    def test_boundaries(self, f, h, A, B):
        o = Optic(A, graph(f), h)
        assert loop_term(o).dom == A and loop_term(o).cod == A
        rt = round_trip_term(o)
        assert rt.dom == A and rt.cod == B @ A
        resp = response_term(o)
        assert resp.dom == A @ B and resp.cod == B @ A

    def test_loop_needs_matching_boundary(self, f, A):
        # cod_pair is (B, A), so the identity environment is ill-typed
        o = Optic(A, graph(f), Proj1(A, A))
        with pytest.raises(TermTypeError, match="matching boundary"):
            loop_term(o)
        with pytest.raises(TermTypeError, match="matching boundary"):
            round_trip_term(o)

    def test_round_trip_matches_exec(self, sig, interp):
        rng = random.Random(77)
        for _ in range(30):
            c = random_obj(rng, sig)
            o = random_optic(rng, sig, cod_pair=(c, c))
            a = random_values(rng, o.forward.dom)
            b, a_prime, _ = optic_exec(o, a, interp)
            assert evaluate(round_trip_term(o), a, interp) == b + a_prime

    def test_response_term_matches_const_env(self, sig, interp):
        rng = random.Random(78)
        for _ in range(30):
            o = random_optic(rng, sig)
            _, b_back = o.cod_pair
            a = random_values(rng, o.forward.dom)
            resp = random_values(rng, b_back)
            b, a_prime, _ = optic_exec(o, a, interp, env=lambda _b: resp)
            assert evaluate(response_term(o), a + resp, interp) == b + a_prime
