"""Optics: strict composition of representatives, residual costs, run modes."""

import copy
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import time
from collections import Counter
from functools import reduce
from pathlib import Path

import pytest

import cartoptics
from cartoptics import (
    UNIT,
    CostReport,
    Copy,
    Id,
    Interp,
    Optic,
    Proj1,
    Proj2,
    Seq,
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
    normal_eq,
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
from cartoptics.sampling import canon, random_obj, random_optic
from sampling_helpers import _eager_chain as _chain, _eager_stages as _stages
from sampling_helpers import composed_parts, eager_compose, loop_term, random_optic_chain, random_values, stage_by_stage


def response_term(optic):
    """A x B' -> B x A': the optic with the environment's response as an input."""
    m = optic.residual
    b_obj, b_back = optic.cod_pair
    return (
        Ten(optic.forward, Id(b_back))
        >> Ten(Swap(m, b_obj), Id(b_back))
        >> Ten(Id(b_obj), optic.backward)
    )


def assert_checked_boundaries(t):
    """Each Seq and Ten node of t has the boundary its checked constructor gives its two children."""
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, (Seq, Ten)):
            checked = type(t)(t.left, t.right)
            assert (t.dom, t.cod) == (checked.dom, checked.cod), t
            todo += (t.left, t.right)


def nested(t):
    """The stages of t right-nested and ending in an identity stage: a pass `Optic` must rebuild."""
    out = Id(t.cod)
    for s in reversed(_stages(t)):
        out = s >> out
    return out


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
            for unit in (optic_compose(optic_id(o.dom_pair), o), optic_compose(o, optic_id(o.cod_pair))):
                # the built terms as well: they cover `chain_term`, which `==` may not reach
                assert unit == o and (unit.forward, unit.backward) == (o.forward, o.backward)

    def test_associativity_on_the_nose(self, sig):
        rng = random.Random(72)
        for _ in range(40):
            o1, o2 = _composable_pair(rng, sig)
            o3 = random_optic(rng, sig, dom_pair=o2.cod_pair)
            left, right = optic_compose(optic_compose(o1, o2), o3), optic_compose(o1, optic_compose(o2, o3))
            # equal blocks decide `==` alone, so the built terms are compared too
            assert left == right and (left.forward, left.backward) == (right.forward, right.backward)

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


# Composes the 5000 reified stages of a finite chain and runs the composite,
# counting every Seq and Ten node made meanwhile; prints what it saw as JSON.
# Its peak RSS is VmHWM, its own address space's: ru_maxrss keeps the peak of
# the process it was forked from across the exec.
LINEAR_SPACE_CHILD = """
import collections, json, resource, time
from cartoptics import Interp, build_chain, chain_input, compose_optic_chain, optic_exec, reify
from cartoptics.term import Seq, Ten
from sampling_helpers import stage_by_stage

chain = build_chain(5000, "finite", seed=3)
optics = [reify(l) for l in chain.lenses]
interp = Interp.from_signature(chain.signature)
a = chain_input(chain)
built = collections.Counter()
for kind in (Seq, Ten):
    kind.__new__ = lambda cls, *args, **kwargs: built.update([cls.__name__]) or object.__new__(cls)
start = time.perf_counter()
b, a_prime, report = optic_exec(compose_optic_chain(optics), a, interp)
seconds = time.perf_counter() - start


def peak_rss_kb():
    try:
        with open("/proc/self/status") as f:
            return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


print(json.dumps({
    "built": dict(built),
    "seconds": seconds,
    "max_rss_mb": peak_rss_kb() / 1024,
    "same_as_stage_by_stage": (b, a_prime) == stage_by_stage(chain, interp, a, 5000),
    "get_evals": report.total_evals(chain.get_names),
}))
"""


# Times a warm `optic_exec` of the composites of 1000 and of 8000 reified
# stages, the fastest of 7 runs each, and prints the seconds as JSON.
LINEAR_TIME_CHILD = """
import json, time
from cartoptics import Interp, build_chain, chain_input, compose_optic_chain, optic_exec, reify

seconds = {}
for n in (1000, 8000):
    chain = build_chain(n, "finite", seed=3)
    optic = compose_optic_chain([reify(l) for l in chain.lenses])
    interp = Interp.from_signature(chain.signature)
    a = chain_input(chain)
    optic_exec(optic, a, interp)
    runs = []
    for _ in range(7):
        start = time.perf_counter()
        optic_exec(optic, a, interp)
        runs.append(time.perf_counter() - start)
    seconds[n] = min(runs)
print(json.dumps(seconds))
"""


# Hashes two separately built composites of 1500 reified stages and compares
# one with itself and with the other, counting every Seq and Ten node made
# meanwhile: equal blocks decide `==` without building either.
HASH_CHILD = """
import collections, json
from cartoptics import build_chain, compose_optic_chain, reify
from cartoptics.term import Seq, Ten

chain = build_chain(1500, "finite", seed=3)
o1, o2 = (compose_optic_chain([reify(l) for l in chain.lenses]) for _ in range(2))
built = collections.Counter()
for kind in (Seq, Ten):
    kind.__new__ = lambda cls, *args, **kwargs: built.update([cls.__name__]) or object.__new__(cls)
print(json.dumps({
    "same_hash": hash(o1) == hash(o2), "self_equal": o1 == o1, "equal": o1 == o2, "built": dict(built)
}))
"""


def run_child(script: str) -> dict:
    """The JSON a script prints, run in a fresh interpreter with the package and the test helpers on its path."""
    src = Path(cartoptics.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    p = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout)


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

    def test_5000_stage_chain_composes_and_runs_in_linear_space(self):
        # a fresh interpreter, so the max RSS is this chain's alone
        got = run_child(LINEAR_SPACE_CHILD)
        assert got["same_as_stage_by_stage"] and got["get_evals"] == 5000
        assert got["built"] == {}  # composing and running build no Seq or Ten node
        assert got["max_rss_mb"] < 100
        assert got["seconds"] < 10.0

    def test_a_composite_runs_in_linear_time(self):
        # 8 times the stages: the ratio reads 10-12 (2 CPUs), while a quadratic walk that
        # sliced each block's context off and joined it back read 38-45
        got = run_child(LINEAR_TIME_CHILD)
        assert got["8000"] / got["1000"] < 20, got

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

    def test_hash_and_self_equality_build_no_term(self):
        # a fresh interpreter, so no node made elsewhere is counted
        assert run_child(HASH_CHILD) == {"same_hash": True, "self_equal": True, "equal": True, "built": {}}


class TestStagesAgainstEagerComposition:
    """A composite keeps blocks of stages; built, its passes are the eagerly wrapped terms."""

    def chains(self, sig, seed, count=60):
        """(rng, composite, the eager oracle's optic), with sub-chains composed each way."""
        rng = random.Random(seed)
        for _ in range(count):
            chain = random_optic_chain(rng, sig, rng.randint(1, 5))
            yield (
                rng,
                compose_optic_chain(composed_parts(chain, compose_optic_chain)),
                eager_compose(composed_parts(chain, eager_compose)),
            )

    def test_built_passes_are_the_eager_terms(self, sig):
        for _, o, want in self.chains(sig, 81):
            assert (o.residual, o.dom_pair, o.cod_pair) == (want.residual, want.dom_pair, want.cod_pair)
            assert (o.forward, o.backward) == (want.forward, want.backward)
            assert (str(o.forward), str(o.backward)) == (str(want.forward), str(want.backward))
            assert o.forward.dom == want.forward.dom and o.backward.cod == want.backward.cod

    def test_equality_hash_pickle_and_deepcopy_agree_with_the_eager_optic(self, sig):
        for _, o, want in self.chains(sig, 82):
            assert o == want and want == o and hash(o) == hash(want)
            assert repr(o) == repr(want)
            for twin in (pickle.loads(pickle.dumps(o)), copy.deepcopy(o)):
                assert twin == o and hash(twin) == hash(o)
            twin = copy.deepcopy(o)
            assert twin.forward is o.forward and twin.backward is o.backward

    def test_every_built_node_has_its_checked_boundary(self, sig):
        # passes are built with unchecked nodes, and `==` ignores boundaries
        for _, o, want in self.chains(sig, 84):
            rebuilt = Optic(o.residual, nested(o.forward), nested(o.backward))
            assert rebuilt == o == want
            for t in (o.forward, o.backward, rebuilt.forward, rebuilt.backward):
                assert_checked_boundaries(t)

    def test_pickle_and_deepcopy_before_building_agree_with_the_eager_optic(self, sig):
        for _, o, want in self.chains(sig, 85):
            assert "forward" not in vars(o) and "backward" not in vars(o)
            for twin in (pickle.loads(pickle.dumps(o)), copy.deepcopy(o)):
                assert twin == want and hash(twin) == hash(want)
                assert (str(twin.forward), str(twin.backward)) == (str(want.forward), str(want.backward))
                assert_checked_boundaries(twin.forward)
                assert_checked_boundaries(twin.backward)

    def test_stored_passes_carry_their_boundary_and_construct_the_optic(self, sig, A):
        for _, o, _ in self.chains(sig, 87):
            fw, bw = o.passes
            again = Optic(o.residual, fw, bw)
            assert again.passes[0] is fw and again.passes[1] is bw
            assert again == o and hash(again) == hash(o)
            assert (fw.dom, fw.cod) == (o.forward.dom, o.forward.cod)
            assert (bw.dom, bw.cod) == (o.backward.dom, o.backward.cod)
            wrong = fw.cod @ A  # longer than the codomain, so never its prefix
            with pytest.raises(TermTypeError) as err:
                Optic(wrong, fw, bw)
            assert str(err.value) == f"forward codomain {fw.cod} does not start with residual {wrong}"

    def test_execution_counts_as_the_eager_terms_evaluate(self, sig, interp):
        for rng, o, want in self.chains(sig, 83):
            a = random_values(rng, want.dom_pair[0])
            resp = random_values(rng, want.cod_pair[1])
            b, a_prime, got = optic_exec(o, a, interp, env=lambda _b: resp)
            report = CostReport()
            out = evaluate(want.forward, a, interp, report)
            m = len(want.residual)
            assert (b, a_prime) == (out[m:], evaluate(want.backward, out[:m] + resp, interp, report))
            assert list(got.generator_counts.items()) == list(report.generator_counts.items())
            assert (got.copies, got.peak_residual_slots) == (report.copies, m)


class TestEqualityOnStoredPasses:
    """`==` and `optic_normal_eq` read the stored passes; they agree with their definitions on built terms."""

    @staticmethod
    def family(rng, sig, chain, other):
        """A composite of the chain, and optics it is or is not equal or normal-equal to."""
        o = compose_optic_chain(composed_parts(chain, compose_optic_chain))
        twin = compose_optic_chain(composed_parts(chain, compose_optic_chain))
        return [
            o,
            reduce(optic_compose, composed_parts(chain, compose_optic_chain)),  # equal blocks
            Optic(twin.residual, twin.forward, twin.backward),  # other passes, equal terms
            Optic(o.residual, canon(twin.forward), canon(twin.backward)),  # equal normal forms
            random_optic(rng, sig, o.dom_pair, o.cod_pair),  # another residual
            other,  # another boundary, most of the time
        ]

    def test_agree_with_the_built_term_definitions(self, sig):
        rng = random.Random(86)
        other = random_optic(rng, sig)
        seen = Counter()
        for _ in range(60):
            family = self.family(rng, sig, random_optic_chain(rng, sig, rng.randint(1, 5)), other)
            for p, q in itertools.product(family, repeat=2):
                eq, normal = p == q, optic_normal_eq(p, q)
                assert eq == ((p.residual, p.forward, p.backward) == (q.residual, q.forward, q.backward))
                assert normal == (
                    p.residual == q.residual
                    and normal_eq(p.forward, q.forward)
                    and normal_eq(p.backward, q.backward)
                )
                seen.update({
                    "equal passes": p.passes == q.passes,
                    "equal terms, other passes": eq and p.passes != q.passes,
                    "normal-equal only": normal and not eq,
                    "other boundary": p.dom_pair != q.dom_pair or p.cod_pair != q.cod_pair,
                    "other residual, one boundary": p.residual != q.residual and p.cod_pair == q.cod_pair,
                })
            other = family[0]
        assert all(seen.values()), seen


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
