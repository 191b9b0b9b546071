"""Moving between lens and optic views: round trips, counit, coherence."""

import itertools
import json
import random

import pytest

from cartoptics import (
    AdjunctionReport,
    Delete,
    Interp,
    Id,
    Lens,
    Optic,
    TermTypeError,
    TwoCell,
    TwoCellError,
    check_adjunction,
    check_oplax_coherence,
    coherence_suite,
    compose_chain,
    counit,
    erase,
    graph,
    lens_compose,
    lens_exec,
    lens_id,
    lens_normal_eq,
    mk_two_cell,
    normal_eq,
    oplaxator,
    optic_compose,
    optic_exec,
    optic_id,
    optic_normal_eq,
    opunitor,
    reify,
)
from cartoptics import bridge, twocell
from cartoptics.bridge import LawResult
from cartoptics.cost import build_chain
from cartoptics.sampling import (
    random_composable_lenses,
    random_lens,
    random_obj,
    random_optic,
    random_signature,
)
from sampling_helpers import random_values

ADJUNCTION_LAWS = {
    "RE_identity",
    "counit_validity",
    "counit_naturality",
    "triangle_R",
    "triangle_E",
    "mutation_sensitivity",
}
COHERENCE_LAWS = {
    "oplaxator_validity",
    "opunitor_validity",
    "lax_associativity",
    "lax_left_unity",
    "lax_right_unity",
}


class TestReifyErase:
    def test_reify_shape(self, f, h, A):
        o = reify(Lens(f, h))
        assert o.residual == A
        assert o.forward == graph(f)
        assert o.backward == h

    def test_reify_is_built_once_per_lens(self, f, h):
        chain = build_chain(8, "finite", seed=0)
        for l in (Lens(f, h), chain.lenses[0], compose_chain(list(chain.lenses))):
            assert reify(l) is reify(l)

    def test_lens_has_no_forward_of_its_own(self, f, h):
        assert not hasattr(Lens(f, h), "forward")

    def test_erase_hand_values(self, f, h, A):
        l = erase(Optic(A, graph(f), h))
        assert normal_eq(l.get, f)
        assert normal_eq(l.put, h)

    def test_erase_reify_is_identity(self, sig, f, h):
        rng = random.Random(91)
        assert lens_normal_eq(erase(reify(Lens(f, h))), Lens(f, h))
        for _ in range(40):
            l = random_lens(rng, sig)
            assert lens_normal_eq(erase(reify(l)), l)


class TestExecutors:
    def test_lens_exec_agrees_with_reified_optic_exec(self):
        """Same outputs and byte-equal cost reports, identity and constant env."""
        rng = random.Random(57)
        for i in range(200):
            if i % 20 == 0:
                sig = random_signature(rng)
                interp = Interp.from_signature(sig)
            c = random_obj(rng, sig)
            l = random_lens(rng, sig, cod_pair=(c, c))
            a = random_values(rng, l.get.dom)
            resp = random_values(rng, c)
            for env in (None, lambda _b: resp):
                *lens_vals, lens_cost = lens_exec(l, a, interp, env)
                *optic_vals, optic_cost = optic_exec(reify(l), a, interp, env)
                assert lens_vals == optic_vals
                assert json.dumps(lens_cost.to_json()) == json.dumps(optic_cost.to_json())

    @pytest.mark.parametrize("assoc", ["left", "right"])
    def test_chain_lens_exec_agrees_with_reified_optic_exec(self, assoc):
        """The same on composite lenses of random finite chains, in either association."""
        rng = random.Random(58)
        for _ in range(10):
            n, size = rng.randint(1, 12), rng.randint(2, 4)
            chain = build_chain(n, "finite", carrier_size=size, seed=rng.randrange(10**6))
            interp = Interp.from_signature(chain.signature)
            l = compose_chain(list(chain.lenses), assoc)
            a = random_values(rng, l.get.dom)
            *lens_vals, lens_cost = lens_exec(l, a, interp)
            *optic_vals, optic_cost = optic_exec(reify(l), a, interp)
            assert lens_vals == optic_vals
            assert json.dumps(lens_cost.to_json()) == json.dumps(optic_cost.to_json())


class TestCounit:
    def test_validity(self, sig, interp):
        rng = random.Random(92)
        for _ in range(40):
            o = random_optic(rng, sig)
            cell = counit(o, interp)
            assert cell.tgt is o

    def test_reified_lens_has_identity_witness(self, sig, interp):
        rng = random.Random(93)
        for _ in range(20):
            l = random_lens(rng, sig)
            cell = counit(reify(l), interp)
            a, _ = l.dom_pair
            assert normal_eq(cell.witness, Id(a))
            assert optic_normal_eq(cell.src, cell.tgt)

    def test_erase_collapses_counit_endpoints(self, sig, interp):
        rng = random.Random(94)
        for _ in range(20):
            o = random_optic(rng, sig)
            cell = counit(o, interp)
            assert lens_normal_eq(erase(cell.src), erase(cell.tgt))

    def test_corrupted_witness_is_rejected(self, f, h, e, A, interp):
        o = Optic(A, graph(f), h)
        hub = reify(erase(o))
        good = counit(o, interp).witness
        with pytest.raises(TwoCellError):
            mk_two_cell(hub, o, good >> e, interp)


class TestOplaxStructure:
    def test_oplaxator(self, sig, interp):
        rng = random.Random(95)
        for _ in range(20):
            l1, l2 = random_composable_lenses(rng, sig, 2)
            cell = oplaxator(l1, l2, interp)
            assert cell.src == reify(lens_compose(l1, l2))
            assert cell.tgt == optic_compose(reify(l1), reify(l2))
            assert normal_eq(cell.witness, graph(l1.get))

    def test_opunitor(self, A, B, interp):
        cell = opunitor((A, B), interp)
        assert cell.src == reify(lens_id((A, B)))
        assert cell.tgt == optic_id((A, B))
        assert cell.witness == Delete(A)

    def test_each_cell_is_validated_once(self, monkeypatch):
        chain = build_chain(8, "finite", seed=0)
        interp = Interp.from_signature(chain.signature)
        l1, l2, l3 = chain.lenses[2:5]
        calls = []

        def counted(src, tgt, witness, interp=None):
            calls.append((src, tgt, witness))
            return mk_two_cell(src, tgt, witness, interp)

        # bridge builds oplaxators and opunitors itself, twocell builds the rest
        monkeypatch.setattr(bridge, "mk_two_cell", counted)
        monkeypatch.setattr(twocell, "mk_two_cell", counted)
        assert check_oplax_coherence(l1, l2, l3, interp).passed
        assert len(calls) == 19
        for cell in (
            (reify(lens_id(l1.dom_pair)), optic_id(l1.dom_pair), Delete(l1.dom_pair[0])),
            (reify(lens_id(l3.cod_pair)), optic_id(l3.cod_pair), Delete(l3.cod_pair[0])),
            (reify(l1), reify(l1), Id(l1.dom_pair[0])),
            (reify(l3), reify(l3), Id(l3.dom_pair[0])),
        ):
            assert calls.count(cell) == 1

    def test_coherence_on_deep_composites(self):
        # three 60-stage lens composites: strict associativity compares optics of 180 stages
        chain = build_chain(180, "finite", seed=2)
        l1, l2, l3 = (compose_chain(chain.lenses[i : i + 60]) for i in (0, 60, 120))
        report = check_oplax_coherence(l1, l2, l3, Interp.from_signature(chain.signature))
        assert report.passed, report.to_json()
        assert {name: law.checked for name, law in report.laws.items()} == dict.fromkeys(COHERENCE_LAWS, 1)

    def test_triple_coherence(self, sig, interp):
        rng = random.Random(96)
        for _ in range(10):
            l1, l2, l3 = random_composable_lenses(rng, sig, 3)
            report = check_oplax_coherence(l1, l2, l3, interp)
            assert report.passed, report.to_json()
            assert set(report.laws) == COHERENCE_LAWS


class TestSuites:
    def test_adjunction_suite(self, sig, interp):
        rng = random.Random(97)
        report = check_adjunction(sig, interp, rng, n_samples=30)
        assert report.passed, report.to_json()
        assert set(report.laws) == ADJUNCTION_LAWS
        for name, law in report.laws.items():
            assert law.checked > 0, name

    def test_coherence_suite(self, sig, interp):
        rng = random.Random(98)
        report = coherence_suite(sig, interp, rng, n_pairs=20, n_triples=10)
        assert report.passed, report.to_json()
        assert set(report.laws) == COHERENCE_LAWS

    def test_report_json_shape(self):
        report = AdjunctionReport()
        report.law("x").ok()
        report.law("y").fail({"index": 3})
        out = report.to_json()
        assert out["passed"] is False
        assert out["laws"]["x"] == {"passed": True, "checked": 1, "failures": []}
        assert out["laws"]["y"]["failures"] == [{"index": 3}]

    def test_law_result_bookkeeping(self):
        law = LawResult()
        law.ok()
        law.ok()
        assert law.passed and law.checked == 2
        law.fail("boom")
        assert not law.passed and law.checked == 3


def rejecting(real, reject_calls):
    """`real`, except that the listed calls, counted from 1, raise TwoCellError."""
    calls = itertools.count(1)

    def fake(*args):
        n = next(calls)
        if n in reject_calls:
            raise TwoCellError("forward", "rejected on purpose", counterexample=(n,))
        return real(*args)

    return fake


class TestFailureRecords:
    """Failing samples, forced by patching the cells the laws build."""

    def test_rejected_counit_records_index_side_and_counterexample(self, sig, interp, monkeypatch):
        # counit runs once per sample of counit_validity, triangle_R and triangle_E, in that order
        monkeypatch.setattr(bridge, "counit", rejecting(bridge.counit, {2, 4, 9}))
        report = check_adjunction(sig, interp, random.Random(97), n_samples=3)
        laws = report.to_json()["laws"]
        assert laws["counit_validity"]["failures"] == [
            {"index": 1, "side": "forward", "counterexample": (2,)}
        ]
        assert laws["triangle_R"]["failures"] == [
            {"index": 0, "side": "forward", "counterexample": (4,)}
        ]
        assert laws["triangle_E"]["failures"] == [
            {"index": 2, "side": "forward", "counterexample": (9,)}
        ]
        for name in ("counit_validity", "triangle_R", "triangle_E"):
            assert laws[name]["checked"] == 3 and laws[name]["passed"] is False
        assert all(laws[name]["passed"] for name in ("RE_identity", "counit_naturality"))
        assert not report.passed

    def test_rejected_naturality_cell_records_both_checks(self, sig, interp, monkeypatch):
        # counit_validity's three samples make mk_two_cell calls 1-3; naturality's one sample makes call 4
        monkeypatch.setattr(bridge, "mk_two_cell", rejecting(bridge.mk_two_cell, {4}))
        laws = check_adjunction(sig, interp, random.Random(97), n_samples=3).to_json()["laws"]
        assert laws["counit_naturality"] == {
            "passed": False,
            "checked": 1,
            "failures": [{"index": 0, "square_ok": True, "reify_erase_cell_ok": False}],
        }
        assert laws["counit_validity"]["passed"] and laws["mutation_sensitivity"]["passed"]

    def test_accepted_corruption_fails_mutation_sensitivity(self, sig, interp, monkeypatch):
        # a validator that accepts every witness lets each corrupted counit through
        def accept(src, tgt, witness, interp=None):
            return TwoCell(src, tgt, witness)

        monkeypatch.setattr(bridge, "mk_two_cell", accept)
        laws = check_adjunction(sig, interp, random.Random(97), n_samples=8).to_json()["laws"]
        law = laws["mutation_sensitivity"]
        assert law["passed"] is False and law["checked"] == 2 and len(law["failures"]) == 2
        for failure in law["failures"]:
            assert set(failure) == {"index", "witness", "error"} and failure["error"] == "corruption accepted"

    def test_no_corruptible_sample_fails_mutation_sensitivity(self, sig, interp, monkeypatch):
        monkeypatch.setattr(bridge, "_corrupted_counit_witness", lambda o, sig: None)
        laws = check_adjunction(sig, interp, random.Random(97), n_samples=3).to_json()["laws"]
        assert laws["mutation_sensitivity"] == {
            "passed": False,
            "checked": 1,
            "failures": [{"error": "no corruptible sample found"}],
        }
        assert all(laws[name]["passed"] for name in ADJUNCTION_LAWS - {"mutation_sensitivity"})

    @pytest.mark.parametrize(
        "error", [TwoCellError("backward", "pasting refused"), TermTypeError("pasting refused")]
    )
    def test_pasting_failure_records_error(self, sig, interp, monkeypatch, error):
        def refuse(*args):
            raise error

        monkeypatch.setattr(bridge, "vcompose", refuse)
        l1, l2, l3 = random_composable_lenses(random.Random(96), sig, 3)
        laws = check_oplax_coherence(l1, l2, l3, interp).to_json()["laws"]
        for name in ("lax_associativity", "lax_left_unity", "lax_right_unity"):
            assert laws[name] == {"passed": False, "checked": 1, "failures": [{"error": "pasting refused"}]}
        assert laws["oplaxator_validity"]["passed"] and laws["opunitor_validity"]["passed"]

    def test_fault_in_a_pasting_propagates(self, sig, interp, monkeypatch):
        # a TypeError that is not a TermTypeError is a bug, not a law failure
        def broken(*args):
            raise TypeError("a bug")

        monkeypatch.setattr(bridge, "vcompose", broken)
        l1, l2, l3 = random_composable_lenses(random.Random(96), sig, 3)
        with pytest.raises(TypeError, match="a bug"):
            check_oplax_coherence(l1, l2, l3, interp)

    def test_rejected_oplaxator_stops_the_triple(self, sig, interp, monkeypatch):
        monkeypatch.setattr(bridge, "oplaxator", rejecting(bridge.oplaxator, {1}))
        l1, l2, l3 = random_composable_lenses(random.Random(96), sig, 3)
        laws = check_oplax_coherence(l1, l2, l3, interp).to_json()["laws"]
        assert laws == {
            "oplaxator_validity": {
                "passed": False,
                "checked": 1,
                "failures": [{"side": "forward", "counterexample": (1,)}],
            }
        }

    def test_rejected_opunitor_stops_the_triple(self, sig, interp, monkeypatch):
        monkeypatch.setattr(bridge, "opunitor", rejecting(bridge.opunitor, {2}))
        l1, l2, l3 = random_composable_lenses(random.Random(96), sig, 3)
        laws = check_oplax_coherence(l1, l2, l3, interp).to_json()["laws"]
        assert laws == {
            "oplaxator_validity": {"passed": True, "checked": 1, "failures": []},
            "opunitor_validity": {
                "passed": False,
                "checked": 1,
                "failures": [{"side": "forward", "counterexample": (2,)}],
            },
        }

    def test_suite_records_failing_pairs_and_triples(self, sig, interp, monkeypatch):
        # three pairs take oplaxator calls 1-3; the first triple's first call is 4
        monkeypatch.setattr(bridge, "oplaxator", rejecting(bridge.oplaxator, {2, 4}))
        report = coherence_suite(sig, interp, random.Random(98), n_pairs=3, n_triples=2)
        laws = report.to_json()["laws"]
        assert laws["oplaxator_validity"] == {
            "passed": False,
            "checked": 3,
            "failures": [{"index": 1, "side": "forward", "counterexample": (2,)}],
        }
        assert laws["opunitor_validity"]["passed"]
        for name in ("lax_associativity", "lax_left_unity", "lax_right_unity"):
            assert laws[name] == {"passed": False, "checked": 2, "failures": [{"index": 0, "failures": []}]}
