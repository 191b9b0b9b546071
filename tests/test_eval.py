"""Instrumented evaluation: values, cost counters, enumeration, real carriers."""

import numpy as np
import pytest

from cartoptics import (
    CarrierMismatch,
    Copy,
    EnumerationCapError,
    FiniteCarrier,
    Gen,
    Generator,
    Id,
    Interp,
    Obj,
    Proj1,
    RealVector,
    Signature,
    SignatureError,
    Sort,
    Swap,
    Ten,
    TermTypeError,
    UnsupportedInterpretation,
    build_chain,
    compose_optic_chain,
    dump_signature,
    enumerate_inputs,
    eq_extensional,
    evaluate,
    evaluate_dag,
    extensional_counterexample,
    graph,
    lens_exec,
    load_signature,
    optic_exec,
    reify,
    share,
    signature_to_json,
)
from cartoptics import interp as interp_module
from cartoptics import signature as signature_module
from cartoptics.interp import CostReport, obj_bytes
from cartoptics.signature import check_table, parse_signature
from cartoptics.primitives import resolve
from cartoptics.term import run


class TestTableEvaluation:
    def test_single_generator(self, f, interp):
        assert evaluate(f, (0,), interp) == (1,)
        assert evaluate(f, (1,), interp) == (2,)

    def test_mixed_radix_lookup(self, h, interp):
        # h(1, 2) = (1 + 2) mod 2, found at row 1*3 + 2 of the table
        assert evaluate(h, (1, 2), interp) == (1,)
        assert evaluate(h, (0, 1), interp) == (1,)

    def test_multi_output(self, k, interp):
        assert evaluate(k, (0,), interp) == (0, 1)
        assert evaluate(k, (1,), interp) == (1, 0)

    def test_composite(self, f, g, interp):
        assert evaluate(f >> g, (0,), interp) == (1,)
        assert evaluate(f >> g, (1,), interp) == (0,)

    def test_structure_maps_shuffle_values(self, A, B, interp):
        assert evaluate(Swap(A, B), (1, 2), interp) == (2, 1)
        assert evaluate(Copy(A @ B), (1, 2), interp) == (1, 2, 1, 2)


class TestRowIndex:
    """A table generator's rows are looked up by the argument tuple, and only a row is found."""

    def test_every_input_reads_its_row_major_row(self):
        a, b = Sort("A", FiniteCarrier(2)), Sort("B", FiniteCarrier(3))
        # six rows, two outputs each, no two alike, so a wrong row cannot pass
        table = ((0, 2), (1, 0), (1, 1), (0, 1), (0, 0), (1, 2))
        m = Generator("m", Obj((a, b)), Obj((a, b)), table=table)
        inputs = [(x, y) for x in range(2) for y in range(3)]
        point = Interp(tables={"m": table})
        assert [point.apply(m, p) for p in inputs] == [table[3 * x + y] for x, y in inputs]
        # the same through column_apply: one column per wire, one entry per input
        cols = ([x for x, _ in inputs], [y for _, y in inputs])
        want = tuple(list(c) for c in zip(*(table[3 * x + y] for x, y in inputs)))
        assert Interp(tables={"m": table}).column_apply(len(inputs))(m, cols) == want

    @pytest.mark.parametrize("args", [(0, 2), (1, -1), (1, 5)])
    def test_arguments_that_are_not_a_row_are_rejected(self, args):
        a = Sort("A", FiniteCarrier(2))
        x = Obj((a,))
        h = Generator("h", x @ x, x, table=((0,), (1,), (1,), (0,)))
        with pytest.raises(CarrierMismatch) as info:
            Interp.from_signature(Signature((a,), (h,))).apply(h, args)
        assert str(info.value) == f"generator h: arguments {args!r} are not a row of its table"


class TestCostCounting:
    def test_generator_counts(self, f, g, interp):
        report = CostReport()
        evaluate(f >> g, (0,), interp, report)
        assert report.generator_counts == {"f": 1, "g": 1}
        assert report.copies == 0

    def test_copies_count_wires(self, A, B, interp):
        report = CostReport()
        evaluate(Copy(A @ B), (0, 0), interp, report)
        assert report.copies == 2

    def test_graph_costs_one_copy(self, f, interp):
        report = CostReport()
        assert evaluate(graph(f), (0,), interp, report) == (0, 1)
        assert report.copies == 1
        assert sum(report.generator_counts.values()) == 1

    def test_total_evals_filter(self, f, g, interp):
        report = CostReport()
        evaluate(f >> g >> f, (0,), interp, report)
        assert report.total_evals({"f", "g"}) == 3
        assert report.total_evals({"f"}) == 2

    def test_a_pass_that_raises_counts_nothing(self, f, g, A, interp):
        report = CostReport()
        evaluate(f >> g, (0,), interp, report)
        calls = []

        def apply(gen, xs):  # the third application fails
            calls.append(gen.name)
            if len(calls) == 3:
                raise CarrierMismatch("third application")
            return interp.apply(gen, xs)

        for t in (f >> g >> f >> g, Copy(A) >> Ten(f >> g, f >> g)):
            calls.clear()
            with pytest.raises(CarrierMismatch, match="third application"):
                run(t, (0,), apply, report)
            assert report.generator_counts == {"f": 1, "g": 1}
            assert list(report.generator_counts) == ["f", "g"]
        # the shared DAG: its second g row fails
        seen = []

        def g_fails_second(xs):
            seen.append(xs)
            if len(seen) == 2:
                raise CarrierMismatch("second g")
            return interp.apply(g.gen, xs)

        failing = Interp(tables={"f": f.gen.table}, fns={"g": g_fails_second})
        with pytest.raises(CarrierMismatch, match="second g"):
            evaluate_dag(share(f >> g >> f >> g), (0,), failing, report)
        assert report.generator_counts == {"f": 1, "g": 1}

    def test_counts_keep_first_application_order(self, f, g, e, interp):
        report = CostReport()
        evaluate(g >> e >> f >> g >> e, (2,), interp, report)
        assert list(report.generator_counts.items()) == [("g", 2), ("e", 2), ("f", 1)]

    def test_report_json_shape(self, f, interp):
        report = CostReport()
        evaluate(f, (0,), interp, report)
        assert report.to_json() == {
            "generator_counts": {"f": 1},
            "copies": 0,
            "peak_residual_slots": 0,
            "peak_residual_bytes": 0,
        }


class TestValueChecking:
    def test_out_of_range(self, f, interp):
        with pytest.raises(CarrierMismatch):
            evaluate(f, (5,), interp)

    def test_wrong_arity(self, h, interp):
        with pytest.raises(CarrierMismatch):
            evaluate(h, (0,), interp)

    @pytest.mark.parametrize("value", [False, True])
    def test_booleans_are_not_finite_values(self, f, interp, value):
        with pytest.raises(CarrierMismatch, match="not in finite carrier"):
            evaluate(f, (value,), interp)

    def test_numpy_integers_are_finite_values(self, f, interp):
        assert evaluate(f, (np.int64(1),), interp) == (2,)


class TestEnumeration:
    def test_row_major_order(self, A, B):
        assert list(enumerate_inputs(A @ B)) == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]

    def test_cap(self):
        # 1001 * 1001 tuples: refused before any is enumerated
        big = Obj((Sort("X", FiniteCarrier(1001)), Sort("Y", FiniteCarrier(1001))))
        with pytest.raises(EnumerationCapError, match="1002001 input tuples"):
            enumerate_inputs(big)

    def test_unit_object_has_one_point(self):
        assert list(enumerate_inputs(Obj())) == [()]


class TestExtensionalComparison:
    def test_boundary_mismatch(self, f, g, interp):
        with pytest.raises(TermTypeError):
            extensional_counterexample(f, g, interp)

    def test_accidental_agreement(self, f, g, e, interp):
        # under the default tables f;g and e are the same function on {0,1}
        assert extensional_counterexample(f >> g, e, interp) is None
        assert eq_extensional(f >> g, e, interp)

    def test_first_counterexample(self, sig, f, g, e):
        # reinterpreting e as the identity separates them at the first input
        other = Interp(
            tables={
                "f": sig.generator("f").table,
                "g": sig.generator("g").table,
                "e": ((0,), (1,)),
            }
        )
        assert extensional_counterexample(f >> g, e, other) == (0,)

    def test_unit_object_has_no_bytes(self):
        assert obj_bytes(Obj()) == 0


class TestExtensionalErrors:
    """The column check fails with the messages a per-point evaluation gives."""

    @staticmethod
    def message(exc_type, call) -> str:
        with pytest.raises(exc_type) as info:
            call()
        return str(info.value)

    def test_generator_without_semantics(self, sig, f, g, e):
        bare = Interp(tables={"f": sig.generator("f").table, "g": sig.generator("g").table})
        missing = UnsupportedInterpretation
        got = self.message(missing, lambda: extensional_counterexample(f >> g, e, bare))
        want = self.message(missing, lambda: evaluate(e, (0,), bare))
        assert got == want == "no semantics for generator e"

    def test_table_row_of_wrong_width(self, sig, f, g, e):
        tables = {"f": sig.generator("f").table, "g": sig.generator("g").table}
        wide = Interp(tables={**tables, "e": ((1,), (0, 1))})
        got = self.message(SignatureError, lambda: extensional_counterexample(f >> g, e, wide))
        want = self.message(SignatureError, lambda: evaluate(e, (0,), wide))
        assert got == want == "generator e: table[1]: 2 entries, expected 1"

    def test_over_cap_domain_runs_no_generator(self, A, e):
        calls = []
        counting = Interp(fns={"e": lambda args: calls.append(args) or (1 - args[0],)})
        dom = Obj(tuple(A) * 20)
        t = Proj1(A, dom[1:]) >> e
        got = self.message(EnumerationCapError, lambda: extensional_counterexample(t, t, counting))
        assert got == f"{2**20} input tuples for {dom} exceeds the cap of {10**6}"
        assert calls == []

    def test_over_cap_message_of_a_long_chain_is_short(self):
        # the 1501 sorts and 452-digit count of this backward domain were spelled out in 11,392 characters
        chain = build_chain(1500, "finite", seed=0)
        optic = compose_optic_chain([reify(lens) for lens in chain.lenses])
        got = self.message(EnumerationCapError, lambda: enumerate_inputs(optic.backward.dom))
        assert got == "about 10^451.8 input tuples for 1501 sorts (X0 ... X1500) exceeds the cap of 1000000"
        assert len(got) < 300

    def test_replaced_functions_are_called(self, f, g, e):
        first, second = [], []
        fns = {"f": lambda args: (args[0] + 1,), "g": lambda args: (args[0] % 2,)}
        interp = Interp(fns={**fns, "e": lambda args: first.append(args) or (1 - args[0],)})
        assert extensional_counterexample(f >> g, e, interp) is None
        interp.fns = {**fns, "e": lambda args: second.append(args) or args}
        assert extensional_counterexample(f >> g, e, interp) == (0,)
        assert first == second == [(0,), (1,)]


class TestOverrideTables:
    """A table given in place of a declared one is checked as the declared one was."""

    def test_entry_outside_its_carrier_is_rejected_on_every_path(self):
        a = Sort("A", FiniteCarrier(2))
        x = Obj((a,))
        u = Generator("u", x, x, table=((0,), (1,)))
        g = Generator("g", x @ x, x, table=((0,), (0,), (1,), (1,)))  # g(x, y) = x
        t = Ten(Id(x), Gen(u)) >> Gen(g)
        want = "generator u: table[1][0]: expected an integer in the carrier of sort A, got 2"
        for path in (
            lambda ip: evaluate(t, (0, 1), ip),
            lambda ip: evaluate_dag(share(t), (0, 1), ip),
            lambda ip: extensional_counterexample(t, t, ip),
        ):
            bad = Interp(tables={"u": ((0,), (2,)), "g": g.table})
            for _ in range(2):  # a table that fails its check is not kept
                with pytest.raises(SignatureError) as info:
                    path(bad)
                assert str(info.value) == want

    def test_each_table_is_checked_once(self, monkeypatch):
        calls = []

        def counted(dom, cod, table):
            calls.append(table)
            return check_table(dom, cod, table)

        data = signature_to_json(build_chain(8, "finite", seed=0).signature)
        monkeypatch.setattr(signature_module, "check_table", counted)
        monkeypatch.setattr(interp_module, "check_table", counted)
        sig = parse_signature(data)
        assert len(calls) == 16  # one per declared table, when its generator is made
        interp = Interp.from_signature(sig)
        for _ in range(2):
            for gen in sig.generators:
                interp.apply(gen, (0,) * len(gen.dom))
        assert len(calls) == 16  # a declared table is not checked again at its first application
        get1 = sig.generator("get1")
        override = Interp(tables={"get1": get1.table[::-1]})
        for _ in range(2):
            override.apply(get1, (0,))
        assert len(calls) == 17  # a table given in its place, at its first application


@pytest.fixture(scope="module")
def real_sig():
    r = Sort("R", RealVector(2))
    obj = Obj((r,))
    return Signature((r,), (Generator("sq", obj, obj, fn=resolve("tanh", obj, obj)),))


class TestRealCarriers:
    def test_tanh_matches_numpy(self, real_sig):
        interp = Interp.from_signature(real_sig)
        x = np.array([0.5, -0.3])
        (y,) = evaluate(Gen(real_sig.generator("sq")), (x,), interp)
        assert np.allclose(y, np.tanh(x))

    def test_enumeration_refused(self, real_sig):
        interp = Interp.from_signature(real_sig)
        t = Gen(real_sig.generator("sq"))
        with pytest.raises(UnsupportedInterpretation):
            eq_extensional(t, t, interp)

    def test_shape_mismatch_rejected(self, real_sig):
        interp = Interp.from_signature(real_sig)
        t = Gen(real_sig.generator("sq"))
        with pytest.raises(CarrierMismatch):
            evaluate(t, (np.zeros(3),), interp)

    @pytest.mark.parametrize(
        "value, dtype",
        [
            (np.array([True, False]), "bool"),
            (np.array(["0.5", "1"]), "<U3"),
            (np.array([0.5, None], dtype=object), "object"),
        ],
        ids=["bool", "str", "object"],
    )
    def test_non_real_dtypes_rejected(self, value, dtype):
        # a bool vector would run as 1.0 and 0.0; a string one would fail inside numpy
        chain = build_chain(2, "real", dim=2)
        interp = Interp.from_signature(chain.signature)
        optic = compose_optic_chain([reify(l) for l in chain.lenses])
        want = rf"^input: \[0\]: value for X0 has dtype {dtype}, expected real numbers$"
        for run in (
            lambda: evaluate(optic.forward, (value,), interp),
            lambda: optic_exec(optic, (value,), interp),
            lambda: lens_exec(chain.lenses[0], (value,), interp),
        ):
            with pytest.raises(CarrierMismatch, match=want):
                run()

    def test_bytes_accounting(self, real_sig, A):
        assert obj_bytes(real_sig.obj("R")) == 16
        assert obj_bytes(A @ A) == 2


class TestSignatureFiles:
    def test_builtin_semantics_round_trip(self, real_sig, tmp_path):
        path = tmp_path / "real.json"
        dump_signature(real_sig, str(path))
        loaded = load_signature(str(path))
        assert signature_to_json(loaded) == signature_to_json(real_sig)
        x = np.array([0.5, -0.3])
        (y,) = evaluate(Gen(loaded.generator("sq")), (x,), Interp.from_signature(loaded))
        assert np.allclose(y, np.tanh(x))

    def test_non_builtin_semantics_is_refused(self, tmp_path):
        r = Sort("R", RealVector(2))
        obj = Obj((r,))
        sig = Signature((r,), (Generator("neg", obj, obj, fn=lambda xs: (-xs[0],)),))
        with pytest.raises(SignatureError, match="generator neg"):
            signature_to_json(sig)
        kept = tmp_path / "kept.json"
        kept.write_text("previous contents\n")
        with pytest.raises(SignatureError, match="generator neg"):
            dump_signature(sig, str(kept))
        assert kept.read_text() == "previous contents\n"
        with pytest.raises(SignatureError):
            dump_signature(sig, str(tmp_path / "new.json"))
        assert not (tmp_path / "new.json").exists()
