"""Reify and erase: moving between the lens and optic views.

reify(l) runs a lens as an optic whose residual is the whole input: the
forward pass is the graph of get, the backward pass is put unchanged.
erase(o) forgets the residual of an optic by inlining the forward pass into
both lens components.  erase(reify(l)) is l on the nose (after normalizing),
and for every optic o there is a canonical cell counit(o): reify(erase(o)) -> o
whose witness is the residual part of the forward pass.

reify is not functorial on the nose: reify(l1 ; l2) and reify(l1) ; reify(l2)
differ as representatives (one residual A, the other A x B), but the
oplaxator cell with witness graph(get1) connects them, with the opunitor
(delete the input) handling identities.  `check_adjunction` and
`check_oplax_coherence` run all of these laws on random samples and report
per-law outcomes, including a deliberate mutation that must fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .interp import Interp
from .lens import Lens, lens_compose, lens_id, lens_normal_eq
from .normal import normal_eq
from .optic import Optic, optic_compose, optic_id, optic_normal_eq
from .signature import Obj
from .term import Delete, Id, Proj1, Proj2, Ten, Term, graph, pairing, select_wire
from .twocell import TwoCell, TwoCellError, hcompose, identity_cell, mk_two_cell, vcompose


def reify(l: Lens) -> Optic:
    """Run a lens as an optic: residual = input object, forward = graph(get)."""
    a, _ = l.dom_pair
    return Optic(a, graph(l.get), l.put)


def erase(o: Optic) -> Lens:
    """Forget the residual: inline the forward pass into get and put."""
    m = o.residual
    b_obj, b_back = o.cod_pair
    get = o.forward >> Proj2(m, b_obj)
    put = Ten(o.forward >> Proj1(m, b_obj), Id(b_back)) >> o.backward
    return Lens(get, put)


def counit(o: Optic, interp: Interp | None = None) -> TwoCell:
    """The canonical cell reify(erase(o)) -> o, witnessed by forward ; pi1."""
    m = o.residual
    b_obj, _ = o.cod_pair
    return mk_two_cell(reify(erase(o)), o, o.forward >> Proj1(m, b_obj), interp)


def oplaxator(l1: Lens, l2: Lens, interp: Interp | None = None) -> TwoCell:
    """reify(l1 ; l2) -> reify(l1) ; reify(l2), witnessed by graph(get1)."""
    return mk_two_cell(
        reify(lens_compose(l1, l2)),
        optic_compose(reify(l1), reify(l2)),
        graph(l1.get),
        interp,
    )


def opunitor(pair: tuple[Obj, Obj], interp: Interp | None = None) -> TwoCell:
    """reify(lens_id) -> optic_id, witnessed by deleting the held input."""
    a, _ = pair
    return mk_two_cell(reify(lens_id(pair)), optic_id(pair), Delete(a), interp)


@dataclass
class LawResult:
    passed: bool = True
    checked: int = 0
    failures: list = field(default_factory=list)

    def ok(self) -> None:
        self.checked += 1

    def fail(self, payload) -> None:
        self.checked += 1
        self.passed = False
        self.failures.append(payload)

    def to_json(self) -> dict:
        return {"passed": self.passed, "checked": self.checked, "failures": self.failures}


@dataclass
class AdjunctionReport:
    laws: dict[str, LawResult] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.laws.values())

    def law(self, name: str) -> LawResult:
        return self.laws.setdefault(name, LawResult())

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "laws": {k: v.to_json() for k, v in sorted(self.laws.items())},
        }


CoherenceReport = AdjunctionReport  # same shape, different law names


def _corrupted_counit_witness(o: Optic, sig) -> Term | None:
    """A tampered counit witness guaranteed to change the normal form.

    The forward square of a cell reify(erase(o)) -> o with witness w holds
    exactly when w is normal-equal to forward ; pi1, so any candidate that
    fails that comparison must be rejected by the validator.  Candidates
    rewrite one residual wire at a time, with deepening so that sorts whose
    only endo-maps go around a conversion cycle are still reachable.
    """
    from .twocell import enumerate_wire_terms

    m = o.residual
    if len(m) == 0:
        return None
    b_obj, _ = o.cod_pair
    base = o.forward >> Proj1(m, b_obj)
    tried = 0
    for depth in range(1, min(len(sig.sorts), 3) + 1):
        for i, sort_i in enumerate(m):
            for w in enumerate_wire_terms(sig, m, sort_i, depth):
                if w == select_wire(m, i):
                    continue
                wires = [select_wire(m, j) if j != i else w for j in range(len(m))]
                corrupted = base >> pairing(wires, m)
                if not normal_eq(corrupted, base):
                    return corrupted
                tried += 1
                if tried >= 200:
                    return None
    return None


def check_adjunction(sig, interp: Interp, rng, n_lenses: int = 100, n_optics: int = 100) -> AdjunctionReport:
    """Sample-based law suite for the reify/erase round trip and the counit."""
    from . import sampling

    report = AdjunctionReport()

    law = report.law("RE_identity")
    for i in range(n_lenses):
        l = sampling.random_lens(rng, sig)
        if lens_normal_eq(erase(reify(l)), l):
            law.ok()
        else:
            law.fail({"index": i, "get": str(l.get), "put": str(l.put)})

    law = report.law("counit_validity")
    for i in range(n_optics):
        o = sampling.random_optic(rng, sig)
        try:
            counit(o, interp)
            law.ok()
        except TwoCellError as e:
            law.fail({"index": i, "side": e.side, "counterexample": e.counterexample})

    law = report.law("counit_naturality")
    for i in range(max(1, n_optics // 2)):
        cell = sampling.random_valid_cell(rng, sig, interp)
        o1, o2 = cell.src, cell.tgt
        m1 = o1.residual
        b_obj, _ = o1.cod_pair
        lhs = (o1.forward >> Proj1(m1, b_obj)) >> cell.witness
        rhs = o2.forward >> Proj1(o2.residual, b_obj)
        square_ok = normal_eq(lhs, rhs)
        re_cell_ok = True
        try:
            # reify(erase(-)) sends the cell to an identity witness
            mk_two_cell(reify(erase(o1)), reify(erase(o2)), Id(o1.forward.dom), interp)
        except TwoCellError:
            re_cell_ok = False
        if square_ok and re_cell_ok:
            law.ok()
        else:
            law.fail({"index": i, "square_ok": square_ok, "reify_erase_cell_ok": re_cell_ok})

    law = report.law("triangle_R")
    for i in range(n_lenses):
        l = sampling.random_lens(rng, sig)
        o = reify(l)
        try:
            c = counit(o, interp)
        except TwoCellError as e:
            law.fail({"index": i, "side": e.side})
            continue
        a, _ = l.dom_pair
        if normal_eq(c.witness, Id(a)) and optic_normal_eq(c.src, c.tgt):
            law.ok()
        else:
            law.fail({"index": i, "witness": str(c.witness)})

    law = report.law("triangle_E")
    for i in range(n_optics):
        o = sampling.random_optic(rng, sig)
        try:
            c = counit(o, interp)
        except TwoCellError as e:
            law.fail({"index": i, "side": e.side})
            continue
        if lens_normal_eq(erase(c.src), erase(c.tgt)):
            law.ok()
        else:
            law.fail({"index": i})

    law = report.law("mutation_sensitivity")
    want = max(1, n_optics // 4)
    for i in range(n_optics * 4):
        if law.checked >= want:
            break
        o = sampling.random_optic(rng, sig)
        corrupted = _corrupted_counit_witness(o, sig)
        if corrupted is None:
            continue
        try:
            mk_two_cell(reify(erase(o)), o, corrupted, interp)
            law.fail({"index": i, "witness": str(corrupted), "error": "corruption accepted"})
        except TwoCellError:
            law.ok()
    if law.checked == 0:
        law.fail({"error": "no corruptible sample found"})

    return report


def check_oplax_coherence(
    l1: Lens, l2: Lens, l3: Lens, interp: Interp | None = None
) -> CoherenceReport:
    """Coherence of the oplax structure on one composable triple."""
    report = CoherenceReport()

    law = report.law("oplaxator_validity")
    try:
        d12 = oplaxator(l1, l2, interp)
        d23 = oplaxator(l2, l3, interp)
        d12_3 = oplaxator(lens_compose(l1, l2), l3, interp)
        d1_23 = oplaxator(l1, lens_compose(l2, l3), interp)
        law.ok()
    except TwoCellError as e:
        law.fail({"side": e.side, "counterexample": e.counterexample})
        return report

    law = report.law("opunitor_validity")
    try:
        opunitor(l1.dom_pair, interp)
        opunitor(l1.cod_pair, interp)
        opunitor(l3.cod_pair, interp)
        law.ok()
    except TwoCellError as e:
        law.fail({"side": e.side, "counterexample": e.counterexample})

    # associativity: the two ways from reify(l1;l2;l3) to the three-fold
    # optic composite have equal witnesses
    law = report.law("lax_associativity")
    try:
        path_a = vcompose(d12_3, hcompose(d12, identity_cell(reify(l3), interp), interp), interp)
        path_b = vcompose(d1_23, hcompose(identity_cell(reify(l1), interp), d23, interp), interp)
        same_witness = normal_eq(path_a.witness, path_b.witness)
        same_src = optic_normal_eq(path_a.src, path_b.src)
        same_tgt = path_a.tgt == path_b.tgt  # strict associativity of representatives
        if same_witness and same_src and same_tgt:
            law.ok()
        else:
            law.fail({"witness": same_witness, "src": same_src, "tgt": same_tgt})
    except (TwoCellError, TypeError) as e:
        law.fail({"error": str(e)})

    law = report.law("lax_left_unity")
    try:
        lid = lens_id(l1.dom_pair)
        d = oplaxator(lid, l1, interp)
        u = hcompose(opunitor(l1.dom_pair, interp), identity_cell(reify(l1), interp), interp)
        c = vcompose(d, u, interp)
        a, _ = l1.dom_pair
        if normal_eq(c.witness, Id(a)) and optic_normal_eq(c.src, c.tgt):
            law.ok()
        else:
            law.fail({"witness": str(c.witness)})
    except (TwoCellError, TypeError) as e:
        law.fail({"error": str(e)})

    law = report.law("lax_right_unity")
    try:
        rid = lens_id(l3.cod_pair)
        d = oplaxator(l3, rid, interp)
        u = hcompose(identity_cell(reify(l3), interp), opunitor(l3.cod_pair, interp), interp)
        c = vcompose(d, u, interp)
        a3, _ = l3.dom_pair
        if normal_eq(c.witness, Id(a3)) and optic_normal_eq(c.src, c.tgt):
            law.ok()
        else:
            law.fail({"witness": str(c.witness)})
    except (TwoCellError, TypeError) as e:
        law.fail({"error": str(e)})

    return report


def coherence_suite(sig, interp: Interp, rng, n_pairs: int = 100, n_triples: int = 50) -> CoherenceReport:
    """Aggregate coherence over random composable pairs and triples."""
    from . import sampling

    report = CoherenceReport()

    pair_law = report.law("oplaxator_validity")
    unit_law = report.law("opunitor_validity")
    for i in range(n_pairs):
        l1, l2 = sampling.random_composable_lenses(rng, sig, 2)
        try:
            oplaxator(l1, l2, interp)
            pair_law.ok()
        except TwoCellError as e:
            pair_law.fail({"index": i, "side": e.side, "counterexample": e.counterexample})
        try:
            opunitor(l1.dom_pair, interp)
            opunitor(l2.cod_pair, interp)
            unit_law.ok()
        except TwoCellError as e:
            unit_law.fail({"index": i, "side": e.side, "counterexample": e.counterexample})

    for i in range(n_triples):
        l1, l2, l3 = sampling.random_composable_lenses(rng, sig, 3)
        triple = check_oplax_coherence(l1, l2, l3, interp)
        for name in ("lax_associativity", "lax_left_unity", "lax_right_unity"):
            sub = triple.law(name)
            law = report.law(name)
            if sub.passed and sub.checked > 0:
                law.ok()
            else:
                law.fail({"index": i, "failures": sub.failures})
    return report
