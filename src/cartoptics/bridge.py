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
from typing import Callable, Iterable

from . import sampling
from .interp import Interp
from .lens import Lens, lens_compose, lens_id, lens_normal_eq
from .normal import normal_eq
from .optic import Optic, optic_compose, optic_id, optic_normal_eq
from .signature import Obj
from .term import Delete, Id, Proj1, Proj2, Ten, Term, TermTypeError, pairing, select_wire
from .twocell import (
    TwoCell,
    TwoCellError,
    enumerate_wire_terms,
    hcompose,
    identity_cell,
    mk_two_cell,
    vcompose,
)


def reify(l: Lens) -> Optic:
    """Run a lens as an optic: residual = input object, forward = graph(get)."""
    a, _ = l.dom_pair
    return Optic(a, l.forward, l.put)


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
        l1.forward,
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

    def record(self, check: Callable[..., dict | None], *args, **where) -> None:
        """Check the law once: `check(*args)` returns None or a failure payload.

        A rejected cell fails with its side and counterexample.  The keywords
        in `where`, such as a sample's index, lead the payload.
        """
        try:
            payload = check(*args)
        except TwoCellError as e:
            payload = {"side": e.side, "counterexample": e.counterexample}
        if payload is None:
            self.ok()
        else:
            self.fail({**where, **payload})

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


def _run_law(report: AdjunctionReport, name: str, samples: Iterable, check: Callable) -> None:
    """Check one law on every sample in order; a failure leads with the sample's index."""
    law = report.law(name)
    for i, sample in enumerate(samples):
        law.record(check, sample, index=i)


def _not_identity(c: TwoCell, a: Obj) -> dict | None:
    """None when c is the identity cell on a up to normal form, else its witness."""
    if normal_eq(c.witness, Id(a)) and optic_normal_eq(c.src, c.tgt):
        return None
    return {"witness": str(c.witness)}


def _pasting(paste: Callable[[], dict | None]) -> dict | None:
    """Check a pasting law; a cell that fails to compose or validate is an error.

    Cells that do not compose (mismatched representatives) raise
    TermTypeError; any other exception is a fault and propagates.
    """
    try:
        return paste()
    except (TwoCellError, TermTypeError) as e:
        return {"error": str(e)}


def _corrupted_counit_witness(o: Optic, sig) -> Term | None:
    """A tampered counit witness guaranteed to change the normal form.

    The forward square of a cell reify(erase(o)) -> o with witness w holds
    exactly when w is normal-equal to forward ; pi1, so any candidate that
    fails that comparison must be rejected by the validator.  Candidates
    rewrite one residual wire at a time, with deepening so that sorts whose
    only endo-maps go around a conversion cycle are still reachable.
    """
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


def check_adjunction(sig, interp: Interp, rng, n_samples: int = 100) -> AdjunctionReport:
    """Sample-based law suite for the reify/erase round trip and the counit.

    Each law draws n_samples lenses or optics; naturality draws half as many
    cells, and mutation sensitivity stops after a quarter as many rejections.
    """
    report = AdjunctionReport()

    def lenses():
        return (sampling.random_lens(rng, sig) for _ in range(n_samples))

    def optics():
        return (sampling.random_optic(rng, sig) for _ in range(n_samples))

    def re_identity(l: Lens) -> dict | None:
        return None if lens_normal_eq(erase(reify(l)), l) else {"get": str(l.get), "put": str(l.put)}

    def counit_valid(o: Optic) -> None:
        counit(o, interp)

    def counit_natural(cell: TwoCell) -> dict | None:
        o1, o2 = cell.src, cell.tgt
        b_obj, _ = o1.cod_pair
        lhs = (o1.forward >> Proj1(o1.residual, b_obj)) >> cell.witness
        rhs = o2.forward >> Proj1(o2.residual, b_obj)
        square_ok = normal_eq(lhs, rhs)
        re_cell_ok = True
        try:
            # reify(erase(-)) sends the cell to an identity witness
            mk_two_cell(reify(erase(o1)), reify(erase(o2)), Id(o1.forward.dom), interp)
        except TwoCellError:
            re_cell_ok = False
        if square_ok and re_cell_ok:
            return None
        return {"square_ok": square_ok, "reify_erase_cell_ok": re_cell_ok}

    def triangle_r(l: Lens) -> dict | None:
        return _not_identity(counit(reify(l), interp), l.dom_pair[0])

    def triangle_e(o: Optic) -> dict | None:
        c = counit(o, interp)
        return None if lens_normal_eq(erase(c.src), erase(c.tgt)) else {}

    _run_law(report, "RE_identity", lenses(), re_identity)
    _run_law(report, "counit_validity", optics(), counit_valid)
    cells = (sampling.random_valid_cell(rng, sig, interp) for _ in range(max(1, n_samples // 2)))
    _run_law(report, "counit_naturality", cells, counit_natural)
    _run_law(report, "triangle_R", lenses(), triangle_r)
    _run_law(report, "triangle_E", optics(), triangle_e)

    # a rejection is this law's success, and it stops after `want` of them
    law = report.law("mutation_sensitivity")
    want = max(1, n_samples // 4)
    for i in range(n_samples * 4):
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
    """Coherence of the oplax structure on one triple; a rejected structure cell ends it."""
    report = CoherenceReport()
    pairs = ((l1, l2), (l2, l3), (lens_compose(l1, l2), l3), (l1, lens_compose(l2, l3)))
    cells: list[TwoCell] = []
    law = report.law("oplaxator_validity")
    law.record(lambda: cells.extend(oplaxator(x, y, interp) for x, y in pairs))
    if not law.passed:
        return report
    law = report.law("opunitor_validity")
    law.record(lambda: cells.extend(opunitor(p, interp) for p in (l1.dom_pair, l1.cod_pair, l3.cod_pair)))
    if not law.passed:
        return report
    d12, d23, d12_3, d1_23, u1, _, u3 = cells
    r1, r3 = identity_cell(reify(l1), interp), identity_cell(reify(l3), interp)

    def associativity() -> dict | None:
        # the two ways from reify(l1;l2;l3) to the three-fold optic composite
        path_a = vcompose(d12_3, hcompose(d12, r3, interp), interp)
        path_b = vcompose(d1_23, hcompose(r1, d23, interp), interp)
        same = {
            "witness": normal_eq(path_a.witness, path_b.witness),
            "src": optic_normal_eq(path_a.src, path_b.src),
            "tgt": path_a.tgt == path_b.tgt,  # strict associativity of representatives
        }
        return None if all(same.values()) else same

    # unity: an oplaxator through an identity lens, then the opunitor pasted
    # beside reify(l), is the identity cell on l's input
    def left_unity() -> dict | None:
        d = oplaxator(lens_id(l1.dom_pair), l1, interp)
        return _not_identity(vcompose(d, hcompose(u1, r1, interp), interp), l1.dom_pair[0])

    def right_unity() -> dict | None:
        d = oplaxator(l3, lens_id(l3.cod_pair), interp)
        return _not_identity(vcompose(d, hcompose(r3, u3, interp), interp), l3.dom_pair[0])

    report.law("lax_associativity").record(_pasting, associativity)
    report.law("lax_left_unity").record(_pasting, left_unity)
    report.law("lax_right_unity").record(_pasting, right_unity)
    return report


def _triple_law(sub: LawResult) -> dict | None:
    """One law on one triple, as a sample of the suite: it must hold and be checked."""
    return None if sub.passed and sub.checked > 0 else {"failures": sub.failures}


def coherence_suite(sig, interp: Interp, rng, n_pairs: int = 100, n_triples: int = 50) -> CoherenceReport:
    """Aggregate coherence over random composable pairs and triples."""
    report = CoherenceReport()

    def oplaxator_valid(pair: tuple[Lens, Lens]) -> None:
        oplaxator(*pair, interp)

    def opunitors_valid(pair: tuple[Lens, Lens]) -> None:
        for p in (pair[0].dom_pair, pair[1].cod_pair):
            opunitor(p, interp)

    pairs = [sampling.random_composable_lenses(rng, sig, 2) for _ in range(n_pairs)]
    _run_law(report, "oplaxator_validity", pairs, oplaxator_valid)
    _run_law(report, "opunitor_validity", pairs, opunitors_valid)

    triples = [
        check_oplax_coherence(*sampling.random_composable_lenses(rng, sig, 3), interp)
        for _ in range(n_triples)
    ]
    for name in ("lax_associativity", "lax_left_unity", "lax_right_unity"):
        _run_law(report, name, [t.law(name) for t in triples], _triple_law)
    return report
