"""Reparameterizations between optics, and the connectivity quotient.

A 2-cell from optic (M1, fw1, bw1) to (M2, fw2, bw2) is a residual map
r: M1 -> M2 making both squares commute:

    fw1 ; (r x B)  ==  fw2          (forward square)
    (r x B') ; bw2 ==  bw1          (backward square)

Equality is decided by the normalizer, in one unique table that holds both
squares: the forward square commutes when the witness moves fw1's residual
refs onto fw2's, and only then is bw1 pushed, over M1 and B', for the
backward square to end at.  A witness may be given as its canonical form,
which runs row by row, each row once.  When a finite interpretation is given
every accepted square is cross-checked by exhaustive evaluation.
`mk_two_cell` (and so `cartoptics check-cell`) reports a rejected square
together with a concrete separating input when one exists under that
interpretation.  Both the table and the cross-check take the passes an
optic stores (`Optic.passes`): a composite's are pushed and run as its
`term.Blocks`, so no cell check and no search builds its terms.

`search_cells` decides every cell between the optics of a family exactly,
with no candidate enumeration.  Cells preserve erasure, so only ordered
pairs in one fibre of `erase` can have cells.  Each optic's passes are
pushed once into one unique table per boundary.  Matching bw2 against bw1
row by row binds every residual wire bw2 reads to the one ref it must be,
or fails; each bound ref must land on fw2's ref once moved into the forward
pass.  The wires bw2 does not read meet the forward square only, and one
pass over the table's rows counts their solutions.  So each pair gets its
exact number of cells (witnesses distinct up to normal form) and its first
witness, whose squares are checked in that same table (pushing only the
witness and bw2) and cross-checked by exhaustive evaluation.  Moving refs
into the forward pass and building the witness are both
`UniqueTable.pull`, stopping at residual wires.  The cell keeps that form
as its witness; pasting reads it back to a term.

`enumerate_wire_terms` and `enumerate_morphisms`, the bounded enumeration the
search replaced, stay: `perfbench/run.py` patches them by name, `bridge`
uses the first and tests use the second as an oracle.

`pi0_classes` computes connected components of a sample from the search's
edges alone, each an undirected (source index, target index) pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

from .interp import EnumerationCapError, Interp, Runner, first_disagreement
from .normal import CanonicalForm, Ref, UniqueTable, read_back
from .optic import Optic, optic_compose
from .signature import FiniteCarrier, Obj, Signature, Sort
from .term import Blocks, Id, Ten, Term, TermTypeError, gen_wire, pairing, run, select_wire


class TwoCellError(ValueError):
    """A candidate residual map fails one of the two squares."""

    def __init__(self, side: str, message: str, counterexample: tuple | None = None):
        super().__init__(message)
        self.side = side
        self.counterexample = counterexample


class NormalizerDisagreement(AssertionError):
    """Normalizer said equal but exhaustive evaluation disagreed (a bug)."""


@dataclass(frozen=True)
class TwoCell:
    src: Optic
    tgt: Optic
    witness: Term | CanonicalForm


def _boundary(o: Optic) -> str:
    return f"{o.dom_pair[0]} / {o.dom_pair[1]} -> {o.cod_pair[0]} / {o.cod_pair[1]}"


def check_boundaries(src: Optic, tgt: Optic, witness: Term | CanonicalForm | None = None) -> None:
    """Raise TermTypeError unless the endpoints, and the witness if given, fit one cell."""
    if src.dom_pair != tgt.dom_pair or src.cod_pair != tgt.cod_pair:
        raise TermTypeError(f"cell endpoints have different boundaries: {_boundary(src)} vs {_boundary(tgt)}")
    if witness is not None and (witness.dom != src.residual or witness.cod != tgt.residual):
        raise TermTypeError(
            f"witness boundary {witness.dom} -> {witness.cod} does not match "
            f"residuals {src.residual} -> {tgt.residual}",
            expected=src.residual,
            actual=witness.dom,
        )


def _square_sides(src: Optic, tgt: Optic, side: str, witness: Term | CanonicalForm) -> tuple[Runner, Runner]:
    """The left and right side of one square, as runners `(xs, apply) -> outputs`."""
    k = len(src.residual)
    (fw1, bw1), (fw2, bw2) = src.passes, tgt.passes
    if side == "forward":

        def left(xs: tuple, apply) -> tuple:
            ys = run(fw1, xs, apply)
            return run(witness, ys[:k], apply) + ys[k:]

        return left, partial(run, fw2)

    def left(xs: tuple, apply) -> tuple:
        return run(bw2, run(witness, xs[:k], apply) + xs[k:], apply)

    return left, partial(run, bw1)


def _rejected_side(
    table: UniqueTable, fw1: tuple, fw2: tuple, bw1: Callable[[], tuple], ins: tuple, bw2: Term | Blocks, witness
) -> str | None:
    """The first square the normalizer rejects, or None if both commute.

    `table` holds fw1's and fw2's refs over A, and `ins` are its inputs for
    M1 and B'.  The forward square commutes when the witness moves fw1's
    residual refs onto fw2's; only then is `bw1()`, bw1's refs over `ins`,
    asked for, for `(r x B') ; bw2` to end at.
    """
    k = len(witness.dom)
    if table.push(witness, fw1[:k]) + fw1[k:] != fw2:
        return "forward"
    want = bw1()
    if table.push(bw2, table.push(witness, ins[:k]) + ins[k:]) != want:
        return "backward"
    return None


def _cross_check(
    src: Optic, tgt: Optic, witness: Term | CanonicalForm, rejected: str | None, interp: Interp | None
) -> tuple | None:
    """Evaluate the squares up to the rejected one on every input, where their inputs can be listed.

    A square's inputs can be listed when its domain is finite and within
    `TUPLE_CAP` tuples; the normal forms alone decide the others.  Below the
    cap the time grows with the input count: on the optic chain of
    `build_chain(n)`, whose backward square has n + 1 two-element wires,
    `identity_cell` takes 0.8 s at n = 16, 3.9 s at 18, and 0.00 s at 19,
    whose 2^20 inputs exceed the cap (Python 3.11, 2 CPUs).  An input
    that separates an accepted square is a normalizer bug.  Returns the
    first input that separates the rejected square, if any.
    """
    for side, p in zip(("forward", "backward"), src.passes):
        dom = p.dom
        example = None
        if interp is not None and all(isinstance(s.carrier, FiniteCarrier) for s in dom):
            try:
                example = first_disagreement(dom, *_square_sides(src, tgt, side, witness), interp)
            except EnumerationCapError:
                pass
        if side == rejected:
            return example
        if example is not None:
            raise NormalizerDisagreement(f"{side} square: normalizer accepted but input {example} separates")
    return None


def mk_two_cell(src: Optic, tgt: Optic, witness: Term | CanonicalForm, interp: Interp | None = None) -> TwoCell:
    """Validate both squares and build the cell; raises TwoCellError if invalid.

    The witness is a term, or a canonical form, which runs row by row.  Both
    squares are decided in one unique table over A, M1 and B'.  The error
    names the failing square and, under a finite interpretation, an input
    that separates its sides, if the square's inputs can be listed: at most
    `TUPLE_CAP` of them.  Above the cap the normal forms alone decide the
    square, and the error names no input; `_cross_check` says what listing
    costs below it.
    """
    check_boundaries(src, tgt, witness)
    (fw1, bw1), (fw2, bw2) = src.passes, tgt.passes
    na = len(fw1.dom)
    table = UniqueTable(na + len(bw1.dom))
    a, ins = table.inputs[:na], table.inputs[na:]
    refs1, refs2 = table.push(fw1, a), table.push(fw2, a)
    side = _rejected_side(table, refs1, refs2, lambda: table.push(bw1, ins), ins, bw2, witness)
    example = _cross_check(src, tgt, witness, side, interp)
    if side is not None:
        raise TwoCellError(
            side,
            f"{side} square does not commute"
            + (f"; separating input {example}" if example is not None else ""),
            counterexample=example,
        )
    return TwoCell(src, tgt, witness)


def identity_cell(o: Optic, interp: Interp | None = None) -> TwoCell:
    return mk_two_cell(o, o, Id(o.residual), interp)


def _term(witness: Term | CanonicalForm) -> Term:
    """A witness as a term: a searched cell holds its canonical form, read back here."""
    return read_back(witness) if isinstance(witness, CanonicalForm) else witness


def vcompose(c1: TwoCell, c2: TwoCell, interp: Interp | None = None) -> TwoCell:
    """Compose along a shared middle optic (same representative required)."""
    if c1.tgt != c2.src:
        raise TermTypeError("vertical composition needs c1.tgt and c2.src to be the same representative")
    return mk_two_cell(c1.src, c2.tgt, _term(c1.witness) >> _term(c2.witness), interp)


def hcompose(c1: TwoCell, c2: TwoCell, interp: Interp | None = None) -> TwoCell:
    """Compose side by side; the witness is the tensor of the witnesses."""
    src = optic_compose(c1.src, c2.src)
    tgt = optic_compose(c1.tgt, c2.tgt)
    return mk_two_cell(src, tgt, Ten(_term(c1.witness), _term(c2.witness)), interp)


@dataclass(frozen=True)
class HomCatSample:
    """A finite sample of a hom-category: optics plus validated cells.

    edges[k] = (i, j, count) belongs to cells[k]: there are `count` cells
    from optics[i] to optics[j], witnesses distinct up to normal form, and
    cells[k] is the first of them.
    """

    optics: tuple[Optic, ...]
    cells: tuple[TwoCell, ...] = ()
    edges: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.cells):
            raise ValueError(f"{len(self.cells)} cells but {len(self.edges)} edges: each cell needs its edge")


def pi0_classes(sample: HomCatSample) -> list[list[int]]:
    """Connected components of the sample, as sorted lists of optic indices.

    Edges are undirected.  Optics with equal residuals and canonical forms
    need no identifying of their own: the identity is a cell between them
    both ways, so the search gives them an edge each way.
    """
    parent = list(range(len(sample.optics)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j, _ in sample.edges:
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(len(parent)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


# --- bounded enumeration ------------------------------------------------------


def enumerate_wire_terms(sig: Signature, dom: Obj, target: Sort, depth: int) -> list[Term]:
    """All canonical wire terms dom -> [target], depth-bounded.

    The projections of dom onto target come first, in wire order, then each
    generator output of sort target over every tuple of shallower arguments.
    A term of a shallower depth is built once and shared by the deeper ones.
    """
    memo: dict[tuple[Sort, int], list[Term]] = {}

    def go(sort: Sort, d: int) -> list[Term]:
        key = (sort, d)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = [select_wire(dom, i) for i, s in enumerate(dom) if s == sort]
        if d > 0:
            for g in sig.generators:
                for j, c in enumerate(g.cod):
                    if c != sort:
                        continue
                    pools = [go(s, d - 1) for s in g.dom]
                    for args in itertools.product(*pools):
                        out.append(gen_wire(g, j, list(args), dom))
        memo[key] = out
        return out

    return go(target, depth)


def enumerate_morphisms(sig: Signature, dom: Obj, cod: Obj, depth: int) -> Iterator[Term]:
    """Distinct-by-canonical-form representatives dom -> cod up to term depth."""
    pools = [enumerate_wire_terms(sig, dom, s, depth) for s in cod]
    for parts in itertools.product(*pools):
        yield pairing(list(parts), dom)


# --- deciding the cells by matching ---------------------------------------------


class _Passes:
    """The passes of a family of optics with one boundary, each pushed once.

    One unique table holds them all.  Its inputs are A, then B', then a block
    of fresh residual inputs per optic.  Each forward pass runs over A, and
    gives its residual refs and its B refs.  Each backward pass runs over
    its own block and B', which is what matching compares, and over its
    forward residual refs and B', which is the put of its erasure.  So two
    optics lie in one fibre of `erase` exactly when their B refs and their
    erased puts are the same refs.
    """

    def __init__(self, optics: list[Optic]):
        a, _ = optics[0].dom_pair
        _, b_back = optics[0].cod_pair
        na, nb = len(a), len(b_back)
        self.optics = optics
        self.sizes = [len(o.residual) for o in optics]
        table = self.table = UniqueTable(na + nb + sum(self.sizes))
        back = table.inputs[na : na + nb]
        self.back = range(na, na + nb)
        self.starts, self.fw, self.bw, self.fibre = [], [], [], []
        start = na + nb
        for o, k in zip(optics, self.sizes):
            forward, backward = o.passes
            fw = table.push(forward, table.inputs[:na])
            self.starts.append(start)
            self.fw.append(fw)
            self.bw.append(table.push(backward, table.inputs[start : start + k] + back))
            self.fibre.append((fw[k:], table.push(backward, fw[:k] + back)))
            start += k
        reads = self.reads_back = []  # per row: does it read B' (which no witness sees)?
        for _, args in table.rows:
            reads.append(any(x in self.back if isinstance(x, int) else reads[x[0]] for x in args))
        self._solutions: dict[int, tuple] = {}

    def match(self, i: int, j: int) -> dict[int, Ref] | None:
        """The ref over optic i's block that each residual wire bw_j reads must be.

        First-order matching of bw_j against bw_i, row by row, with
        generators compared by table identity; None on a conflict, or when
        a wire would have to read B'.
        """
        rows, lo, k = self.table.rows, self.starts[j], self.sizes[j]
        bound: dict[int, Ref] = {}
        seen: dict[int, int] = {}  # pattern row -> the row it matched
        todo = list(zip(self.bw[j], self.bw[i]))
        while todo:
            p, t = todo.pop()
            if isinstance(p, int):
                if lo <= p < lo + k:
                    if bound.setdefault(p - lo, t) != t:
                        return None
                elif p != t:
                    return None
                continue
            if isinstance(t, int) or p[1] != t[1]:
                return None
            hit = seen.get(p[0])
            if hit is None:
                seen[p[0]] = t[0]
                (gp, ps), (gt, ts) = rows[p[0]], rows[t[0]]
                if gp is not gt:
                    return None
                todo += zip(ps, ts)
            elif hit != t[0]:
                return None
        if any(t in self.back if isinstance(t, int) else self.reads_back[t[0]] for t in bound.values()):
            return None
        return bound

    def solutions(self, i: int) -> tuple[dict, Callable[[Ref], int]]:
        """Forward-square solutions over optic i's residual, counted row by row.

        A solution for a forward ref is a residual wire whose forward ref it
        is, or a generator row applied to solutions for its arguments.  So
        its count is the number of such wires plus, for a row, the product of
        its arguments' counts: one pass over the rows, arguments first.
        Returns the wires on each ref and the count of a ref.
        """
        got = self._solutions.get(i)
        if got is None:
            wires: dict[Ref, list[int]] = {}
            for q, r in enumerate(self.fw[i][: self.sizes[i]]):
                wires.setdefault(r, []).append(q)
            prods: list[int] = []

            def count(x: Ref) -> int:
                return len(wires.get(x, ())) + (0 if isinstance(x, int) else prods[x[0]])

            for _, args in self.table.rows:
                prods.append(math.prod(map(count, args)))
            got = self._solutions[i] = wires, count
        return got

    def decide(self, i: int, j: int) -> tuple[int, CanonicalForm | None]:
        """The number of cells from optic i to optic j, and the first witness.

        Witnesses are counted distinct up to normal form.  The first is the
        one a bounded enumeration would list first: on each wire a residual
        wire before a generator, the lowest wire first.  It comes as its
        canonical form.  Optics i and j must lie in one fibre of erasure,
        the only pairs `search_cells` decides, so their B refs are the same.
        """
        k1, k2 = self.sizes[i], self.sizes[j]
        m1, m2 = self.fw[i][:k1], self.fw[j][:k2]
        bound = self.match(i, j)
        if bound is None:
            return 0, None
        lo, refs = self.starts[i], list(bound.values())
        # the bound wires must also close the forward square
        landed = self.table.pull(refs, self.table.apply, lambda r: m1[r - lo] if isinstance(r, int) else None)
        if landed != tuple(m2[w] for w in bound):
            return 0, None
        # the wires bw_j does not read are constrained by the forward square only
        wires, solutions = self.solutions(i)
        free = [w for w in range(k2) if w not in bound]
        count = math.prod(solutions(m2[w]) for w in free)
        if not count:
            return 0, None
        # the first witness, as a listing over optic i's residual
        table = UniqueTable(k1)
        outs = dict(zip(bound, self.table.pull(refs, table.apply, lambda r: r - lo if isinstance(r, int) else None)))
        outs.update(zip(free, self.table.pull(
            [m2[w] for w in free], table.apply, lambda r: wires[r][0] if r in wires else None
        )))
        src, tgt = self.optics[i].residual, self.optics[j].residual
        return count, table.form(src, tgt, tuple(outs[w] for w in range(k2)))


def _first_cell(passes: _Passes, i: int, j: int, interp: Interp | None) -> tuple[int, TwoCell | None]:
    """The number of cells from optic i to optic j, and the first, with its squares checked.

    The check pushes only the witness's canonical form and bw2 into the
    passes' table; the cell holds that form as its witness.
    """
    count, form = passes.decide(i, j)
    if not count:
        return 0, None
    src, tgt = passes.optics[i], passes.optics[j]
    lo = passes.starts[i]
    ins = (*range(lo, lo + passes.sizes[i]), *passes.back)
    side = _rejected_side(
        passes.table, passes.fw[i], passes.fw[j], lambda: passes.bw[i], ins, tgt.passes[1], form
    )
    _cross_check(src, tgt, form, side, interp)
    if side is not None:
        raise AssertionError(f"the matched witness fails the {side} square")
    return count, TwoCell(src, tgt, form)


def search_cells(optics: list[Optic], interp: Interp | None = None) -> HomCatSample:
    """Every cell between the optics of a family, decided exactly.

    Cells preserve erasure, so only ordered pairs with one boundary and one
    erasure are decided.  For each pair with cells the sample holds the first
    cell, its witness a canonical form, and the edge (i, j, number of cells).
    """
    groups: dict[tuple, list[int]] = {}
    for i, o in enumerate(optics):
        groups.setdefault((o.dom_pair, o.cod_pair), []).append(i)
    place: dict[int, tuple[_Passes, int]] = {}
    for members in groups.values():
        passes = _Passes([optics[i] for i in members])
        place.update((i, (passes, n)) for n, i in enumerate(members))
    cells: list[TwoCell] = []
    edges: list[tuple[int, int, int]] = []
    for i, j in itertools.permutations(range(len(optics)), 2):
        (p, a), (q, b) = place[i], place[j]
        if p is q and p.fibre[a] == p.fibre[b]:
            count, cell = _first_cell(p, a, b, interp)
            if count:
                cells.append(cell)
                edges.append((i, j, count))
    return HomCatSample(tuple(optics), tuple(cells), tuple(edges))
