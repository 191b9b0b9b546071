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
interpretation.

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
witness and bw2) and cross-checked by exhaustive evaluation.

`enumerate_wire_terms` and `enumerate_morphisms`, the bounded enumeration the
search replaced, stay: `perfbench/run.py` patches them by name, `bridge`
uses the first and tests use the second as an oracle.

`pi0_classes` computes connected components of a sample, treating cells as
undirected edges and identifying optics whose residuals and canonical forms
are equal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

from .interp import Interp, Runner, first_disagreement
from .normal import CanonicalForm, Ref, UniqueTable, normalize, read_back, run_form
from .optic import Optic, optic_compose
from .signature import Obj, Signature, Sort
from .term import Id, Ten, Term, TermTypeError, gen_wire, pairing, run, select_wire


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
    witness: Term


def _check_boundaries(src: Optic, tgt: Optic) -> None:
    if src.dom_pair != tgt.dom_pair or src.cod_pair != tgt.cod_pair:
        raise TermTypeError(
            f"cell endpoints have different boundaries: "
            f"{src.dom_pair}->{src.cod_pair} vs {tgt.dom_pair}->{tgt.cod_pair}"
        )


def _push(witness: Term | CanonicalForm, xs: tuple, apply) -> tuple:
    """Run a witness given as a term, or as a canonical form row by row."""
    if isinstance(witness, CanonicalForm):
        return run_form(witness, xs, apply)
    return run(witness, xs, apply)[0]


def _square_sides(src: Optic, tgt: Optic, side: str, witness: Term | CanonicalForm) -> tuple[Runner, Runner]:
    """The left and right side of one square, as runners `(xs, apply) -> outputs`."""
    k = len(src.residual)
    if side == "forward":

        def left(xs: tuple, apply) -> tuple:
            ys = run(src.forward, xs, apply)[0]
            return _push(witness, ys[:k], apply) + ys[k:]

        return left, lambda xs, apply: run(tgt.forward, xs, apply)[0]

    def left(xs: tuple, apply) -> tuple:
        return run(tgt.backward, _push(witness, xs[:k], apply) + xs[k:], apply)[0]

    return left, lambda xs, apply: run(src.backward, xs, apply)[0]


def _rejected_side(
    table: UniqueTable, fw1: tuple, fw2: tuple, bw1: Callable[[], tuple], ins: tuple, bw2: Term, witness
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
    """Evaluate the squares up to the rejected one on every input, where interp is finite.

    An input that separates an accepted square is a normalizer bug.  Returns
    the first input that separates the rejected square, if any.
    """
    for side in ("forward", "backward"):
        dom = (src.forward if side == "forward" else src.backward).dom
        example = None
        if interp is not None and interp.is_finite(dom):
            example = first_disagreement(dom, *_square_sides(src, tgt, side, witness), interp)
        if side == rejected:
            return example
        if example is not None:
            raise NormalizerDisagreement(f"{side} square: normalizer accepted but input {example} separates")
    return None


def mk_two_cell(src: Optic, tgt: Optic, witness: Term, interp: Interp | None = None) -> TwoCell:
    """Validate both squares and build the cell; raises TwoCellError if invalid.

    Both squares are decided in one unique table over A, M1 and B'.  The
    error names the failing square and, under a finite interpretation, an
    input that separates its sides.
    """
    _check_boundaries(src, tgt)
    if witness.dom != src.residual or witness.cod != tgt.residual:
        raise TermTypeError(
            f"witness boundary {witness.dom} -> {witness.cod} does not match "
            f"residuals {src.residual} -> {tgt.residual}",
            expected=src.residual,
            actual=witness.dom,
        )
    na = len(src.forward.dom)
    table = UniqueTable(na + len(src.backward.dom))
    a, ins = table.inputs[:na], table.inputs[na:]
    fw1, fw2 = table.push(src.forward, a), table.push(tgt.forward, a)
    side = _rejected_side(table, fw1, fw2, lambda: table.push(src.backward, ins), ins, tgt.backward, witness)
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


def vcompose(c1: TwoCell, c2: TwoCell, interp: Interp | None = None) -> TwoCell:
    """Compose along a shared middle optic (same representative required)."""
    if c1.tgt != c2.src:
        raise TermTypeError("vertical composition needs c1.tgt and c2.src to be the same representative")
    return mk_two_cell(c1.src, c2.tgt, c1.witness >> c2.witness, interp)


def hcompose(c1: TwoCell, c2: TwoCell, interp: Interp | None = None) -> TwoCell:
    """Compose side by side; the witness is the tensor of the witnesses."""
    src = optic_compose(c1.src, c2.src)
    tgt = optic_compose(c1.tgt, c2.tgt)
    return mk_two_cell(src, tgt, Ten(c1.witness, c2.witness), interp)


@dataclass(frozen=True)
class HomCatSample:
    """A finite sample of a hom-category: optics plus validated cells.

    A search also fills `counts`: counts[k] is the number of cells between
    the endpoints of cells[k], witnesses distinct up to normal form, and
    cells[k] is the first of them.
    """

    optics: tuple[Optic, ...]
    cells: tuple[TwoCell, ...] = ()
    counts: tuple[int, ...] = ()


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        self.parent[self.find(i)] = self.find(j)


def pi0_classes(sample: HomCatSample) -> list[list[int]]:
    """Connected components of the sample, as sorted lists of optic indices.

    Cells are undirected edges; optics with equal residuals and canonical
    forms are identified, as the identity witness joins them.
    """
    def key(o: Optic) -> tuple:
        return o.residual, normalize(o.forward), normalize(o.backward)

    uf = UnionFind(len(sample.optics))
    seen: dict[tuple, int] = {}
    for i, o in enumerate(sample.optics):
        uf.union(i, seen.setdefault(key(o), i))
    by_id = {id(o): i for i, o in enumerate(sample.optics)}

    def index_of(o: Optic) -> int:
        i = by_id[id(o)] if id(o) in by_id else seen.get(key(o))
        if i is None:
            raise ValueError("cell endpoint is not among the sampled optics")
        return i

    for c in sample.cells:
        uf.union(index_of(c.src), index_of(c.tgt))
    groups: dict[int, list[int]] = {}
    for i in range(len(sample.optics)):
        groups.setdefault(uf.find(i), []).append(i)
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


def _rebuild(rows: list, refs: list, leaf, apply) -> list:
    """Refs of a table rebuilt in another table, or in the same one.

    `leaf(ref)` gives a ref its new ref outright, or None; every other ref
    is a row, rebuilt from its rebuilt arguments by `apply(gen, args)`.  The
    walk keeps its own stack.
    """
    new: dict = {}
    todo = list(refs)
    while todo:
        r = todo[-1]
        if r in new:
            todo.pop()
            continue
        hit = leaf(r)
        if hit is None:
            gen, args = rows[r[0]]
            pending = [a for a in args if a not in new]
            if pending:
                todo += pending
                continue
            hit = apply(gen, tuple(new[a] for a in args))[r[1]]
        todo.pop()
        new[r] = hit
    return [new[r] for r in refs]


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
            fw = table.push(o.forward, table.inputs[:na])
            self.starts.append(start)
            self.fw.append(fw)
            self.bw.append(table.push(o.backward, table.inputs[start : start + k] + back))
            self.fibre.append((fw[k:], table.push(o.backward, fw[:k] + back)))
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
        canonical form.
        """
        k1, k2 = self.sizes[i], self.sizes[j]
        m1, m2 = self.fw[i][:k1], self.fw[j][:k2]
        if self.fw[i][k1:] != self.fw[j][k2:]:
            return 0, None
        bound = self.match(i, j)
        if bound is None:
            return 0, None
        rows, lo = self.table.rows, self.starts[i]
        # the bound wires must also close the forward square
        read = list(bound)
        landed = _rebuild(
            rows, [bound[w] for w in read], lambda r: m1[r - lo] if isinstance(r, int) else None,
            self.table.apply,
        )
        if any(ref != m2[w] for w, ref in zip(read, landed)):
            return 0, None
        # the wires bw_j does not read are constrained by the forward square only
        wires, solutions = self.solutions(i)
        free = [w for w in range(k2) if w not in bound]
        count = math.prod(solutions(m2[w]) for w in free)
        if not count:
            return 0, None
        # the first witness, as a listing over optic i's residual
        table = UniqueTable(k1)
        outs = dict(zip(read, _rebuild(
            rows, [bound[w] for w in read], lambda r: r - lo if isinstance(r, int) else None,
            table.apply,
        )))
        outs.update(zip(free, _rebuild(
            rows, [m2[w] for w in free], lambda r: wires[r][0] if r in wires else None,
            table.apply,
        )))
        src, tgt = self.optics[i].residual, self.optics[j].residual
        return count, table.form(src, tgt, tuple(outs[w] for w in range(k2)))


def _first_cell(passes: _Passes, i: int, j: int, interp: Interp | None) -> tuple[int, TwoCell | None]:
    """The number of cells from optic i to optic j, and the first, with its squares checked.

    The check pushes only the witness's canonical form and bw2 into the
    passes' table; the cell holds the term `read_back` builds from the form.
    """
    count, form = passes.decide(i, j)
    if not count:
        return 0, None
    src, tgt = passes.optics[i], passes.optics[j]
    lo = passes.starts[i]
    ins = (*range(lo, lo + passes.sizes[i]), *passes.back)
    side = _rejected_side(
        passes.table, passes.fw[i], passes.fw[j], lambda: passes.bw[i], ins, tgt.backward, form
    )
    _cross_check(src, tgt, form, side, interp)
    if side is not None:
        raise AssertionError(f"the matched witness fails the {side} square")
    return count, TwoCell(src, tgt, read_back(form))


def search_cells(optics: list[Optic], interp: Interp | None = None) -> HomCatSample:
    """Every cell between the optics of a family, decided exactly.

    Cells preserve erasure, so only ordered pairs with one boundary and one
    erasure are decided.  For each pair with cells the sample holds the first
    cell and the number of cells.
    """
    groups: dict[tuple, list[int]] = {}
    for i, o in enumerate(optics):
        groups.setdefault((o.dom_pair, o.cod_pair), []).append(i)
    place: dict[int, tuple[_Passes, int]] = {}
    for members in groups.values():
        passes = _Passes([optics[i] for i in members])
        place.update((i, (passes, n)) for n, i in enumerate(members))
    cells: list[TwoCell] = []
    counts: list[int] = []
    for i, j in itertools.permutations(range(len(optics)), 2):
        (p, a), (q, b) = place[i], place[j]
        if p is q and p.fibre[a] == p.fibre[b]:
            count, cell = _first_cell(p, a, b, interp)
            if count:
                cells.append(cell)
                counts.append(count)
    return HomCatSample(tuple(optics), tuple(cells), tuple(counts))
