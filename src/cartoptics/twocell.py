"""Reparameterizations between optics, and the connectivity quotient.

A 2-cell from optic (M1, fw1, bw1) to (M2, fw2, bw2) is a residual map
r: M1 -> M2 making both squares commute:

    fw1 ; (r x B)  ==  fw2          (forward square)
    (r x B') ; bw2 ==  bw1          (backward square)

Equality is decided by the normalizer.  `Squares` holds one unique table per
square for a pair of optics: the sides that do not depend on r are pushed
into it once, and each witness pushes only its own part.  When a finite
interpretation is given every accepted square is cross-checked by exhaustive
evaluation.  `mk_two_cell` (and so `cartoptics check-cell`) reports a
rejected square together with a concrete separating input when one exists
under that interpretation; the witness search drops rejected candidates
without computing one.

`pi0_classes` computes connected components of a sampled hom-category,
treating cells as undirected edges and identifying optics whose residuals
and canonical forms are equal.  Witness search is a separate, bounded
enumeration over canonical forms; it can miss deep zigzags, so experiments
report the search depth alongside their results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .interp import Interp, extensional_counterexample
from .normal import UniqueTable, normalize
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


class Squares:
    """The two squares of the cells from src to tgt, for any number of witnesses.

    Each square has one unique table.  fw1 and fw2 are pushed into the
    forward table once, and a witness r pushes only `r x B` from fw1's output
    refs; bw1 is pushed into the backward table once, at the first forward
    square that holds, and r pushes `(r x B') ; bw2` from its inputs.  A
    square commutes exactly when both sides end at the same refs.
    """

    def __init__(self, src: Optic, tgt: Optic):
        if src.dom_pair != tgt.dom_pair or src.cod_pair != tgt.cod_pair:
            raise TermTypeError(
                f"cell endpoints have different boundaries: "
                f"{src.dom_pair}->{src.cod_pair} vs {tgt.dom_pair}->{tgt.cod_pair}"
            )
        self.src, self.tgt = src, tgt
        self._forward: tuple | None = None  # table, fw1's M refs, fw1's B refs, fw2's refs
        self._backward: tuple | None = None  # table, bw1's refs

    def sides(self, side: str, witness: Term) -> tuple[Term, Term]:
        """The left and right side of one square, as terms."""
        b_obj, b_back = self.src.cod_pair
        if side == "forward":
            return self.src.forward >> Ten(witness, Id(b_obj)), self.tgt.forward
        return Ten(witness, Id(b_back)) >> self.tgt.backward, self.src.backward

    def commutes(self, side: str, witness: Term) -> bool:
        """The normalizer's verdict on one square."""
        k = len(self.src.residual)
        if side == "forward":
            if self._forward is None:
                table = UniqueTable(len(self.src.forward.dom))
                fw1 = run(self.src.forward, table.inputs, table.apply)[0]
                fw2 = run(self.tgt.forward, table.inputs, table.apply)[0]
                self._forward = table, fw1[:k], fw1[k:], fw2
            table, ms, bs, want = self._forward
            return run(witness, ms, table.apply)[0] + bs == want
        if self._backward is None:
            table = UniqueTable(len(self.src.backward.dom))
            self._backward = table, run(self.src.backward, table.inputs, table.apply)[0]
        table, want = self._backward
        ms = run(witness, table.inputs[:k], table.apply)[0]
        return run(self.tgt.backward, ms + table.inputs[k:], table.apply)[0] == want

    def separating_input(self, side: str, witness: Term, interp: Interp | None) -> tuple | None:
        """The first input where the sides of one square differ, if interp is finite there."""
        dom = (self.src.forward if side == "forward" else self.src.backward).dom
        if interp is None or not interp.is_finite(dom):
            return None
        return extensional_counterexample(*self.sides(side, witness), interp)

    def failing_side(self, witness: Term, interp: Interp | None = None) -> str | None:
        """The first square the normalizer rejects, or None if both commute.

        An accepted square is cross-checked on every input when `interp` is
        finite on its domain; an input that separates it is a normalizer bug.
        """
        for side in ("forward", "backward"):
            if not self.commutes(side, witness):
                return side
            example = self.separating_input(side, witness, interp)
            if example is not None:
                raise NormalizerDisagreement(
                    f"{side} square: normalizer accepted but input {example} separates"
                )
        return None


def mk_two_cell(src: Optic, tgt: Optic, witness: Term, interp: Interp | None = None) -> TwoCell:
    """Validate both squares and build the cell; raises TwoCellError if invalid.

    The error names the failing square and, under a finite interpretation,
    an input that separates its sides.
    """
    squares = Squares(src, tgt)
    if witness.dom != src.residual or witness.cod != tgt.residual:
        raise TermTypeError(
            f"witness boundary {witness.dom} -> {witness.cod} does not match "
            f"residuals {src.residual} -> {tgt.residual}",
            expected=src.residual,
            actual=witness.dom,
        )
    side = squares.failing_side(witness, interp)
    if side is not None:
        example = squares.separating_input(side, witness, interp)
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
    """A finite sample of a hom-category: optics plus validated cells."""

    optics: tuple[Optic, ...]
    cells: tuple[TwoCell, ...] = ()


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


# --- bounded enumeration and witness search ---------------------------------


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


def _cells(
    src: Optic, tgt: Optic, candidates: Iterable[Term], interp: Interp | None
) -> list[TwoCell]:
    """The cells src -> tgt whose witnesses are among the candidates, in order."""
    squares = Squares(src, tgt)
    return [TwoCell(src, tgt, r) for r in candidates if squares.failing_side(r, interp) is None]


def find_witnesses(
    src: Optic, tgt: Optic, sig: Signature, depth: int, interp: Interp | None = None
) -> list[TwoCell]:
    """Try every bounded-depth residual map as a witness; keep the valid ones."""
    return _cells(src, tgt, enumerate_morphisms(sig, src.residual, tgt.residual, depth), interp)


def search_cells(
    optics: list[Optic], sig: Signature, depth: int, interp: Interp | None = None
) -> HomCatSample:
    """Connect a family of optics by exhaustive bounded-depth witness search.

    The candidate maps between two residuals are enumerated once per search.
    """
    pools: dict[tuple[Obj, Obj], list[Term]] = {}
    cells: list[TwoCell] = []
    for src, tgt in itertools.permutations(optics, 2):
        if src.dom_pair != tgt.dom_pair or src.cod_pair != tgt.cod_pair:
            continue
        key = (src.residual, tgt.residual)
        if key not in pools:
            pools[key] = list(enumerate_morphisms(sig, *key, depth))
        cells += _cells(src, tgt, pools[key], interp)
    return HomCatSample(tuple(optics), tuple(cells))
