"""Canonical forms: the decision procedure for term equality.

A morphism into a product is determined by its components, and each component
of a term over a free cartesian structure is an ordinary first-order term in
the input wires.  So the canonical form of a morphism is one tree per output
wire, whose leaves are input wire indices and whose internal nodes are
(generator, output-index) applications.  Copy, delete, swap and projections
all disappear into wire bookkeeping, which is why equality of canonical forms
is sound and complete for the equational theory generated by the cartesian
structure.

Normalizing is evaluation in the syntactic model: `normalize` pushes wire
variables through the term with `term.run`, the walker `evaluate` uses, and
each generator builds a node.  `read_back` rebuilds a term (with explicit
copies and projections) from a canonical form; normalizing it gives it back.

`normalize` hash-conses the wires (Filliatre and Conchon, "Type-safe modular
hash-consing", 2006): within one form equal subterms are one object, and
`normal_eq` compares two terms' wires by identity in one unique table.  For
finished forms, one listing of the distinct applications (`_listing`) decides
sameness: `==` and `hash` of forms and wires, and `dag.share_cf`, in time
linear in the number of distinct nodes.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

from .signature import Generator, Obj
from .term import Gen, Term, pairing, run, select_wire


@dataclass(frozen=True)
class Var:
    """An input wire."""

    index: int


@dataclass(frozen=True, eq=False)
class App:
    """Output `out_index` of a generator applied to argument wires.

    Equality and hash are structural: they compare or hash listings
    (`_listing`), which are not cached.
    """

    gen: Generator
    out_index: int
    args: tuple["WireTerm", ...]

    def __hash__(self) -> int:
        return hash(_listing((self,)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, App):
            return NotImplemented
        return _listing((self,)) == _listing((other,))


WireTerm = Var | App


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    dom: Obj
    cod: Obj
    wires: tuple[WireTerm, ...]

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, _listing(self.wires)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CanonicalForm):
            return NotImplemented
        return self.dom == other.dom and self.cod == other.cod and _listing(self.wires) == _listing(other.wires)


def _listing(wires: tuple[WireTerm, ...]) -> tuple[tuple, tuple]:
    """The distinct applications under the wires, numbered arguments first.

    A node is (generator, argument refs) and a ref is an input index or a
    (node, output) pair.  Equal applications are one node, with generators
    compared by value, and nodes are numbered in `postorder`, so two wire
    tuples are equal as trees exactly when their listings are equal, however
    much of either is shared.  Returns the nodes and the wires' refs.
    """
    index: dict[tuple, int] = {}
    refs: dict[int, tuple[int, int]] = {}

    def ref(w: WireTerm) -> int | tuple[int, int]:
        return w.index if isinstance(w, Var) else refs[id(w)]

    for w in postorder(wires):
        node = index.setdefault((w.gen, tuple(map(ref, w.args))), len(index))
        refs[id(w)] = (node, w.out_index)
    return tuple(index), tuple(map(ref, wires))


class _UniqueTable:
    """Hash-consing within one call: equal subterms become one object.

    An application is keyed on its generator and the identities of its
    (already unique) arguments; all its outputs are made together and share
    one argument tuple.  Equal but distinct generator objects are merged.
    """

    def __init__(self, arity: int) -> None:
        self.inputs = tuple(Var(i) for i in range(arity))
        self.apps: dict[tuple, tuple[App, ...]] = {}
        self.reps: dict[int, Generator] = {}
        self.by_name: dict[str, list[Generator]] = {}

    def apply(self, gen: Generator, xs: tuple[WireTerm, ...]) -> tuple[App, ...]:
        rep = self.reps.get(id(gen))
        if rep is None:
            # compared by value only against generators of the same name
            named = self.by_name.setdefault(gen.name, [])
            rep = next((g for g in named if g == gen), None)
            if rep is None:
                rep = gen
                named.append(gen)
            self.reps[id(gen)] = rep
        key = (id(rep), *map(id, xs))
        outs = self.apps.get(key)
        if outs is None:
            outs = self.apps[key] = tuple(App(rep, j, xs) for j in range(len(rep.cod)))
        return outs


def normalize(t: Term) -> CanonicalForm:
    table = _UniqueTable(len(t.dom))
    return CanonicalForm(t.dom, t.cod, run(t, table.inputs, table.apply)[0])


def normal_eq(f: Term, g: Term) -> bool:
    """Equality in the free cartesian category (boundaries included).

    Both sides are normalized into one unique table, so their canonical
    forms are equal exactly when their wires are the same objects.
    """
    if f.dom != g.dom or f.cod != g.cod:
        return False
    table = _UniqueTable(len(f.dom))
    fs, _ = run(f, table.inputs, table.apply)
    gs, _ = run(g, table.inputs, table.apply)
    return all(map(operator.is_, fs, gs))


def read_back(cf: CanonicalForm) -> Term:
    """A term denoting the canonical form."""
    return pairing(wire_terms(cf.wires, cf.dom), cf.dom)


def wire_terms(wires: tuple[WireTerm, ...], dom: Obj) -> list[Term]:
    """One term out of dom per wire; each distinct `App` object's term is
    built once and shared wherever the object occurs."""
    terms: dict[int, Term] = {}

    def term(w: WireTerm) -> Term:
        return select_wire(dom, w.index) if isinstance(w, Var) else terms[id(w)]

    for w in postorder(wires):
        t = pairing([term(a) for a in w.args], dom) >> Gen(w.gen)
        if len(w.gen.cod) > 1:
            t = t >> select_wire(w.gen.cod, w.out_index)
        terms[id(w)] = t
    return [term(w) for w in wires]


def postorder(wires: tuple[WireTerm, ...]) -> Iterator[App]:
    """Each distinct `App` object under the wires once, arguments first.

    The order is that of a left-to-right depth-first walk.  The walk keeps
    its own stack, so deep forms cannot exhaust the interpreter's.
    """
    done: set[int] = set()
    todo = [w for w in reversed(wires) if isinstance(w, App)]
    while todo:
        w = todo[-1]
        pending = [a for a in reversed(w.args) if isinstance(a, App) and id(a) not in done]
        if pending:
            todo += pending
            continue
        todo.pop()
        if id(w) not in done:
            done.add(id(w))
            yield w


def gen_occurrences(cf: CanonicalForm) -> Counter:
    """Generator occurrence counts in the canonical form, with multiplicity.

    A shared subterm is counted as many times as it occurs in the tree, but
    its counts are computed once per object (memoized on `id`), so a
    hash-consed form from `normalize` costs time linear in its DAG size.
    """
    counts: dict[int, Counter] = {}
    for w in postorder(cf.wires):
        total = Counter({w.gen.name: 1})
        for a in w.args:
            if isinstance(a, App):
                total.update(counts[id(a)])
        counts[id(w)] = total
    out: Counter = Counter()
    for w in cf.wires:
        if isinstance(w, App):
            out.update(counts[id(w)])
    return out
