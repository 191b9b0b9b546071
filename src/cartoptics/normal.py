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
hash-consing", 2006): within one form, equal subterms are one object, so the
form is its own shared DAG.  Forms from separate calls still compare and hash
structurally, in time linear in the size of that DAG.
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

    The hash is computed on first use and kept, from the generator's name,
    the output index and the arguments' hashes.  Equality is structural
    (`_wires_equal`).
    """

    gen: Generator
    out_index: int
    args: tuple["WireTerm", ...]
    _hash = None  # not a field: set by _hash_below

    def __hash__(self) -> int:
        if self._hash is None:
            _hash_below(self)
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: recompute on unpickling
        return App, (self.gen, self.out_index, self.args)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, App):
            return NotImplemented
        return _wires_equal((self,), (other,))


def _hash_below(w: App) -> None:
    """Hash w and its unhashed descendants, arguments first, without recursion."""
    todo = [w]
    while todo:
        a = todo[-1]
        pending = [b for b in a.args if isinstance(b, App) and b._hash is None]
        if pending:
            todo.extend(pending)
            continue
        todo.pop()
        object.__setattr__(a, "_hash", hash((a.gen.name, a.out_index, a.args)))


WireTerm = Var | App


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    dom: Obj
    cod: Obj
    wires: tuple[WireTerm, ...]

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.wires))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CanonicalForm):
            return NotImplemented
        return self.dom == other.dom and self.cod == other.cod and _wires_equal(self.wires, other.wires)


def _wires_equal(xs: tuple[WireTerm, ...], ys: tuple[WireTerm, ...]) -> bool:
    """Structural equality of wire tuples, visiting each node pair once."""
    if len(xs) != len(ys):
        return False
    seen: set[tuple[int, int]] = set()
    todo = list(zip(xs, ys))
    while todo:
        a, b = todo.pop()
        if a is b or (id(a), id(b)) in seen:
            continue
        if isinstance(a, Var) or isinstance(b, Var):
            if a != b:
                return False
            continue
        if hash(a) != hash(b) or a.out_index != b.out_index or len(a.args) != len(b.args):
            return False
        if not (a.gen is b.gen or a.gen == b.gen):
            return False
        seen.add((id(a), id(b)))
        todo.extend(zip(a.args, b.args))
    return True


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
    """A term denoting the canonical form (shared subtrees are duplicated)."""
    return pairing([_wire_term(w, cf.dom) for w in cf.wires], cf.dom)


def _wire_term(w: WireTerm, dom: Obj) -> Term:
    if isinstance(w, Var):
        return select_wire(dom, w.index)
    args = pairing([_wire_term(a, dom) for a in w.args], dom)
    t = args >> Gen(w.gen)
    if len(w.gen.cod) > 1:
        t = t >> select_wire(w.gen.cod, w.out_index)
    return t


def postorder(wires: tuple[WireTerm, ...]) -> Iterator[App]:
    """Each distinct `App` object under the wires once, arguments first.

    The order is that of a left-to-right depth-first walk.  The walk keeps
    its own stack, so deep forms cannot exhaust the interpreter's.
    """
    done: set[int] = set()
    todo: list[tuple[WireTerm, bool]] = [(w, False) for w in reversed(wires)]
    while todo:
        w, expanded = todo.pop()
        if isinstance(w, Var) or id(w) in done:
            continue
        if expanded:
            done.add(id(w))
            yield w
        else:
            todo.append((w, True))
            todo.extend((a, False) for a in reversed(w.args))


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
