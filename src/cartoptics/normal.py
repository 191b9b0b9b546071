"""Canonical forms: the decision procedure for term equality.

A morphism into a product is determined by its components, and each component
of a term over a free cartesian structure is an ordinary first-order term in
the input wires.  Copy, delete, swap and projections all disappear into wire
bookkeeping, which is why equality of canonical forms is sound and complete
for the equational theory generated by the cartesian structure.

A canonical form is those components written as one straight-line program
(Wengert, 1964): a listing of the distinct generator applications, each a row
(generator, argument refs), and one ref per output wire.  A ref is an input
wire index or a (node, output) pair.  Equal applications are one row
(hash-consing, Filliatre and Conchon 2006, with generators compared by value)
and rows are numbered in the order of a left-to-right, arguments-first walk
from the outputs, so two forms are equal exactly when their flat tuples are:
the dataclass `==` and `hash` decide sameness.

Normalizing is evaluation in the syntactic model: `normalize` pushes refs
through the term with `term.run`, the walker `evaluate` uses, and each
generator looks its row up in a unique table, appending it when new; one
renumbering pass then keeps the live rows in walk order.  A term enters a
table only through `UniqueTable.push`, whose walk keeps the output of a
subterm it meets again (the same node, on the same input refs), so each
shared subterm is pushed once: the get pass that a lens composite's put
recomputes at every stage costs one walk, and normalizing takes time linear
in the term's distinct subterms rather than in its tree.  `normal_eq` pushes
both terms through one table and compares their output refs; `twocell`
decides both squares of a cell in one `UniqueTable` in the same way.
`read_back` rebuilds a term (with explicit copies and projections) from a
canonical form; normalizing it gives it back.  `run_form` pushes values
through a canonical form row by row, each row once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .signature import Generator, Obj
from .term import Gen, Term, pairing, run, select_wire

Ref = int | tuple[int, int]
Node = tuple[Generator, tuple[Ref, ...]]


@dataclass(frozen=True)
class CanonicalForm:
    """A straight-line program dom -> cod: rows, arguments first, then outputs."""

    dom: Obj
    cod: Obj
    nodes: tuple[Node, ...]
    outputs: tuple[Ref, ...]

    def gen_node_count(self, names=None) -> int:
        if names is None:
            return len(self.nodes)
        return sum(1 for gen, _ in self.nodes if gen.name in names)

    def to_json(self) -> dict:
        def ref(r: Ref):
            return {"input": r} if isinstance(r, int) else {"node": r[0], "out": r[1]}

        return {
            "nodes": [{"gen": gen.name, "args": [ref(a) for a in args]} for gen, args in self.nodes],
            "outputs": [ref(r) for r in self.outputs],
        }


class UniqueTable:
    """One row per distinct generator application, within one call.

    A row is keyed on its generator and its argument refs; `apply` returns
    the refs of all its outputs.  Equal but distinct generator objects are
    merged.
    """

    def __init__(self, arity: int) -> None:
        self.inputs = tuple(range(arity))
        self.rows: list[Node] = []
        self.outs: dict[tuple, tuple[Ref, ...]] = {}
        self.reps: dict[int, Generator] = {}
        self.by_name: dict[str, list[Generator]] = {}

    def apply(self, gen: Generator, xs: tuple[Ref, ...]) -> tuple[Ref, ...]:
        rep = self.reps.get(id(gen))
        if rep is None:
            # compared by value only against generators of the same name
            named = self.by_name.setdefault(gen.name, [])
            rep = next((g for g in named if g == gen), None)
            if rep is None:
                rep = gen
                named.append(gen)
            self.reps[id(gen)] = rep
        key = (id(rep), xs)
        outs = self.outs.get(key)
        if outs is None:
            node = len(self.rows)
            self.rows.append((rep, xs))
            outs = self.outs[key] = tuple([(node, j) for j in range(len(rep.cod.sorts))])
        return outs

    def push(self, t: Term | CanonicalForm, xs: tuple[Ref, ...]) -> tuple[Ref, ...]:
        """The refs t outputs on input refs xs, entering its rows in the table.

        This is how a term enters a table: one walk with a fresh memo, so a
        subterm shared by identity is pushed once per distinct input.  A
        canonical form is pushed row by row, each row once.
        """
        if isinstance(t, CanonicalForm):
            return run_form(t, xs, self.apply)
        return run(t, xs, self.apply, memo={})[0]

    def form(self, dom: Obj, cod: Obj, outputs: tuple[Ref, ...]) -> CanonicalForm:
        """The rows the outputs use, renumbered in left-to-right walk order.

        A row is numbered once all its arguments are; the walk keeps its own
        stack, so deep forms cannot exhaust the interpreter's.
        """
        rows, new, nodes = self.rows, {}, []

        def ref(r: Ref) -> Ref:
            return r if isinstance(r, int) else (new[r[0]], r[1])

        todo = [r[0] for r in reversed(outputs) if not isinstance(r, int)]
        while todo:
            i = todo[-1]
            if i in new:
                todo.pop()
                continue
            gen, args = rows[i]
            pending = [a[0] for a in reversed(args) if not isinstance(a, int) and a[0] not in new]
            if pending:
                todo += pending
                continue
            todo.pop()
            new[i] = len(nodes)
            nodes.append((gen, tuple(map(ref, args))))
        return CanonicalForm(dom, cod, tuple(nodes), tuple(map(ref, outputs)))


def normalize(t: Term) -> CanonicalForm:
    table = UniqueTable(len(t.dom))
    return table.form(t.dom, t.cod, table.push(t, table.inputs))


def normal_eq(f: Term, g: Term) -> bool:
    """Equality in the free cartesian category (boundaries included).

    Both sides are pushed through one unique table, so their canonical
    forms are equal exactly when their output refs are.
    """
    if f.dom != g.dom or f.cod != g.cod:
        return False
    table = UniqueTable(len(f.dom))
    return table.push(f, table.inputs) == table.push(g, table.inputs)


def read_back(cf: CanonicalForm) -> Term:
    """A term denoting the canonical form; each row's term is built once."""
    dom, rows = cf.dom, []

    def term(r: Ref) -> Term:
        if isinstance(r, int):
            return select_wire(dom, r)
        node, out = r
        cod = cf.nodes[node][0].cod
        return rows[node] if len(cod) == 1 else rows[node] >> select_wire(cod, out)

    for gen, args in cf.nodes:
        rows.append(pairing([term(a) for a in args], dom) >> Gen(gen))
    return pairing([term(r) for r in cf.outputs], dom)


def run_form(cf: CanonicalForm, xs: tuple, apply) -> tuple:
    """Push the value tuple xs through a canonical form, as `term.run` does a term.

    Each row is applied once, so a row that many others share costs one
    application, where running its `read_back` term costs one per path.
    """
    vals: list[tuple] = []

    def value(r: Ref):
        return xs[r] if isinstance(r, int) else vals[r[0]][r[1]]

    for gen, args in cf.nodes:
        vals.append(apply(gen, tuple(map(value, args))))
    return tuple(map(value, cf.outputs))


def gen_occurrences(cf: CanonicalForm) -> Counter:
    """Generator occurrence counts in the tree the canonical form denotes.

    A row occurs in that tree once per path to it from the outputs.  One
    reverse pass over the rows (arguments come before their users) adds each
    row's path count to its arguments', so this costs time linear in the size
    of the form.  Keys come in the order of each generator's first row.
    """
    paths = [0] * len(cf.nodes)
    for r in cf.outputs:
        if not isinstance(r, int):
            paths[r[0]] += 1
    for node in range(len(cf.nodes) - 1, -1, -1):
        for a in cf.nodes[node][1]:
            if not isinstance(a, int):
                paths[a[0]] += paths[node]
    out: Counter = Counter()
    for (gen, _), k in zip(cf.nodes, paths):
        out[gen.name] += k
    return out
