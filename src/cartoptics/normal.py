"""Canonical forms: the decision procedure for term equality.

A morphism into a product is determined by its components, and each component
of a term over a free cartesian structure is an ordinary first-order term in
the input wires.  Copy, delete, swap and projections all disappear into wire
bookkeeping, which is why equality of canonical forms is sound and complete
for the equational theory generated by the cartesian structure.

A canonical form (`term.CanonicalForm`, imported here, so that
`normal.CanonicalForm` and forms pickled under that name resolve) is those
components written as one straight-line program (Wengert, 1964): a listing
of the distinct generator applications, each a row (generator, argument
refs), and one ref per output wire.  A ref is an input wire index or a
(node, output) pair.  Equal applications are one row (hash-consing,
Filliatre and Conchon 2006, with generators compared by value) and rows are
numbered in the order of a left-to-right, arguments-first walk from the
outputs, so two forms are equal exactly when their flat tuples are: the
dataclass `==` and `hash` decide sameness.

Normalizing is evaluation in the syntactic model: `normalize` pushes refs
through the term with `term.run`, the walker `evaluate` uses, and each
generator looks its row up in a unique table, appending it when new;
`UniqueTable.form` then keeps the live rows in walk order.  A term enters a
table only through `UniqueTable.push`, whose walk keeps the output of a
subterm it meets again (the same node, on the same input refs), so each
shared subterm is pushed once: the get pass that a lens composite's put
recomputes at every stage costs one walk, and normalizing takes time linear
in the term's distinct subterms rather than in its tree.  `normal_eq` pushes
both terms through one table and compares their output refs; `twocell`
decides both squares of a cell in one `UniqueTable` in the same way.
`term.run` runs a canonical form too, row by row through the `plan` the form
builds with itself; `read_back` is that run applying rows as terms, and
normalizing its term gives the form back.  `UniqueTable.pull` applies the
rows of a table that refs use again, through any `apply`: `form` renumbers
them, and `twocell` moves refs across tables with it.
"""

from __future__ import annotations

from collections import Counter

from .signature import Generator, Obj
from .term import Blocks, CanonicalForm, Gen, Node, Ref, Term, pairing, run, select_wire


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
            outs = self.outs[key] = tuple([(node, j) for j in range(len(rep.cod))])
        return outs

    def push(self, t: Term | Blocks | CanonicalForm, xs: tuple[Ref, ...]) -> tuple[Ref, ...]:
        """The refs t outputs on input refs xs, entering its rows in the table.

        This is how a morphism enters a table: one walk with a fresh memo, so
        a subterm shared by identity is pushed once per distinct input.  A
        canonical form is pushed row by row, each row once.
        """
        return run(t, xs, self.apply, memo={})

    def pull(self, refs, apply, leaf=None) -> tuple:
        """The new value of each ref when the rows it uses are applied again.

        A row's new outputs are `apply(gen, its arguments' new values)`, and
        an input is its own new value unless `leaf(ref)`, when given, gives a
        ref its value outright (None for no value): the walk does not go past
        such a ref.  Rows are visited left to right, arguments first, each
        applied once, on the walk's own stack.
        """
        rows, vals = self.rows, {}

        def value(r: Ref):
            if leaf is not None and (v := leaf(r)) is not None:
                return v
            return r if isinstance(r, int) else vals[r[0]][r[1]]

        def unmet(args: tuple[Ref, ...]) -> list[int]:  # the rows still to apply, rightmost first
            return [
                a[0] for a in reversed(args)
                if not isinstance(a, int) and a[0] not in vals and (leaf is None or leaf(a) is None)
            ]

        todo = unmet(refs)
        while todo:
            i = todo[-1]
            if i not in vals:
                gen, args = rows[i]
                todo += unmet(args)
                if todo[-1] != i:
                    continue
                vals[i] = apply(gen, tuple(map(value, args)))
            todo.pop()
        return tuple(map(value, refs))

    def form(self, dom: Obj, cod: Obj, outputs: tuple[Ref, ...]) -> CanonicalForm:
        """The rows the outputs use, renumbered in left-to-right walk order."""
        nodes: list[Node] = []

        def append(gen: Generator, args: tuple[Ref, ...]) -> tuple[Ref, ...]:
            n, k = len(nodes), len(gen.cod)
            nodes.append((gen, args))
            return ((n, 0),) if k == 1 else tuple([(n, j) for j in range(k)])

        outputs = self.pull(outputs, append)
        return CanonicalForm(dom, cod, tuple(nodes), outputs)


def normalize(t: Term) -> CanonicalForm:
    table = UniqueTable(len(t.dom))
    return table.form(t.dom, t.cod, table.push(t, table.inputs))


def normal_eq(f: Term | Blocks, g: Term | Blocks) -> bool:
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
    dom = cf.dom

    def row(gen: Generator, args: tuple[Term, ...]) -> tuple[Term, ...]:
        t, cod = pairing(list(args), dom) >> Gen(gen), gen.cod
        return (t,) if len(cod) == 1 else tuple([t >> select_wire(cod, j) for j in range(len(cod))])

    wires = tuple([select_wire(dom, i) for i in range(len(dom))])
    return pairing(list(run(cf, wires, row)), dom)


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
