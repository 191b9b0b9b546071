"""Symbolic morphism terms over a signature.

A term is a tree built from generators, identities, sequential and parallel
composition, and the cartesian structure maps (copy, delete, swap, and the two
projections).  Every node is well-typed at construction; `dom`/`cod` are
computed once and stored.  Terms are immutable, and they compare, hash, copy,
pickle and print at any depth; `repr` shows the term text, as in
`Seq('(f ; g)')`.

Composition is written `f >> g` (left to right) and tensor `f @ g`, matching
the textual syntax `f ; g` and `f * g` accepted by the expression parser.

`run` is the one walker of all three shapes of a morphism: a term, a
`Blocks` stage chain and a `CanonicalForm` (the program `normalize` gives).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, NamedTuple

from .signature import RESERVED, Generator, Obj, UNIT

if TYPE_CHECKING:
    from .interp import CostReport


class TermTypeError(TypeError):
    """A term constructor was given boundary-incompatible pieces."""

    def __init__(self, message: str, expected: Obj | None = None, actual: Obj | None = None):
        super().__init__(message)
        self.expected = expected
        self.actual = actual


class Term:
    """Base of the nine term classes, each a slotted class that stores its fields and dom/cod once.

    `==`, `hash`, `repr`, copying and pickling are defined here once and do
    not recurse.  A term is immutable: assigning or deleting any attribute
    raises AttributeError.  Each constructor stores through the slots' own
    member descriptors (`_set_dom`, `Seq.left.__set__`), which that guard
    does not see.  A term is not a dataclass, so `dataclasses.astuple` and
    `asdict` of a lens or optic keep each term whole (its deep copy is the
    term itself), and `astuple` of a term raises TypeError.
    """

    __slots__ = ("dom", "cod")
    dom: Obj
    cod: Obj

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable term")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable term")

    def __rshift__(self, other: "Term") -> "Term":
        return Seq(self, other)

    def __matmul__(self, other: "Term") -> "Term":
        return Ten(self, other)

    def __str__(self) -> str:
        return term_to_expr(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({term_to_expr(self)!r})"

    def __eq__(self, other: object) -> bool:
        # same constructor and arguments (`__match_args__`, not the derived boundary);
        # the children of Seq and Ten go on a stack, so terms of any depth compare
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [self, other]
        while todo:
            b, a = todo.pop(), todo.pop()
            if a is b:
                continue
            kind = a.__class__
            if kind is not b.__class__:
                return False
            if kind is Seq or kind is Ten:
                todo += (a.right, b.right, a.left, b.left)
            else:
                for name in kind.__match_args__:
                    if getattr(a, name) != getattr(b, name):
                        return False
        return True

    def __hash__(self) -> int:
        return hash((type(self), self.dom, self.cod))  # equal terms share both

    def __deepcopy__(self, memo: dict | None = None) -> "Term":
        return self  # terms are immutable: a copy, deep or not, is the term itself

    __copy__ = __deepcopy__

    def __reduce__(self):
        # pickled as its distinct nodes in post-order, a child as its index in
        # that list: the list is built on its own stack, so pickle recurses
        # into no term, and a subterm shared by identity is listed once
        index: dict[int, int] = {}
        nodes: list[tuple] = []
        todo = [self]
        while todo:
            t = todo[-1]
            if id(t) in index:
                todo.pop()
                continue
            kind = t.__class__
            if kind is Seq or kind is Ten:
                unlisted = [c for c in (t.right, t.left) if id(c) not in index]
                if unlisted:
                    todo += unlisted
                    continue
                node = (kind, index[id(t.left)], index[id(t.right)])
            else:
                node = (kind, *[getattr(t, name) for name in kind.__match_args__])
            index[id(t)] = len(nodes)
            nodes.append(node)
            todo.pop()
        return _unpickle, (nodes,)


def _unpickle(nodes: list[tuple]) -> Term:
    """The term `Term.__reduce__` listed: each node built once, children first."""
    built: list[Term] = []
    for kind, *args in nodes:
        if kind is Seq or kind is Ten:
            args = [built[i] for i in args]
        built.append(kind(*args))
    return built[-1]


class Gen(Term):
    __slots__ = __match_args__ = ("gen",)
    gen: Generator

    def __init__(self, gen: Generator) -> None:
        _set_gen(self, gen)
        _set_dom(self, gen.dom)
        _set_cod(self, gen.cod)


class Id(Term):
    __slots__ = __match_args__ = ("obj",)
    obj: Obj

    def __init__(self, obj: Obj) -> None:
        _set_id_obj(self, obj)
        _set_dom(self, obj)
        _set_cod(self, obj)


class Seq(Term):
    __slots__ = __match_args__ = ("left", "right")
    left: Term
    right: Term

    def __init__(self, left: Term, right: Term) -> None:
        if left.cod != right.dom:
            raise TermTypeError(
                f"cannot compose: left codomain {left.cod} != right domain {right.dom}",
                expected=left.cod,
                actual=right.dom,
            )
        _set_seq_left(self, left)
        _set_seq_right(self, right)
        _set_dom(self, left.dom)
        _set_cod(self, right.cod)


class Ten(Term):
    __slots__ = __match_args__ = ("left", "right")
    left: Term
    right: Term

    def __init__(self, left: Term, right: Term) -> None:
        _set_ten_left(self, left)
        _set_ten_right(self, right)
        _set_dom(self, left.dom @ right.dom)
        _set_cod(self, left.cod @ right.cod)


class Copy(Term):
    __slots__ = __match_args__ = ("obj",)
    obj: Obj

    def __init__(self, obj: Obj) -> None:
        _set_copy_obj(self, obj)
        _set_dom(self, obj)
        _set_cod(self, obj @ obj)


class Delete(Term):
    __slots__ = __match_args__ = ("obj",)
    obj: Obj

    def __init__(self, obj: Obj) -> None:
        _set_delete_obj(self, obj)
        _set_dom(self, obj)
        _set_cod(self, UNIT)


class Swap(Term):
    __slots__ = __match_args__ = ("first", "second")
    first: Obj
    second: Obj

    def __init__(self, first: Obj, second: Obj) -> None:
        _set_swap_first(self, first)
        _set_swap_second(self, second)
        _set_dom(self, first @ second)
        _set_cod(self, second @ first)


class Proj1(Term):
    __slots__ = __match_args__ = ("first", "second")
    first: Obj
    second: Obj

    def __init__(self, first: Obj, second: Obj) -> None:
        _set_proj1_first(self, first)
        _set_proj1_second(self, second)
        _set_dom(self, first @ second)
        _set_cod(self, first)


class Proj2(Term):
    __slots__ = __match_args__ = ("first", "second")
    first: Obj
    second: Obj

    def __init__(self, first: Obj, second: Obj) -> None:
        _set_proj2_first(self, first)
        _set_proj2_second(self, second)
        _set_dom(self, first @ second)
        _set_cod(self, second)


# each constructor stores through its slots' member descriptors, which `Term.__setattr__` does not see
_set_dom, _set_cod = Term.dom.__set__, Term.cod.__set__
_set_gen = Gen.gen.__set__
_set_id_obj = Id.obj.__set__
_set_seq_left, _set_seq_right = Seq.left.__set__, Seq.right.__set__
_set_ten_left, _set_ten_right = Ten.left.__set__, Ten.right.__set__
_set_copy_obj = Copy.obj.__set__
_set_delete_obj = Delete.obj.__set__
_set_swap_first, _set_swap_second = Swap.first.__set__, Swap.second.__set__
_set_proj1_first, _set_proj1_second = Proj1.first.__set__, Proj1.second.__set__
_set_proj2_first, _set_proj2_second = Proj2.first.__set__, Proj2.second.__set__


def graph(f: Term) -> Term:
    """The graph of f: copy the input and apply f to the second leg.

    Satisfies graph(f) >> Proj2 == f and graph(f) >> Proj1 == Id up to
    normalization.
    """
    return Copy(f.dom) >> (Id(f.dom) @ f)


def pairing(parts: list[Term], dom: Obj) -> Term:
    """Tuple morphisms sharing a domain into one morphism into the product."""
    for p in parts:
        if p.dom != dom:
            raise TermTypeError(
                f"pairing: component domain {p.dom} != {dom}", expected=dom, actual=p.dom
            )
    if not parts:
        return Delete(dom)
    t = parts[-1]
    for p in parts[-2::-1]:
        t = Copy(dom) >> (p @ t)
    return t


def select_wire(obj: Obj, i: int) -> Term:
    """Projection obj -> [obj[i]] built from Proj1/Proj2."""
    n = len(obj)
    if not 0 <= i < n:
        raise TermTypeError(f"select_wire: index {i} out of range for {obj}")
    if n == 1:
        return Id(obj)
    if i == 0:
        return Proj1(obj[:1], obj[1:])
    t: Term = Proj2(obj[:i], obj[i:])
    if i < n - 1:
        t = t >> Proj1(obj[i : i + 1], obj[i + 1 :])
    return t


def gen_wire(gen: Generator, out: int, args: list[Term], dom: Obj) -> Term:
    """Output `out` of gen applied to one argument term out of dom per input."""
    t = pairing(args, dom) >> Gen(gen)
    return t if len(gen.cod) == 1 else t >> select_wire(gen.cod, out)


# --- stage chains -------------------------------------------------------------


def _stages(t: Term) -> list[Term]:
    """The non-identity stages of a sequential composite, left to right."""
    out: list[Term] = []
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Seq):
            stack.append(t.right)
            stack.append(t.left)
        elif not isinstance(t, Id):
            out.append(t)
    return out


def _node(kind: type, left: Term, right: Term, dom: Obj, cod: Obj) -> Term:
    """`kind(left, right)` for a Seq or Ten kind whose boundary dom -> cod is known: not checked or recomputed."""
    t = kind.__new__(kind)
    kind.left.__set__(t, left)
    kind.right.__set__(t, right)
    _set_dom(t, dom)
    _set_cod(t, cod)
    return t


class Block(NamedTuple):
    """A sequential composite run under an identity context on the first k wires of its input."""

    k: int
    term: Term


class Blocks(NamedTuple):
    """A left-nested sequential composite dom -> cod kept as blocks: `run` walks it, `chain_term` builds it."""

    dom: Obj
    cod: Obj
    blocks: list[Block]


def chain_term(dom: Obj, blocks: list[Block]) -> Term:
    """The flat chain of the stages of blocks: a left-nested `Seq`, `Id(dom)` if there are none.

    Built, the stages of a block with k > 0 each go under the identity on
    the first k sorts of their input, c: a stage s becomes `Ten(Id(c), s)`,
    or `Ten(Id(c @ d), r)` if s is `Ten(Id(d), r)`.  A leading block with
    k = 0 is kept whole if it is already flat: a left-nested `Seq` whose
    stages are neither `Seq` nor `Id`, a single such stage, or a lone `Id`,
    which gives way to the first stage after it.
    """
    # the blocks' terms are well-typed and fit end to end, so each node is given its
    # own boundary, and a wrapped stage's domain is the previous stage's codomain object
    t = None  # the chain so far
    x = dom
    for k, block in blocks:
        if t is None or t.__class__ is Id:  # no stage yet
            if not k:
                s = block
                while s.__class__ is Seq and s.right.__class__ is not Seq and s.right.__class__ is not Id:
                    s = s.left
                if s.__class__ is not Seq and (s.__class__ is not Id or s is block):
                    t, x = block, block.cod
                    continue
            t = None  # a kept lone Id gives way to the stages after it
        if k:
            c = x[:k]  # the stages of a block leave its context as it is
            ctx = Id(c)
        for s in _stages(block):
            if k:
                left = ctx
                if s.__class__ is Ten and s.left.__class__ is Id:
                    left, s = Id(c @ s.left.obj), s.right
                s = _node(Ten, left, s, x, left.cod @ s.cod)
            t = s if t is None else _node(Seq, t, s, dom, s.cod)
            x = s.cod
    return Id(dom) if t is None else t


# --- canonical forms ----------------------------------------------------------

Ref = int | tuple[int, int]
Node = tuple[Generator, tuple[Ref, ...]]


@dataclass(frozen=True)
class CanonicalForm:
    """A straight-line program dom -> cod: rows, arguments first, then outputs.

    A ref is an input index or a (row, output) pair.  The `plan` that `run`
    follows is built with the form, not at its first run: perfbench's
    `chain-finite` runs each fresh form 8 times, so a lazy plan would land
    in 1 of 8 shared-run samples, above the tenth its p90 reads, at about
    the cost of a run.
    """

    dom: Obj
    cod: Obj
    nodes: tuple[Node, ...]
    outputs: tuple[Ref, ...]
    plan: tuple = field(init=False, compare=False, repr=False)  # derived, for `run`

    def __post_init__(self) -> None:
        # (each row's generator and argument fetch, the outputs' fetch, the
        # row generators' names); ref (node, j) is slot start[node] + j
        start: list[int] = []
        n = len(self.dom)
        rows = []
        for gen, args in self.nodes:
            rows.append((gen, _fetch(args, start)))
            start.append(n)
            n += len(gen.cod)
        names = tuple([gen.name for gen, _ in self.nodes])
        object.__setattr__(self, "plan", (tuple(rows), _fetch(self.outputs, start), names))

    def gen_node_count(self, names) -> int:
        return sum(1 for gen, _ in self.nodes if gen.name in names)

    def to_json(self) -> dict:
        def ref(r: Ref):
            return {"input": r} if isinstance(r, int) else {"node": r[0], "out": r[1]}

        return {
            "nodes": [{"gen": gen.name, "args": [ref(a) for a in args]} for gen, args in self.nodes],
            "outputs": [ref(r) for r in self.outputs],
        }


def _fetch(refs: tuple[Ref, ...], start: list[int]):
    """How to take refs' values from the flat list: one slot, an itemgetter over slots, or None for none."""
    slots = []
    for r in refs:  # a loop, not a comprehension, which costs a call per row
        slots.append(r if r.__class__ is int else start[r[0]] + r[1])
    k = len(slots)
    return slots[0] if k == 1 else itemgetter(*slots) if k else None


# --- running ----------------------------------------------------------------

_JOIN = object()  # marks where a tensor's right half is done


def run(
    t: Term | Blocks | CanonicalForm,
    xs: tuple,
    apply: Callable[[Generator, tuple], tuple],
    report: CostReport | None = None,
    memo: dict | None = None,
) -> tuple:
    """Push the value tuple xs through t and return the outputs.

    Values are opaque: `apply(gen, args)` gives a generator's outputs and the
    structure maps only move, duplicate and drop values.  Applying a finite
    interpretation evaluates t; looking rows up in a unique table normalizes
    it.  With a `report` (an `interp.CostReport`) given, the walk notes each
    application's generator name and each wire it copies, and when it ends
    adds the names to `report.generator_counts` in one update, so keys come
    in the order of each generator's first application, and the copies to
    `report.copies`; a walk that raises partway leaves the report as it was.
    The walk keeps its own stack, so terms of any depth run.  A `Blocks` runs
    block by block, each `Block` parking its context as the identity context
    of a `Ten` is parked, so it counts as its built term would.  A
    `CanonicalForm` runs row by row through its plan, each row applied and
    counted once, on one list of xs and then each row's outputs; a form
    given the wrong number of values raises ValueError.

    With `memo` given (an empty dict, one per call), a `Seq` node reached
    more than once is run once per distinct input: its first visit only
    marks it, from its second visit on its output is kept, keyed by the
    input, and a later visit with an equal input reuses it.  So a subterm
    shared by identity costs one walk, not one per path to it, and a term
    that shares nothing keeps no values.  The memo is keyed by node
    identity, which is sound while t, and so every node it reaches, is
    alive.  Values must be hashable and applications free of effects, so
    only `normal.UniqueTable.push` passes a memo; evaluation never does, and
    its counts stay exact.  A memo skips applications, so `report` and
    `memo` together raise ValueError.  A form keeps nothing in a memo.
    """
    if report is not None and memo is not None:
        raise ValueError("run: a memo skips applications, so a report cannot be kept with it")
    if t.__class__ is CanonicalForm:
        if len(xs) != len(t.dom):
            raise ValueError(f"run: expected {len(t.dom)} values for {t.dom}, got {len(xs)}")
        rows, outputs, names = t.plan
        vals = list(xs)
        for gen, fetch in rows:
            if fetch.__class__ is int:
                vals.extend(apply(gen, (vals[fetch],)))
            else:
                vals.extend(apply(gen, fetch(vals) if fetch is not None else ()))
        if report is not None:
            report.generator_counts.update(names)
        if outputs.__class__ is int:
            return (vals[outputs],)
        return outputs(vals) if outputs is not None else ()
    # Seq nodes are taken apart here without a memo, and by the memo branch with one
    descend = Seq if memo is None else None
    applied: list[str] | None = None if report is None else []  # generator names, in order
    copied = 0
    todo: list = []  # terms still to run, and the pieces of tensors in progress
    parked: list[tuple] = []  # left parts of tensor outputs, waiting for the right part
    while True:
        kind = type(t)
        while kind is descend:
            todo.append(t.right)
            t = t.left
            kind = type(t)
        if kind is Ten:
            k = len(t.left.dom)
            if type(t.left) is Id:
                # the identity context of a composed optic stage: park it for the join
                parked.append(xs[:k])
                todo.append(_JOIN)
                xs = xs[k:]
                t = t.right
                continue
            # left half now; then park its output, run the right half on the rest, join
            todo += (_JOIN, t.right, xs[k:])
            xs = xs[:k]
            t = t.left
            continue
        if kind is Gen:
            if applied is not None:
                applied.append(t.gen.name)
            xs = apply(t.gen, xs)
        elif kind is tuple:  # a left half is done: park it, take up the right half's input
            parked.append(xs)
            xs = t
        elif t is _JOIN:
            xs = parked.pop() + xs
        elif kind is Id:
            pass
        elif kind is Copy:
            copied += len(t.obj)
            xs = xs + xs
        elif kind is Delete:
            xs = ()
        elif kind is Swap:
            k = len(t.first)
            xs = xs[k:] + xs[:k]
        elif kind is Proj1:
            xs = xs[: len(t.first)]
        elif kind is Proj2:
            xs = xs[len(t.first) :]
        elif kind is Seq:  # only with a memo: down t's left spine, all on input xs
            while kind is Seq:
                key = id(t)
                if key not in memo:  # first visit: mark it, keep nothing
                    memo[key] = None
                else:
                    kept = memo[key]
                    if kept is None:  # second visit: keep its outputs from now on
                        kept = memo[key] = {}
                    elif xs in kept:
                        xs = kept[xs]
                        break
                    todo.append([kept, xs])  # where t's output is kept once it is done
                todo.append(t.right)
                t = t.left
                kind = type(t)
            else:
                continue
        elif kind is list:  # a kept Seq node is done: keep its output under its input
            t[0][t[1]] = xs
        elif kind is Block:  # its context parked as a Ten's identity context is
            k = t.k
            if k:
                parked.append(xs[:k])
                todo.append(_JOIN)
                xs = xs[k:]
            t = t.term
            continue
        elif kind is Blocks:  # its blocks, the first on top
            todo += reversed(t.blocks)
        else:
            raise TypeError(f"not a term: {t!r}")
        if not todo:
            if report is not None:
                report.generator_counts.update(applied)
                report.copies += copied
            return xs
        t = todo.pop()


# --- printing ---------------------------------------------------------------

# The word of each structure map in the term syntax (`expr`), in the order of RESERVED.
WORDS = dict(zip((Copy, Delete, Id, Swap, Proj1, Proj2), RESERVED))


def _obj_expr(obj: Obj) -> str:
    return " ".join(s.name for s in obj)


def term_to_expr(t: Term) -> str:
    """Render a term in the textual expression syntax (parseable back).

    The walk keeps its own stack, so terms of any depth print.
    """
    out: list[str] = []
    todo: list = [t]  # terms still to print, and the text between them
    while todo:
        t = todo.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Gen):
            out.append(t.gen.name)
        elif isinstance(t, (Copy, Delete, Id)):
            out.append(f"{WORDS[type(t)]}[{_obj_expr(t.obj)}]")
        elif isinstance(t, (Swap, Proj1, Proj2)):
            out.append(f"{WORDS[type(t)]}[{_obj_expr(t.first)},{_obj_expr(t.second)}]")
        elif isinstance(t, (Seq, Ten)):
            out.append("(")
            todo += (")", t.right, " ; " if isinstance(t, Seq) else " * ", t.left)
        else:
            raise TypeError(f"not a term: {t!r}")
    return "".join(out)
