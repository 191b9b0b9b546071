"""Symbolic morphism terms over a signature.

A term is a tree built from generators, identities, sequential and parallel
composition, and the cartesian structure maps (copy, delete, swap, and the two
projections).  Every node is well-typed at construction; `dom`/`cod` are
computed once and stored.  Terms are immutable, and they compare, hash, copy,
pickle and print at any depth; `repr` shows the term text, as in
`Seq('(f ; g)')`.

Composition is written `f >> g` (left to right) and tensor `f @ g`, matching
the textual syntax `f ; g` and `f * g` accepted by the expression parser.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .signature import RESERVED, Generator, Obj, UNIT

if TYPE_CHECKING:
    from .interp import CostReport


class TermTypeError(TypeError):
    """A term constructor was given boundary-incompatible pieces."""

    def __init__(self, message: str, expected: Obj | None = None, actual: Obj | None = None):
        super().__init__(message)
        self.expected = expected
        self.actual = actual


@dataclass(frozen=True, eq=False, repr=False)
class Term:
    """Base of the nine term classes; each sets dom/cod in its `__post_init__`.

    `==`, `hash`, `repr` and pickling are defined here once and do not
    recurse.  Every subclass is declared `eq=False, repr=False`, so none gets
    them generated.  `dataclasses.astuple` and `asdict` still recurse, once
    per term level.
    """

    dom: Obj = field(init=False, compare=False, repr=False)
    cod: Obj = field(init=False, compare=False, repr=False)

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


def _set(t: Term, dom: Obj, cod: Obj) -> None:
    object.__setattr__(t, "dom", dom)
    object.__setattr__(t, "cod", cod)


@dataclass(frozen=True, eq=False, repr=False)
class Gen(Term):
    gen: Generator

    def __post_init__(self) -> None:
        _set(self, self.gen.dom, self.gen.cod)


@dataclass(frozen=True, eq=False, repr=False)
class Id(Term):
    obj: Obj

    def __post_init__(self) -> None:
        _set(self, self.obj, self.obj)


@dataclass(frozen=True, eq=False, repr=False)
class Seq(Term):
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.left.cod != self.right.dom:
            raise TermTypeError(
                f"cannot compose: left codomain {self.left.cod} != right domain {self.right.dom}",
                expected=self.left.cod,
                actual=self.right.dom,
            )
        _set(self, self.left.dom, self.right.cod)


@dataclass(frozen=True, eq=False, repr=False)
class Ten(Term):
    left: Term
    right: Term

    def __post_init__(self) -> None:
        _set(self, self.left.dom @ self.right.dom, self.left.cod @ self.right.cod)


@dataclass(frozen=True, eq=False, repr=False)
class Copy(Term):
    obj: Obj

    def __post_init__(self) -> None:
        _set(self, self.obj, self.obj @ self.obj)


@dataclass(frozen=True, eq=False, repr=False)
class Delete(Term):
    obj: Obj

    def __post_init__(self) -> None:
        _set(self, self.obj, UNIT)


@dataclass(frozen=True, eq=False, repr=False)
class Swap(Term):
    first: Obj
    second: Obj

    def __post_init__(self) -> None:
        _set(self, self.first @ self.second, self.second @ self.first)


@dataclass(frozen=True, eq=False, repr=False)
class Proj1(Term):
    first: Obj
    second: Obj

    def __post_init__(self) -> None:
        _set(self, self.first @ self.second, self.first)


@dataclass(frozen=True, eq=False, repr=False)
class Proj2(Term):
    first: Obj
    second: Obj

    def __post_init__(self) -> None:
        _set(self, self.first @ self.second, self.second)


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


# --- running ----------------------------------------------------------------

_JOIN = object()  # marks where a tensor's right half is done


def run(
    t: Term,
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
    The walk keeps its own stack, so terms of any depth run.

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
    `memo` together raise ValueError.
    """
    if report is not None and memo is not None:
        raise ValueError("run: a memo skips applications, so a report cannot be kept with it")
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
