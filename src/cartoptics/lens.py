"""Cartesian lenses: a forward pass plus a backward pass that recomputes.

A lens between boundary pairs (A, A') -> (B, B') is a pair of terms
get: A -> B and put: A x B' -> A'.  No laws relate get and put.  Composition
feeds the backward pass of the second lens with a recomputation of the first
forward pass (the graph of get1), so a chain of n lenses composed to the left
evaluates get maps quadratically often (n(n+1)/2; 2n-1 composed to the right)
while holding only the original input between passes.  A lens runs as its
reified optic (`reify`, built once per lens) through `optic_exec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .interp import CostReport, Interp
from .normal import normal_eq
from .optic import Optic, _rest, optic_exec
from .signature import Obj
from .term import Id, Proj2, Ten, Term, TermTypeError, graph


@dataclass(frozen=True)
class Lens:
    get: Term
    put: Term
    # boundary pairs (A, A') and (B, B'), inferred in __post_init__
    dom_pair: tuple[Obj, Obj] = field(init=False, compare=False, repr=False)
    cod_pair: tuple[Obj, Obj] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        b_back = _rest(self.put.dom, "put domain", self.get.dom, "get domain")
        object.__setattr__(self, "dom_pair", (self.get.dom, self.put.cod))
        object.__setattr__(self, "cod_pair", (self.get.cod, b_back))

    @cached_property
    def _optic(self) -> Optic:
        """`reify(self)`, built once."""
        return Optic(self.dom_pair[0], graph(self.get), self.put)


def reify(l: Lens) -> Optic:
    """Run a lens as an optic: residual = input object, forward = graph(get), backward = put."""
    return l._optic


def lens_id(pair: tuple[Obj, Obj]) -> Lens:
    a, a_back = pair
    return Lens(Id(a), Proj2(a, a_back))


def lens_compose(l1: Lens, l2: Lens) -> Lens:
    """Sequential composition; the composite put recomputes get1 via its graph."""
    if l1.cod_pair != l2.dom_pair:
        raise TermTypeError(
            f"lens boundaries do not match: {l1.cod_pair[0]} / {l1.cod_pair[1]} "
            f"vs {l2.dom_pair[0]} / {l2.dom_pair[1]}"
        )
    a, _ = l1.dom_pair
    _, c_back = l2.cod_pair
    get = l1.get >> l2.get
    put = Ten(graph(l1.get), Id(c_back)) >> Ten(Id(a), l2.put) >> l1.put
    return Lens(get, put)


def compose_chain(lenses: list[Lens], assoc: str = "left") -> Lens:
    """Fold a chain of lenses; association changes cost, not meaning."""
    if not lenses:
        raise ValueError("empty lens chain")
    if assoc == "left":
        out = lenses[0]
        for l in lenses[1:]:
            out = lens_compose(out, l)
        return out
    if assoc == "right":
        out = lenses[-1]
        for l in reversed(lenses[:-1]):
            out = lens_compose(l, out)
        return out
    raise ValueError(f"unknown association {assoc!r}")


def lens_normal_eq(l1: Lens, l2: Lens) -> bool:
    return normal_eq(l1.get, l2.get) and normal_eq(l1.put, l2.put)


def lens_exec(
    lens: Lens,
    a: tuple,
    interp: Interp,
    env: Callable[[tuple], tuple] | None = None,
) -> tuple[tuple, tuple, CostReport]:
    """`optic_exec` of the reified lens: the input is the residual held between the passes."""
    return optic_exec(reify(lens), a, interp, env)
