"""Cartesian lenses: a forward pass plus a backward pass that recomputes.

A lens between boundary pairs (A, A') -> (B, B') is a pair of terms
get: A -> B and put: A x B' -> A'.  No laws relate get and put.  Composition
feeds the backward pass of the second lens with a recomputation of the first
forward pass (the graph of get1), so a chain of n lenses composed to the left
evaluates get maps quadratically often (n(n+1)/2; 2n-1 composed to the right)
while holding only the original input between passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .interp import CostReport, Interp
from .normal import normal_eq
from .optic import _run_passes
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
        a = self.get.dom
        if self.put.dom[: len(a)] != a:
            raise TermTypeError(
                f"put domain {self.put.dom} does not start with get domain {a}",
                expected=a,
                actual=self.put.dom[: len(a)],
            )
        b_back = self.put.dom[len(a) :]
        object.__setattr__(self, "dom_pair", (a, self.put.cod))
        object.__setattr__(self, "cod_pair", (self.get.cod, b_back))

    @cached_property
    def forward(self) -> Term:
        """graph(get): A -> A x B, the forward pass of `reify(self)`, built once."""
        return graph(self.get)


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
    """Run forward, hand the output to env, run backward on (input, response).

    Returns (b, a', report), as `optic_exec(reify(lens), ...)` does, without
    building the optic: the input is the residual held between the passes.
    """
    a_obj, _ = lens.dom_pair
    return _run_passes(a_obj, lens.forward, lens.put, lens.cod_pair, a, interp, env)
