"""Optics: a forward pass that stores a residual for the backward pass.

An optic between boundary pairs (A, A') -> (B, B') is a residual object M
with terms forward: A -> M x B and backward: M x B' -> A'.  Optics are
representatives, not equivalence classes, but composition is still strictly
associative and unital on the nose.  `term.chain_term` builds every pass
as a flat stage chain (left-nested, identity stages dropped): the terms an
optic is built from, kept whole if already flat, and a composite's passes.
`Optic(residual, forward, backward)` is the one constructor.  It stores
each pass it is given: a term flattened, or a `term.Blocks` as it is, and
reads both boundary pairs off the stored passes.  A composite's passes are
`Blocks`, plain data: the pass of each optic in the chain with the count of
residual wires before it, which it runs beside, and the pass's boundary.
`compose_optic_chain` concatenates the optics' blocks in one pass, adding
the residual wires before each optic to its blocks' counts, forward passes
in chain order and backward passes in reverse; it builds no term.
`forward` and `backward` are the stored terms, or for `Blocks` the term
`chain_term` builds on first access and the optic caches: each stage
wrapped in an identity context holding the residuals of the optics before
it (coalescing with any identity context the stage already has).  Only
printing and the terms made from an optic (`erase`, the counit's witness,
`round_trip_term`) read them.  Whatever runs or compares optics takes the
passes the optic stores: `optic_exec`, `optic_normal_eq`, `==` while the
passes are equal, and every cell check in `twocell`.  The executor runs
those passes and materializes the residual between them, trading memory
for the recomputation a lens chain would do.  It is the one executor of
both packagings: a lens runs as its reified optic, whose residual is its
input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .interp import CostReport, Interp, check_identity_env, check_values, evaluate, obj_bytes
from .normal import normal_eq
from .signature import Obj, UNIT
from .term import Block, Blocks, Copy, Id, Swap, Ten, Term, TermTypeError, chain_term


def _blocks(p: Term | Blocks, k: int) -> list[Block]:
    """A pass as blocks under k more context wires: a `Blocks`' own, each moved k wires right."""
    if p.__class__ is Blocks:
        return [Block(k + b.k, b.term) for b in p.blocks] if k else p.blocks
    return [Block(k, p)]


def _rest(obj: Obj, what: str, prefix: Obj, prefix_what: str) -> Obj:
    """obj after its leading prefix; TermTypeError if obj does not start with it."""
    head, rest = obj[: len(prefix)], obj[len(prefix) :]
    if head != prefix:
        raise TermTypeError(f"{what} {obj} does not start with {prefix_what} {prefix}", expected=prefix, actual=head)
    return rest


def _term(p: Term | Blocks) -> Term:
    return chain_term(p.dom, p.blocks) if p.__class__ is Blocks else p


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Optic:
    """An optic; `==` and `repr` go by its residual and its two terms.

    `passes` is what `optic_exec` runs and cells are checked on: each pass
    as given to the constructor, a term flattened or a `Blocks` kept as it
    is.  `forward` and `backward` are their terms, built from a `Blocks` on
    first access and cached.  `hash` reads the residual and the boundary
    pairs, which equal optics share, so it builds no term.  `==` builds
    none while the stored passes are equal, as two bracketings of one
    chain's are; only passes of different forms, such as a composite's and
    those of an optic built from its terms, are compared as built terms.
    """

    residual: Obj
    passes: tuple[Term | Blocks, Term | Blocks]
    dom_pair: tuple[Obj, Obj]
    cod_pair: tuple[Obj, Obj]

    def __init__(self, residual: Obj, forward: Term | Blocks, backward: Term | Blocks) -> None:
        # a term flattened as one block, a plain (k, term) pair: a `Block` would cost a Python-level `__new__`
        if forward.__class__ is not Blocks:
            forward = chain_term(forward.dom, [(0, forward)])
        if backward.__class__ is not Blocks:
            backward = chain_term(backward.dom, [(0, backward)])
        b = _rest(forward.cod, "forward codomain", residual, "residual")
        b_back = _rest(backward.dom, "backward domain", residual, "residual")
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "passes", (forward, backward))
        object.__setattr__(self, "dom_pair", (forward.dom, backward.cod))
        object.__setattr__(self, "cod_pair", (b, b_back))

    @cached_property
    def forward(self) -> Term:
        """A -> M x B"""
        return _term(self.passes[0])

    @cached_property
    def backward(self) -> Term:
        """M x B' -> A'"""
        return _term(self.passes[1])

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Optic):
            return NotImplemented
        if self.residual != other.residual:
            return False
        if self.passes == other.passes:  # `chain_term` builds a `Blocks`' term from its dom and blocks alone
            return True
        return (self.forward, self.backward) == (other.forward, other.backward)

    def __hash__(self) -> int:
        return hash((self.residual, self.dom_pair, self.cod_pair))  # equal optics share all three

    def __repr__(self) -> str:
        return f"Optic(residual={self.residual!r}, forward={self.forward!r}, backward={self.backward!r})"


def optic_id(pair: tuple[Obj, Obj]) -> Optic:
    a, a_back = pair
    return Optic(UNIT, Id(a), Id(a_back))


def optic_compose(o1: Optic, o2: Optic) -> Optic:
    """Sequential composition: residuals concatenate, nothing is recomputed."""
    return compose_optic_chain([o1, o2])


def compose_optic_chain(optics: list[Optic]) -> Optic:
    """Compose a chain in one pass; any bracketing gives this representative."""
    if not optics:
        raise ValueError("empty optic chain")
    k = 0  # the residual wires of the optics before o
    forward: list[Block] = []
    backward: list[list[Block]] = []
    for i, o in enumerate(optics):
        prev = optics[i - 1]
        if i and prev.cod_pair != o.dom_pair:
            raise TermTypeError(
                f"optic boundaries do not match: {prev.cod_pair[0]} / {prev.cod_pair[1]} "
                f"vs {o.dom_pair[0]} / {o.dom_pair[1]}"
            )
        forward += _blocks(o.passes[0], k)
        backward.append(_blocks(o.passes[1], k))
        k += len(o.residual)
    m = Obj([s for o in optics for s in o.residual])
    (a, a_back), (b, b_back) = optics[0].dom_pair, optics[-1].cod_pair
    return Optic(
        m,
        Blocks(a, m @ b, forward),
        Blocks(m @ b_back, a_back, [x for part in reversed(backward) for x in part]),
    )


def optic_normal_eq(o1: Optic, o2: Optic) -> bool:
    """Same residual and boundary pairs, and each pair of stored passes `normal_eq`, so no composite's term is built."""
    if (o1.residual, o1.dom_pair, o1.cod_pair) != (o2.residual, o2.dom_pair, o2.cod_pair):
        return False
    return all(normal_eq(p, q) for p, q in zip(o1.passes, o2.passes))


def optic_exec(
    optic: Optic,
    a: tuple,
    interp: Interp,
    env: Callable[[tuple], tuple] | None = None,
) -> tuple[tuple, tuple, CostReport]:
    """Run forward, hold the residual, run backward on (residual, env's answer checked against B')."""
    m = optic.residual
    if env is None:
        check_identity_env(optic.cod_pair)
    forward, backward = optic.passes
    report = CostReport()
    out = evaluate(forward, a, interp, report)
    m_vals, b = out[: len(m)], out[len(m) :]
    b_resp = b if env is None else tuple(env(b))
    check_values(optic.cod_pair[1], b_resp, what="env response")
    a_prime = evaluate(backward, m_vals + b_resp, interp, report)
    report.peak_residual_slots = len(m)
    report.peak_residual_bytes = obj_bytes(m)
    return b, a_prime, report


def round_trip_term(optic: Optic) -> Term:
    """A -> B x A' with an identity environment: emits b and a' together."""
    check_identity_env(optic.cod_pair)
    m = optic.residual
    b_obj, _ = optic.cod_pair
    return (
        optic.forward
        >> Ten(Id(m), Copy(b_obj))
        >> Ten(Swap(m, b_obj), Id(b_obj))
        >> Ten(Id(b_obj), optic.backward)
    )
