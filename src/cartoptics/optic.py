"""Optics: a forward pass that stores a residual for the backward pass.

An optic between boundary pairs (A, A') -> (B, B') is a residual object M
with terms forward: A -> M x B and backward: M x B' -> A'.  Optics are
representatives, not equivalence classes, but composition is still strictly
associative and unital on the nose: components are stored as flat stage
chains (left-nested, identity stages dropped).  `compose_optic_chain` builds
the composite of a whole chain in one pass over the stages: each optic's
stages are wrapped in an identity context holding the residuals of the optics
before it (coalescing with any identity context a stage already has), forward
stages go in chain order and backward stages in reverse, optic by optic.  The
executor materializes the residual between passes, trading memory for the
recomputation a lens chain would do.  It is the one executor of both
packagings: a lens runs as its reified optic, whose residual is its input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

from .interp import CostReport, Interp, check_identity_env, check_values, evaluate, obj_bytes
from .normal import normal_eq
from .signature import Obj, UNIT
from .term import Copy, Id, Seq, Swap, Ten, Term, TermTypeError


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


def _chain(stages: list[Term], dom: Obj) -> Term:
    """Left-nested chain of stages (identity on dom if there are none)."""
    return reduce(Seq, stages) if stages else Id(dom)


def _flat(t: Term) -> Term:
    """t as a flat chain: t itself if it already is one, else rebuilt from its stages.

    A flat chain is a left-nested `Seq` whose stages are neither `Seq` nor
    `Id`, a single such stage, or a lone `Id`.
    """
    s = t
    while isinstance(s, Seq) and not isinstance(s.right, (Seq, Id)):
        s = s.left
    if isinstance(s, Seq) or (isinstance(s, Id) and s is not t):
        return _chain(_stages(t), t.dom)
    return t


def _wrap(m: Obj, t: Term) -> Term:
    """Tensor an identity context onto a stage, merging adjacent contexts.

    wrap(m1, wrap(m2, t)) == wrap(m1 @ m2, t), which is what makes optic
    composition associative at the representative level.
    """
    if len(m) == 0:
        return t
    if isinstance(t, Ten) and isinstance(t.left, Id):
        return Ten(Id(m @ t.left.obj), t.right)
    return Ten(Id(m), t)


def _rest(obj: Obj, what: str, prefix: Obj, prefix_what: str) -> Obj:
    """obj after its leading prefix; TermTypeError if obj does not start with it."""
    head, rest = obj[: len(prefix)], obj[len(prefix) :]
    if head != prefix:
        raise TermTypeError(f"{what} {obj} does not start with {prefix_what} {prefix}", expected=prefix, actual=head)
    return rest


@dataclass(frozen=True)
class Optic:
    residual: Obj
    forward: Term  # A -> M x B
    backward: Term  # M x B' -> A'
    dom_pair: tuple[Obj, Obj] = field(init=False, compare=False, repr=False)
    cod_pair: tuple[Obj, Obj] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "forward", _flat(self.forward))
        object.__setattr__(self, "backward", _flat(self.backward))
        b = _rest(self.forward.cod, "forward codomain", self.residual, "residual")
        b_back = _rest(self.backward.dom, "backward domain", self.residual, "residual")
        object.__setattr__(self, "dom_pair", (self.forward.dom, self.backward.cod))
        object.__setattr__(self, "cod_pair", (b, b_back))


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
    first = optics[0]
    m = first.residual
    forward = _stages(first.forward)
    backward = [_stages(first.backward)]
    for prev, o in zip(optics, optics[1:]):
        if prev.cod_pair != o.dom_pair:
            raise TermTypeError(
                f"optic boundaries do not match: {prev.cod_pair[0]} / {prev.cod_pair[1]} "
                f"vs {o.dom_pair[0]} / {o.dom_pair[1]}"
            )
        forward += [_wrap(m, s) for s in _stages(o.forward)]
        backward.append([_wrap(m, s) for s in _stages(o.backward)])
        m = m @ o.residual
    return Optic(
        m,
        _chain(forward, first.forward.dom),
        _chain([s for part in reversed(backward) for s in part], m @ optics[-1].cod_pair[1]),
    )


def optic_normal_eq(o1: Optic, o2: Optic) -> bool:
    """Same residual object and componentwise equal up to normalization."""
    return (
        o1.residual == o2.residual
        and normal_eq(o1.forward, o2.forward)
        and normal_eq(o1.backward, o2.backward)
    )


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
    report = CostReport()
    out = evaluate(optic.forward, a, interp, report)
    m_vals, b = out[: len(m)], out[len(m) :]
    b_resp = b if env is None else tuple(env(b))
    check_values(optic.cod_pair[1], b_resp, what="env response")
    a_prime = evaluate(optic.backward, m_vals + b_resp, interp, report)
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
