"""Random sampling that only the tests use, on top of `cartoptics.sampling`.

Like the package's sampling, everything takes an explicit random.Random so
test runs are reproducible.  `loop_term`, a term only the tests build, lives
here too.
"""

import random
from dataclasses import dataclass

import numpy as np

from cartoptics import (
    UNIT,
    FiniteCarrier,
    Id,
    Interp,
    Obj,
    Optic,
    Seq,
    Signature,
    Ten,
    Term,
    TwoCell,
    mk_two_cell,
)
from cartoptics.interp import check_identity_env
from cartoptics.optic import optic_id
from cartoptics.sampling import canon, random_morphism, random_obj, random_optic, random_table, random_valid_cell


def random_interp(rng: random.Random, sig: Signature) -> Interp:
    """Fresh random tables over the declared carriers; fn semantics pass through."""
    tables = {
        g.name: random_table(rng, g.dom, g.cod)
        for g in sig.generators
        if g.table is not None
    }
    fns = {g.name: g.fn for g in sig.generators if g.fn is not None}
    return Interp(tables, fns)


def padded_variants(rng: random.Random, t: Term, count: int = 4) -> list[Term]:
    """Terms with the same normal form, padded by identity and unit rewrites."""

    def pad_once(u: Term) -> Term:
        pick = rng.randrange(5)
        if pick == 0:
            return Seq(Id(u.dom), u)
        if pick == 1:
            return Seq(u, Id(u.cod))
        if pick == 2:
            return Ten(u, Id(UNIT))
        if pick == 3:
            return Ten(Id(UNIT), u)
        if isinstance(u, Seq) and isinstance(u.left, Seq):
            return Seq(u.left.left, Seq(u.left.right, u.right))
        return Seq(Id(u.dom), u)

    out = []
    for _ in range(count):
        v = t
        for _ in range(rng.randint(1, 3)):
            v = pad_once(v)
        out.append(v)
    return out


def random_cell_chain(
    rng: random.Random,
    sig: Signature,
    interp: Interp | None = None,
    length: int = 2,
    dom_pair: tuple[Obj, Obj] | None = None,
    cod_pair: tuple[Obj, Obj] | None = None,
) -> list[TwoCell]:
    """Vertically composable cells o_0 -> o_1 -> ... sharing boundary pairs."""
    a, a_back = dom_pair or (random_obj(rng, sig), random_obj(rng, sig))
    b, b_back = cod_pair or (random_obj(rng, sig), random_obj(rng, sig))
    ms = [random_obj(rng, sig, lo=1, hi=2) for _ in range(length + 1)]
    rs = [random_morphism(rng, sig, ms[i], ms[i + 1]) for i in range(length)]
    fws = [random_morphism(rng, sig, a, ms[0] @ b)]
    for i in range(length):
        fws.append(canon(fws[-1] >> Ten(rs[i], Id(b))))
    bws = [None] * (length + 1)
    bws[length] = random_morphism(rng, sig, ms[length] @ b_back, a_back)
    for i in range(length - 1, -1, -1):
        bws[i] = canon(Ten(rs[i], Id(b_back)) >> bws[i + 1])
    optics = [Optic(ms[i], fws[i], bws[i]) for i in range(length + 1)]
    return [
        mk_two_cell(optics[i], optics[i + 1], rs[i], interp) for i in range(length)
    ]


def random_composable_cells(
    rng: random.Random, sig: Signature, interp: Interp | None = None
) -> tuple[TwoCell, TwoCell]:
    """Two cells whose endpoints compose end to end (for horizontal pasting)."""
    c1 = random_valid_cell(rng, sig, interp)
    c2 = random_valid_cell(rng, sig, interp, dom_pair=c1.src.cod_pair)
    return c1, c2


def contextual_optic(
    rng: random.Random, sig: Signature, dom_pair: tuple[Obj, Obj], cod_pair: tuple[Obj, Obj] | None = None
) -> Optic:
    """A random optic whose last forward and first backward stage carry an identity context.

    The context is the residual's first j sorts, for a random j: at j = 0 it
    is `Id(UNIT)`, which composition merges into the context it adds.
    """
    o = random_optic(rng, sig, dom_pair, cod_pair)
    m = o.residual
    b, b_back = o.cod_pair
    j = rng.randint(0, len(m))
    fw = o.forward >> Ten(Id(m[:j]), random_morphism(rng, sig, m[j:] @ b, m[j:] @ b))
    bw = Ten(Id(m[:j]), random_morphism(rng, sig, m[j:] @ b_back, m[j:] @ b_back)) >> o.backward
    return Optic(m, fw, bw)


@dataclass(frozen=True)
class Sub:
    """A sub-chain, composed before the chain it sits in; if `built`, its passes are built then too."""

    parts: list
    built: bool
    cod_pair: tuple[Obj, Obj]


def random_optic_chain(
    rng: random.Random, sig: Signature, length: int, dom_pair: tuple[Obj, Obj] | None = None, depth: int = 2
) -> list:
    """Composable optics: identities, random optics, optics with context stages and, `depth`
    levels down, `Sub` chains of such optics; `composed_parts` composes the `Sub`s."""
    pair = dom_pair or (random_obj(rng, sig), random_obj(rng, sig))
    chain: list = []
    for _ in range(length):
        pick = rng.randrange(4 if depth else 3)
        if pick == 0:
            o = optic_id(pair)
        elif pick == 1:
            o = random_optic(rng, sig, pair)
        elif pick == 2:
            o = contextual_optic(rng, sig, pair)
        else:
            parts = random_optic_chain(rng, sig, rng.randint(1, 3), pair, depth - 1)
            o = Sub(parts, rng.random() < 0.5, parts[-1].cod_pair)
        chain.append(o)
        pair = o.cod_pair
    return chain


def composed_parts(chain: list, compose) -> list[Optic]:
    """The optics of a `random_optic_chain`, each `Sub` composed with `compose`."""
    out = []
    for x in chain:
        if isinstance(x, Sub):
            o = compose(composed_parts(x.parts, compose))
            if x.built:
                o.forward, o.backward  # composed again after its terms are built
            x = o
        out.append(x)
    return out


def _eager_stages(t: Term) -> list[Term]:
    out, todo = [], [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Seq):
            todo += (t.right, t.left)
        elif not isinstance(t, Id):
            out.append(t)
    return out


def _eager_wrap(m: Obj, t: Term) -> Term:
    if len(m) == 0:
        return t
    if isinstance(t, Ten) and isinstance(t.left, Id):
        return Ten(Id(m @ t.left.obj), t.right)
    return Ten(Id(m), t)


def _eager_chain(stages: list[Term], dom: Obj) -> Term:
    t = stages[0] if stages else Id(dom)
    for s in stages[1:]:
        t = Seq(t, s)
    return t


def eager_compose(optics: list[Optic]) -> Optic:
    """The optic chain composed with every stage wrapped in a fresh identity context, as terms.

    Each stage of optic j goes under `Id(m_<j)`, the residuals before it,
    merged with an identity context the stage has; forward stages in chain
    order, backward stages in reverse, optic by optic.
    """
    first = optics[0]
    m = first.residual
    forward = _eager_stages(first.forward)
    backward = [_eager_stages(first.backward)]
    for o in optics[1:]:
        forward += [_eager_wrap(m, s) for s in _eager_stages(o.forward)]
        backward.append([_eager_wrap(m, s) for s in _eager_stages(o.backward)])
        m = m @ o.residual
    return Optic(
        m,
        _eager_chain(forward, first.forward.dom),
        _eager_chain([s for part in reversed(backward) for s in part], m @ optics[-1].cod_pair[1]),
    )


def random_values(rng: random.Random, obj: Obj) -> tuple:
    """One random point of an object's carrier product."""
    vals = []
    for s in obj:
        c = s.carrier
        if isinstance(c, FiniteCarrier):
            vals.append(rng.randrange(c.size))
        else:
            vals.append(np.array([rng.gauss(0.0, 1.0) for _ in range(c.dimension)]))
    return tuple(vals)


def loop_term(optic: Optic) -> Term:
    """forward ; backward as one term (identity environment, b discarded)."""
    check_identity_env(optic.cod_pair)
    return optic.forward >> optic.backward


def stage_by_stage(chain, interp, a, n):
    """b and a' of the first n stages, identity environment, from the generators alone."""
    xs = [a]
    for l in chain.lenses[:n]:
        xs.append(interp.apply(l.get.gen, xs[-1]))
    back = xs[-1]
    for x, l in zip(reversed(xs[:-1]), reversed(chain.lenses[:n])):
        back = interp.apply(l.put.gen, x + back)
    return xs[-1], back
