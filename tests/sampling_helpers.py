"""Random sampling that only the tests use, on top of `cartoptics.sampling`.

Like the package's sampling, everything takes an explicit random.Random so
test runs are reproducible.  `loop_term`, a term only the tests build, lives
here too.
"""

import random

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
from cartoptics.sampling import canon, random_morphism, random_obj, random_table, random_valid_cell


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
