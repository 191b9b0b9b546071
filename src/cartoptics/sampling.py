"""Seeded random generation of signatures, terms, lenses, optics and cells.

Everything takes an explicit random.Random so test runs are reproducible.
Random signatures are built strongly connected: a conversion generator cycle
touches every sort, so any sort is producible from any non-empty object and
boundary choices for lenses, optics and cells are unconstrained.  Morphisms
are sampled one output wire at a time, as terms built from projections,
pairings and generators, which makes them well-typed by construction.
"""

from __future__ import annotations

import random

from .interp import Interp
from .lens import Lens
from .normal import normalize, read_back
from .optic import Optic
from .signature import FiniteCarrier, Generator, Obj, Signature, Sort
from .term import Id, Ten, Term, gen_wire, pairing, select_wire
from .twocell import TwoCell, mk_two_cell

SORT_NAMES = ("A", "B", "C", "D")
MULTI_OUTPUT_PROB = 0.25  # chance that an extra generator has two outputs
VAR_BIAS = 0.6  # chance that a wire term stops at an input wire when it could go deeper


def random_table(rng: random.Random, dom: Obj, cod: Obj) -> tuple[tuple[int, ...], ...]:
    total = 1
    for s in dom:
        total *= s.carrier.size
    return tuple(
        tuple(rng.randrange(s.carrier.size) for s in cod) for _ in range(total)
    )


def _nonidentity_endo_table(rng: random.Random, sort: Sort) -> tuple[tuple[int, ...], ...]:
    size = sort.carrier.size
    identity = tuple((v,) for v in range(size))
    while True:
        table = random_table(rng, Obj((sort,)), Obj((sort,)))
        if table != identity:
            return table


def random_signature(rng: random.Random) -> Signature:
    """A finite signature with random tables, strongly connected by construction."""
    n_sorts = rng.randint(1, 3)
    sorts = [
        Sort(SORT_NAMES[i], FiniteCarrier(rng.choice((2, 3)))) for i in range(n_sorts)
    ]
    gens: list[Generator] = []
    endo_dom = Obj((sorts[0],))
    gens.append(
        Generator("f0", endo_dom, endo_dom, table=_nonidentity_endo_table(rng, sorts[0]))
    )
    if n_sorts > 1:
        for i in range(n_sorts):
            dom = Obj((sorts[i],))
            cod = Obj((sorts[(i + 1) % n_sorts],))
            gens.append(Generator(f"c{i}", dom, cod, table=random_table(rng, dom, cod)))
    for i in range(rng.randint(1, 3)):
        dom = Obj(rng.choice(sorts) for _ in range(rng.randint(1, 2)))
        n_out = 2 if rng.random() < MULTI_OUTPUT_PROB else 1
        cod = Obj(rng.choice(sorts) for _ in range(n_out))
        gens.append(Generator(f"g{i}", dom, cod, table=random_table(rng, dom, cod)))
    return Signature(tuple(sorts), tuple(gens))


def random_obj(rng: random.Random, sig: Signature, lo: int = 1, hi: int = 2) -> Obj:
    return Obj(rng.choice(sig.sorts) for _ in range(rng.randint(lo, hi)))


def random_wire(
    rng: random.Random,
    sig: Signature,
    dom: Obj,
    mind: dict[Sort, int],
    target: Sort,
    budget: int,
) -> Term:
    """A random canonical wire term dom -> [target] within the depth budget."""
    var_ids = [i for i, s in enumerate(dom) if s == target]
    apps: list[tuple[Generator, int]] = []
    if budget > 0:
        for g in sig.generators:
            if all(mind.get(s, budget + 1) <= budget - 1 for s in g.dom):
                for j, c in enumerate(g.cod):
                    if c == target:
                        apps.append((g, j))
    if var_ids and (not apps or rng.random() < VAR_BIAS):
        return select_wire(dom, rng.choice(var_ids))
    if not apps:
        raise ValueError(f"sort {target.name} not producible within budget {budget}")
    g, j = rng.choice(apps)
    args = [random_wire(rng, sig, dom, mind, s, budget - 1) for s in g.dom]
    return gen_wire(g, j, args, dom)


def random_morphism(
    rng: random.Random, sig: Signature, dom: Obj, cod: Obj, budget: int = 2
) -> Term:
    """A random well-typed term dom -> cod, one sampled wire term per output."""
    mind = sig.min_depths(dom)
    wires = []
    for s in cod:
        if s not in mind:
            raise ValueError(f"sort {s.name} not producible from {dom}")
        wires.append(random_wire(rng, sig, dom, mind, s, max(budget, mind[s])))
    return pairing(wires, dom)


def canon(t: Term) -> Term:
    """Replace a term by the read-back of its normal form."""
    return read_back(normalize(t))


def random_lens(
    rng: random.Random,
    sig: Signature,
    dom_pair: tuple[Obj, Obj] | None = None,
    cod_pair: tuple[Obj, Obj] | None = None,
) -> Lens:
    a, a_back = dom_pair or (random_obj(rng, sig), random_obj(rng, sig))
    b, b_back = cod_pair or (random_obj(rng, sig), random_obj(rng, sig))
    get = random_morphism(rng, sig, a, b)
    put = random_morphism(rng, sig, a @ b_back, a_back)
    return Lens(get, put)


def random_composable_lenses(rng: random.Random, sig: Signature, n: int) -> tuple[Lens, ...]:
    lenses = [random_lens(rng, sig)]
    for _ in range(n - 1):
        lenses.append(random_lens(rng, sig, dom_pair=lenses[-1].cod_pair))
    return tuple(lenses)


def random_optic(
    rng: random.Random,
    sig: Signature,
    dom_pair: tuple[Obj, Obj] | None = None,
    cod_pair: tuple[Obj, Obj] | None = None,
) -> Optic:
    a, a_back = dom_pair or (random_obj(rng, sig), random_obj(rng, sig))
    b, b_back = cod_pair or (random_obj(rng, sig), random_obj(rng, sig))
    m = random_obj(rng, sig, lo=0, hi=2)
    forward = random_morphism(rng, sig, a, m @ b)
    backward = random_morphism(rng, sig, m @ b_back, a_back)
    return Optic(m, forward, backward)


def random_valid_cell(
    rng: random.Random,
    sig: Signature,
    interp: Interp | None = None,
    dom_pair: tuple[Obj, Obj] | None = None,
    cod_pair: tuple[Obj, Obj] | None = None,
) -> TwoCell:
    """A cell valid by construction: its target components are derived from
    the witness, then re-canonicalized so the validator has real work to do."""
    a, a_back = dom_pair or (random_obj(rng, sig), random_obj(rng, sig))
    b, b_back = cod_pair or (random_obj(rng, sig), random_obj(rng, sig))
    m1 = random_obj(rng, sig, lo=1, hi=2)
    m2 = random_obj(rng, sig, lo=0, hi=2)
    r = random_morphism(rng, sig, m1, m2)
    fw1 = random_morphism(rng, sig, a, m1 @ b)
    bw2 = random_morphism(rng, sig, m2 @ b_back, a_back)
    fw2 = canon(fw1 >> Ten(r, Id(b)))
    bw1 = canon(Ten(r, Id(b_back)) >> bw2)
    src = Optic(m1, fw1, bw1)
    tgt = Optic(m2, fw2, bw2)
    return mk_two_cell(src, tgt, r, interp)
