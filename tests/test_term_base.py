"""Every term class takes `==`, `hash`, `repr` and pickling from `Term`, and none of them recurses.

A dataclass generates these methods unless it is declared `eq=False,
repr=False`, and the generated ones recurse once per term level, so a term a
thousand levels deep could not be compared, hashed or printed.  A later term
kind declared without those flags, or with its own `dom`/`cod`, would bring
that back without failing any test on small terms; this module fails then.
"""

import copy
import dataclasses
import pickle

import pytest

from cartoptics import (
    UNIT,
    Id,
    Seq,
    Ten,
    Term,
    build_chain,
    compose_chain,
    compose_optic_chain,
    normal_eq,
    reify,
)

KINDS = Term.__subclasses__()
METHODS = ("__eq__", "__hash__", "__repr__")


def own_members(kind: type) -> list[str]:
    """The shared methods and boundary fields that `kind` declares itself."""
    declared = set(vars(kind)) | set(vars(kind).get("__annotations__", {}))
    return sorted(declared & {*METHODS, "dom", "cod"})


def test_the_nine_kinds():
    assert sorted(k.__name__ for k in KINDS) == [
        "Copy", "Delete", "Gen", "Id", "Proj1", "Proj2", "Seq", "Swap", "Ten"
    ]


def test_every_kind_inherits_the_methods_and_boundary_of_term():
    assert {k.__name__: own_members(k) for k in KINDS} == {k.__name__: [] for k in KINDS}
    for kind in KINDS:
        assert [getattr(kind, m) for m in METHODS] == [getattr(Term, m) for m in METHODS]


def test_checker_sees_generated_methods_and_redeclared_fields():
    @dataclasses.dataclass(frozen=True)
    class Generated(Term):
        pass

    @dataclasses.dataclass(frozen=True, eq=False, repr=False)
    class Redeclared(Term):
        dom: object = dataclasses.field(init=False, compare=False)

    assert own_members(Generated) == ["__eq__", "__hash__", "__repr__"]
    assert own_members(Redeclared) == ["dom"]


def test_only_seq_and_ten_hold_terms():
    # `Term.__eq__` pushes the children of these two and compares every other field by value
    holders = {k.__name__ for k in KINDS for f in dataclasses.fields(k) if f.type == "Term"}
    assert holders == {"Seq", "Ten"}


@pytest.mark.parametrize("nest", ["left", "right", "tensor"])
def test_methods_walk_terms_deeper_than_the_recursion_limit(A, nest):
    def build() -> Term:
        t = Id(A)
        for _ in range(5000):
            t = Seq(t, Id(A)) if nest == "left" else Seq(Id(A), t) if nest == "right" else Ten(Id(UNIT), t)
        return t

    t1, t2 = build(), build()
    assert t1 == t2 and hash(t1) == hash(t2)
    assert t1 != Seq(t2, Id(t2.cod))
    assert repr(t1) == f"{type(t1).__name__}({str(t1)!r})"
    assert pickle.loads(pickle.dumps(t1)) == t2


def test_copy_and_deepcopy_give_the_term_itself_at_any_depth():
    # a term is immutable; a deep copy that walked it would recurse once per level
    chain = build_chain(300, "finite", seed=0)
    optic = compose_optic_chain([reify(lens) for lens in chain.lenses])
    for t in (optic.forward, optic.backward):
        assert copy.copy(t) is t and copy.deepcopy(t) is t
    for kind in KINDS:
        assert (kind.__copy__, kind.__deepcopy__) == (Term.__copy__, Term.__deepcopy__)
    twin = copy.deepcopy(optic)
    assert twin == optic and twin is not optic
    assert twin.forward is optic.forward and twin.backward is optic.backward


def distinct_nodes(t: Term) -> int:
    seen, todo = set(), [t]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen.add(id(t))
            todo += [getattr(t, side) for side in ("left", "right") if isinstance(t, (Seq, Ten))]
    return len(seen)


def test_pickle_round_trips_a_deep_optic():
    chain = build_chain(1500, "finite", seed=0)
    optic = compose_optic_chain([reify(lens) for lens in chain.lenses])
    for kind in KINDS:
        assert kind.__reduce__ is Term.__reduce__
    assert pickle.loads(pickle.dumps(optic)) == optic


def test_pickle_keeps_shared_subterms_shared(f, g):
    shared = f >> g
    back = pickle.loads(pickle.dumps(Seq(shared, shared >> f >> g) @ shared))
    assert back.left.left is back.left.right.left.left is back.right
    # a lens composite's put reaches each prefix of its get many times: quadratic
    # as a tree, linear in its distinct nodes, and pickled as those nodes
    put = compose_chain(list(build_chain(200, "finite", seed=0).lenses)).put
    data = pickle.dumps(put)
    back = pickle.loads(data)
    assert len(data) <= 2 * 123_665  # the size when pickle walked the nodes itself
    assert distinct_nodes(back) == distinct_nodes(put)
    assert back == put and normal_eq(back, put)
