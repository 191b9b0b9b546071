"""Every term class takes `==`, `hash`, `repr` and pickling from `Term`, and none of them recurses.

A dataclass generates these methods unless it is declared `eq=False,
repr=False`, and the generated ones recurse once per term level, so a term a
thousand levels deep could not be compared, hashed or printed.  A later term
kind declared without those flags, or with its own `dom`/`cod`, would bring
that back without failing any test on small terms; this module fails then.
"""

import copy
import dataclasses
import importlib.util
import pickle
from pathlib import Path

import pytest

from cartoptics import (
    UNIT,
    Copy,
    Delete,
    Id,
    Proj1,
    Proj2,
    Seq,
    Swap,
    Ten,
    Term,
    build_chain,
    compose_chain,
    compose_optic_chain,
    normal_eq,
    reify,
)
from cartoptics.term import Block, chain_term

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
    holders = {k.__name__ for k in KINDS for name in k.__match_args__ if k.__annotations__[name] == "Term"}
    assert holders == {"Seq", "Ten"}


def test_terms_are_immutable_and_have_no_instance_dict(A, B, f, g):
    # `chain_term` builds its Seq and Ten nodes unchecked, through `_node`
    built = chain_term(A @ A, [Block(1, f >> g), Block(0, Swap(A, A))])
    terms = [f, Id(A), f >> g, f @ g, Copy(A), Delete(A), Swap(A, B), Proj1(A, B), Proj2(A, B), built, built.left.left]
    assert {type(t) for t in terms} == set(KINDS)
    assert (type(built), type(built.left.left)) == (Seq, Ten)
    for t in terms:
        assert not hasattr(t, "__dict__")
        for name in (*type(t).__match_args__, "dom", "cod"):
            before = getattr(t, name)
            with pytest.raises(AttributeError):
                setattr(t, name, f)
            with pytest.raises(AttributeError):
                delattr(t, name)
            assert getattr(t, name) is before
        with pytest.raises(AttributeError):
            t.extra = 0


def test_astuple_and_asdict_keep_each_term_of_a_deep_lens_whole():
    # a term is not a dataclass: both deep-copy it, which gives the term itself
    lens = compose_chain(list(build_chain(1500, "finite", seed=0).lenses))
    optic = reify(lens)
    as_tuple, as_dict = dataclasses.astuple(lens), dataclasses.asdict(lens)
    assert as_tuple[0] is lens.get and as_tuple[1] is lens.put
    assert as_dict["get"] is lens.get and as_dict["put"] is lens.put
    for passes in (dataclasses.astuple(optic)[1], dataclasses.asdict(optic)["passes"]):
        assert passes[0] is optic.passes[0] and passes[1] is optic.passes[1]
    with pytest.raises(TypeError):
        dataclasses.astuple(lens.get)


def test_pickles_written_before_terms_were_slotted_still_load():
    spec = importlib.util.spec_from_file_location("write_terms", Path(__file__).parent / "golden" / "write_terms.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    back = pickle.loads(golden.GOLDEN.read_bytes())
    assert back == golden.terms()
    assert back[0].right is back[0].left.left.left.right.left  # f >> g, shared by identity


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
