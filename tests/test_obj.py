"""An object is a tuple of sorts: `Obj` subclasses `tuple` and adds only `@`, slices and text.

Its `==`, `hash`, `len` and iteration are the tuple's own, so comparing two
boundaries, as every composition does, runs no Python code.  A later `Obj`
that wrapped its sorts again, or defined one of these methods itself, would
pass every behavioural test; the guard below fails then.
"""

import copy
import json
import pickle

import pytest

from cartoptics import UNIT, Id, Obj, load_signature, signature_to_json
from cartoptics.term import run

TUPLE_METHODS = ("__eq__", "__ne__", "__hash__", "__len__", "__iter__", "__contains__")


def test_obj_is_a_tuple_with_no_methods_of_its_own_for_equality_length_or_iteration():
    assert Obj.__bases__ == (tuple,)
    assert Obj.__slots__ == ()
    assert [m for m in TUPLE_METHODS if m in vars(Obj)] == []
    assert sorted(m for m in vars(Obj) if not m.startswith("__")) == []
    assert not hasattr(Obj(), "sorts") and not hasattr(Obj(), "__dict__")


@pytest.fixture
def a(sig):
    return sig.sort("A")


@pytest.fixture
def b(sig):
    return sig.sort("B")


def test_matmul_and_slices_give_an_obj(a, b):
    ab = Obj((a, b))
    for got in (ab @ Obj((a,)), ab[1:], ab[:0], ab[::-1], UNIT @ UNIT):
        assert type(got) is Obj
    assert ab @ Obj((a,)) == Obj((a, b, a))
    assert ab[0] is a and ab[-1] is b
    assert ab[::-1] == Obj((b, a)) and ab[:0] == UNIT


def test_repr_and_str_keep_their_text(a, b):
    assert repr(Obj((a,))) == "Obj(sorts=(Sort(name='A', carrier=FiniteCarrier(size=2)),))"
    assert repr(Obj((a, b))) == (
        "Obj(sorts=(Sort(name='A', carrier=FiniteCarrier(size=2)), "
        "Sort(name='B', carrier=FiniteCarrier(size=3))))"
    )
    assert repr(Obj()) == repr(UNIT) == "Obj(sorts=())"
    assert (str(Obj((a, b))), str(UNIT)) == ("A * B", "1")


def test_objs_of_separately_loaded_signatures_are_equal_and_hash_alike(tmp_path, sig):
    path = tmp_path / "sig.json"
    path.write_text(json.dumps(signature_to_json(sig)))
    s1, s2 = load_signature(str(path)), load_signature(str(path))
    x, y = s1.obj("A", "B", "A"), s2.obj("A", "B", "A")
    assert x[0] is not y[0]
    assert x == y and hash(x) == hash(y)
    assert x != s2.obj("A", "B") and x != s2.obj("B", "A", "A")
    assert s1.generator("h").dom == s2.generator("h").dom


def test_pickle_and_copy_round_trip(a, b):
    ab = Obj((a, b))
    for twin in (pickle.loads(pickle.dumps(ab)), copy.copy(ab), copy.deepcopy(ab)):
        assert type(twin) is Obj and twin == ab and hash(twin) == hash(ab)
    assert type(pickle.loads(pickle.dumps(UNIT))) is Obj


def test_an_obj_equals_its_sorts_but_is_no_value_tuple_to_the_walker(a):
    # checks that tell terms, values and objects apart test the exact type, never isinstance
    A = Obj((a,))
    assert A == (a,) and hash(A) == hash((a,))
    with pytest.raises(TypeError, match="not a term"):
        run(A, (0,), lambda gen, xs: xs)
    assert run(Id(A), (0,), lambda gen, xs: xs) == (0,)
