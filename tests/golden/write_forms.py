"""Write `tests/golden/forms.pickle`: canonical forms of every shape of row, pickled.

`tests/test_normalize.py` loads the file and compares it with `forms()`
normalized by the code under test, and runs each loaded form, so a change to
where `CanonicalForm` lives or how it is stored must still load pickles
written before it.  The file was written by the code in which
`CanonicalForm` was defined in `cartoptics.normal`; rewrite it only for a
deliberate change to the pickle format, and say why:

    PYTHONPATH=src python tests/golden/write_forms.py
"""

import pickle
from pathlib import Path

from cartoptics import (
    UNIT,
    Copy,
    Delete,
    FiniteCarrier,
    Gen,
    Generator,
    Id,
    Obj,
    Proj1,
    Signature,
    Sort,
    Swap,
    normalize,
)

GOLDEN = Path(__file__).resolve().parent / "forms.pickle"


def signature() -> Signature:
    """The signature of `tests/conftest.py`'s f, g and h, with k: () -> A and m: A -> A B."""
    a, b = Sort("A", FiniteCarrier(2)), Sort("B", FiniteCarrier(3))
    A, B = Obj((a,)), Obj((b,))
    return Signature(
        (a, b),
        (
            Generator("f", A, B, table=((1,), (2,))),
            Generator("g", B, A, table=((0,), (1,), (0,))),
            Generator("h", A @ B, A, table=((0,), (1,), (0,), (1,), (0,), (1,))),
            Generator("k", UNIT, A, table=((1,),)),
            Generator("m", A, A @ B, table=((0, 1), (1, 2))),
        ),
    )


def terms() -> list:
    """A shared row, a row with no argument, a row with two outputs, an unused output, no rows."""
    sig = signature()
    A, B = sig.obj("A"), sig.obj("B")
    f, g, h, k, m = [Gen(sig.generator(n)) for n in "fghkm"]
    return [
        Copy(A) >> ((f >> g) @ f) >> h,
        (Delete(A) >> k) @ m,
        m >> Proj1(A, B) >> Copy(A),
        Delete(A),
        Swap(A, B) >> (Id(B) @ Copy(A)),
    ]


def forms() -> list:
    return [normalize(t) for t in terms()]


if __name__ == "__main__":
    GOLDEN.write_bytes(pickle.dumps(forms(), protocol=4))
