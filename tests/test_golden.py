"""Each demo prints, byte for byte, the stdout kept in `tests/golden/demos/`.

The demos print exact counts (generator evaluations, copies, residual
slots, `pi0` classes), so a change that moves one fails here.  To accept a
deliberate change, run `tests/golden/write_demos.py` and say which lines
changed and why.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent / "golden" / "write_demos.py"
_spec = importlib.util.spec_from_file_location("write_demos", SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_every_demo_has_a_golden_file():
    assert [golden.golden_path(d).name for d in golden.DEMOS] == sorted(
        p.name for p in golden.GOLDEN.glob("*.txt")
    )
    assert len(golden.DEMOS) == 6


@pytest.mark.parametrize("demo", golden.DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_golden_stdout(demo):
    want = golden.golden_path(demo).read_text()
    got = golden.demo_stdout(demo)
    assert got == want


def test_mask_hides_only_the_finite_difference_error():
    line = "differences: 6.67e-11 (tolerance 1e-04).\nInput 6.67e-11\n"
    assert golden.mask(line) == (
        "differences: <masked> (tolerance 1e-04).\nInput 6.67e-11\n"
    )
