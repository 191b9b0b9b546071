"""Each demo, and each command case of `tests/golden/write_cli.py`, prints
byte for byte the stdout kept in `tests/golden/demos/` and `tests/golden/cli/`.

The demos and the commands print exact counts (generator evaluations,
copies, residual slots, `pi0` classes and edges), so a change that moves one
fails here.  To accept a deliberate change, run `tests/golden/write_demos.py`
or `tests/golden/write_cli.py` and say which lines changed and why.
"""

import importlib.util
from pathlib import Path

import pytest



def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parent / "golden" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load("write_demos")
cli_golden = _load("write_cli")


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


def test_every_command_case_has_a_golden_file():
    assert sorted(f"{name}.txt" for name in cli_golden.CASES) == sorted(
        p.name for p in cli_golden.GOLDEN.glob("*.txt")
    )


@pytest.mark.parametrize("case", cli_golden.CASES)
def test_command_prints_its_golden_stdout(case, tmp_path):
    want = cli_golden.golden_path(case).read_text()
    assert cli_golden.case_stdout(case, tmp_path) == want


def test_bench_golden_keeps_only_the_count_columns():
    csv = "n,lens_get_evals,lens_wall_s,optic_wall_s\n1,1,0.000096,0.000045\n"
    assert cli_golden.counts_only(csv) == "n,lens_get_evals\n1,1\n"
