"""Write the expected stdout of each script in `demos/` to `tests/golden/demos/`.

Run from the repository root after a change that is meant to alter what a
demo prints:

    PYTHONPATH=src python tests/golden/write_demos.py

Each demo runs in this process, as `tests/test_golden.py` runs it.  The one
value that depends on the machine's floating point, demo 06's worst
finite-difference error, is masked in the file and in the comparison.
"""

import contextlib
import io
import re
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "demos"

# demo 06: the worst relative error of a VJP against central finite differences
FD_ERROR = re.compile(r"(differences: )\S+( \(tolerance)")


def demo_stdout(path: Path) -> str:
    """What the demo at path prints, run as a script, with its machine-dependent value masked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return mask(out.getvalue())


def mask(text: str) -> str:
    return FD_ERROR.sub(r"\1<masked>\2", text)


def golden_path(demo: Path) -> Path:
    return GOLDEN / f"{demo.stem}.txt"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for demo in DEMOS:
        golden_path(demo).write_text(demo_stdout(demo))
        print(golden_path(demo).relative_to(ROOT))
