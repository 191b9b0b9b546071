"""Shared evaluation: compute once, copy the result.

A canonical form (`term.CanonicalForm`) is already a shared evaluation
DAG: one row per distinct (generator, arguments) application, arguments
first.  Evaluating it row by row is the exhaustive form of the rewrite that
pushes a copy past a morphism (duplicate the output instead of running the
morphism twice): the number of generator evaluations is the number of rows,
which never exceeds the number of generator occurrences in the form.
`interp.evaluate` runs a form this way, through `term.run`.

`share(t)` is `normalize(t)` and `evaluate_dag` is `evaluate` of a form;
the package calls `normalize` and `evaluate` itself, and both names stay
because `perfbench/` names them.
"""

from __future__ import annotations

from .interp import CostReport, Interp, evaluate
from .normal import CanonicalForm, normalize
from .term import Term


def share(t: Term) -> CanonicalForm:
    """The canonical form of t, to be evaluated with `evaluate`."""
    return normalize(t)


def evaluate_dag(dag: CanonicalForm, values: tuple, interp: Interp, report: CostReport | None = None) -> tuple:
    """`interp.evaluate` of a canonical form: every row exactly once, in order."""
    return evaluate(dag, values, interp, report)
