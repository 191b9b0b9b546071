"""Shared evaluation: compute once, copy the result.

A canonical form (`normal.CanonicalForm`) is already a shared evaluation
DAG: one row per distinct (generator, arguments) application, arguments
first.  Evaluating it row by row is the exhaustive form of the rewrite that
pushes a copy past a morphism (duplicate the output instead of running the
morphism twice): the number of generator evaluations is the number of rows,
which never exceeds the number of generator occurrences in the form.  The
form's `plan`, built with the form, gives each row's argument slots and the
tuple of row generator names, so `evaluate_dag` spends a row on one fetch
and one application, and counts all rows in one `Counter.update`.

`share(t)` is `normalize(t)`, and the package calls `normalize` itself;
`share` stays because `perfbench/` names it.
"""

from __future__ import annotations

from .interp import CostReport, Interp, check_values
from .normal import CanonicalForm, normalize, run_form
from .term import Term


def share(t: Term) -> CanonicalForm:
    """The canonical form of t, to be evaluated with `evaluate_dag`."""
    return normalize(t)


def evaluate_dag(dag: CanonicalForm, values: tuple, interp: Interp, report: CostReport | None = None) -> tuple:
    """Evaluate every row exactly once, in order.

    Each row is one application, counted in `report.generator_counts` by one
    update once every row has run: a run that raises partway counts nothing.
    """
    if report is None:
        report = CostReport()
    check_values(dag.dom, values)
    out = run_form(dag, values, interp.apply)
    report.generator_counts.update(dag.plan[2])
    return out
