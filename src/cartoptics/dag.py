"""Shared evaluation DAGs: compute once, copy the result.

`share` lists the distinct (generator, arguments) applications of a
canonical form in dependency order, with the listing that also decides when
two forms are equal (`normal._listing`).  This is the exhaustive form of the
rewrite that pushes a copy past a morphism (duplicate the output instead of
running the morphism twice): the node count never exceeds the number of
generator occurrences in the canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .interp import CostReport, Interp, check_values
from .normal import CanonicalForm, _listing, normalize
from .signature import Generator, Obj
from .term import Term


@dataclass(frozen=True)
class InputRef:
    wire: int


@dataclass(frozen=True)
class NodeRef:
    node: int
    out: int


Ref = InputRef | NodeRef


@dataclass(frozen=True)
class DagNode:
    gen: Generator
    args: tuple[Ref, ...]


@dataclass(frozen=True)
class SharedDag:
    dom: Obj
    cod: Obj
    nodes: tuple[DagNode, ...]
    outputs: tuple[Ref, ...]

    def gen_node_count(self, names=None) -> int:
        if names is None:
            return len(self.nodes)
        return sum(1 for n in self.nodes if n.gen.name in names)

    def to_json(self) -> dict:
        def ref(r: Ref):
            if isinstance(r, InputRef):
                return {"input": r.wire}
            return {"node": r.node, "out": r.out}

        return {
            "nodes": [{"gen": n.gen.name, "args": [ref(a) for a in n.args]} for n in self.nodes],
            "outputs": [ref(r) for r in self.outputs],
        }


def share_cf(cf: CanonicalForm) -> SharedDag:
    """The form's listing (`normal._listing`) as a DAG, arguments first.

    One node per distinct (generator, argument tuple); all outputs of a
    generator application refer to the same node.
    """

    def ref(r: int | tuple[int, int]) -> Ref:
        return InputRef(r) if isinstance(r, int) else NodeRef(*r)

    listed, outputs = _listing(cf.wires)
    nodes = tuple(DagNode(gen, tuple(map(ref, args))) for gen, args in listed)
    return SharedDag(cf.dom, cf.cod, nodes, tuple(map(ref, outputs)))


def share(t: Term) -> SharedDag:
    return share_cf(normalize(t))


def evaluate_dag(dag: SharedDag, values: tuple, interp: Interp, report: CostReport | None = None) -> tuple:
    """Evaluate every node exactly once, in interning order."""
    if report is None:
        report = CostReport()
    check_values(dag.dom, values, interp)
    values = tuple(values)
    results: list[tuple] = []

    def deref(r: Ref):
        if isinstance(r, InputRef):
            return values[r.wire]
        return results[r.node][r.out]

    for node in dag.nodes:
        args = tuple(deref(a) for a in node.args)
        report.generator_counts[node.gen.name] += 1
        results.append(interp.apply(node.gen, args))
    return tuple(deref(r) for r in dag.outputs)
