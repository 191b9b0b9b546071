"""Hash-consing: repeated work in the canonical form collapses to one node."""

import random

from cartoptics import (
    Copy,
    Id,
    enumerate_inputs,
    evaluate,
    evaluate_dag,
    gen_occurrences,
    graph,
    normalize,
    share,
)
from cartoptics.interp import CostReport
from cartoptics.sampling import random_morphism, random_obj


class TestSharing:
    def test_copied_generator_is_one_node(self, sig, f, A):
        dag = share(Copy(A) >> (f @ f))
        assert dag.nodes == ((sig.generator("f"), (0,)),)
        assert dag.outputs == ((0, 0), (0, 0))

    def test_recomputed_prefix_is_deduplicated(self, f, g, A):
        # three generator occurrences in the canonical form, two distinct
        t = graph(f >> g) >> (graph(f) @ Id(A))
        assert sum(gen_occurrences(normalize(t)).values()) == 3
        dag = share(t)
        assert len(dag.nodes) == 2
        assert [gen.name for gen, _ in dag.nodes] == ["f", "g"]
        assert dag.outputs[0] == 0

    def test_multi_output_generator_shares_one_node(self, k, A):
        dag = share(Copy(A) >> (k @ k))
        assert len(dag.nodes) == 1
        assert dag.outputs == ((0, 0), (0, 1), (0, 0), (0, 1))

    def test_name_filter(self, f, g, A):
        dag = share(graph(f >> g) >> (graph(f) @ Id(A)))
        assert dag.gen_node_count({"f"}) == 1
        assert dag.gen_node_count({"g"}) == 1
        assert dag.gen_node_count({"absent"}) == 0

    def test_json_shape(self, f, A):
        out = share(Copy(A) >> (f @ f)).to_json()
        assert out == {
            "nodes": [{"gen": "f", "args": [{"input": 0}]}],
            "outputs": [{"node": 0, "out": 0}, {"node": 0, "out": 0}],
        }


class TestDagEvaluation:
    def test_each_node_runs_once(self, f, A, interp):
        dag = share(Copy(A) >> (f @ f))
        report = CostReport()
        assert evaluate_dag(dag, (0,), interp, report) == (1, 1)
        assert sum(report.generator_counts.values()) == 1

    def test_agrees_with_term_evaluation(self, sig, interp):
        rng = random.Random(41)
        for _ in range(80):
            dom = random_obj(rng, sig)
            cod = random_obj(rng, sig)
            t = random_morphism(rng, sig, dom, cod, budget=3)
            dag = share(t)
            for xs in enumerate_inputs(dom):
                term_report = CostReport()
                dag_report = CostReport()
                want = evaluate(t, xs, interp, term_report)
                got = evaluate_dag(dag, xs, interp, dag_report)
                assert got == want
                # sharing can only reduce generator work
                dag_evals = sum(dag_report.generator_counts.values())
                assert dag_evals <= sum(term_report.generator_counts.values())
                assert dag_evals == len(dag.nodes)
