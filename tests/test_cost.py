"""Update-chain benchmarks: closed-form counts, CSV output, real gradients."""

import re
from dataclasses import astuple

import pytest

from cartoptics import (
    Interp,
    build_chain,
    chain_input,
    compose_chain,
    gen_occurrences,
    normalize,
    reify,
    rows_to_csv,
    run_tradeoff,
    share,
    validate_chain_vjps,
)
from cartoptics.cost import _FD_BLOCK, CSV_COLUMNS, FD_REL_TOL
from sampling_helpers import loop_term

import numpy as np


class TestChainConstruction:
    def test_shape(self):
        chain = build_chain(4, "finite", seed=3)
        assert chain.n == 4
        assert [s.name for s in chain.signature.sorts] == ["X0", "X1", "X2", "X3", "X4"]
        assert chain.get_names == ("get1", "get2", "get3", "get4")
        assert chain.put_names == ("put1", "put2", "put3", "put4")

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="at least 1"):
            build_chain(0)
        with pytest.raises(ValueError, match="unknown chain kind"):
            build_chain(2, "quantum")

    def test_input_determinism(self):
        finite = build_chain(2, "finite", carrier_size=3, seed=0)
        assert chain_input(finite, 7) == (7 % 3,)
        real = build_chain(2, "real", dim=3, seed=0)
        x1, x2 = chain_input(real, 5), chain_input(real, 5)
        assert np.array_equal(x1[0], x2[0])
        assert x1[0].shape == (3,)

    def test_same_seed_same_tables(self):
        c1 = build_chain(3, "finite", seed=9)
        c2 = build_chain(3, "finite", seed=9)
        for name in c1.get_names + c1.put_names:
            assert c1.signature.generator(name).table == c2.signature.generator(name).table


class TestClosedForms:
    def test_left_association_counts(self):
        rows = run_tradeoff(5, "finite", seed=0)
        assert [r.n for r in rows] == [1, 2, 3, 4, 5]
        for r in rows:
            assert r.lens_get_evals == r.n * (r.n + 1) // 2
            assert r.optic_get_evals == r.n
            assert r.lens_copies_of_A == r.n
            assert r.lens_residual_slots == 1
            assert r.optic_residual_slots == r.n
            assert r.shared_dag_get_nodes == r.n

    def test_right_association_is_cheaper(self):
        for kind in ("finite", "real"):
            left = run_tradeoff(16, kind, seed=0, dim=3)
            right = run_tradeoff(16, kind, seed=0, assoc="right", dim=3)
            assert [r.n for r in right] == list(range(1, 17))
            for lr, rr in zip(left, right):
                n = rr.n
                assert rr.lens_get_evals == 2 * n - 1 <= lr.lens_get_evals == n * (n + 1) // 2
                assert (rr.optic_get_evals, rr.lens_copies_of_A, rr.shared_dag_get_nodes) == (n, n, n)
                assert (rr.lens_residual_slots, rr.optic_residual_slots) == (1, n)
                # only the lens's get evaluations depend on the association
                assert astuple(rr)[2:7] == astuple(lr)[2:7]

    def test_normal_form_counts_recomputation(self):
        chain = build_chain(5, "finite", seed=2)
        for n in range(1, 6):
            lens = compose_chain(list(chain.lenses[:n]), "left")
            occ = gen_occurrences(normalize(loop_term(reify(lens))))
            assert sum(occ[name] for name in chain.get_names[:n]) == n * (n + 1) // 2
            dag = share(loop_term(reify(lens)))
            assert dag.gen_node_count(chain.get_names[:n]) == n


class TestCsv:
    def test_header_and_shape(self):
        rows = run_tradeoff(2, "finite", seed=0)
        csv = rows_to_csv(rows)
        lines = csv.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        assert csv.endswith("\n")
        # three wall columns, fixed precision
        assert re.search(r",\d+\.\d{6},\d+\.\d{6},\d+\.\d{6}$", lines[1])

    def test_counts_are_deterministic(self):
        first = run_tradeoff(4, "finite", seed=6)
        second = run_tradeoff(4, "finite", seed=6)

        def counts(rows):
            return [
                (r.n, r.lens_get_evals, r.optic_get_evals, r.lens_copies_of_A,
                 r.lens_residual_slots, r.optic_residual_slots, r.shared_dag_get_nodes)
                for r in rows
            ]

        assert counts(first) == counts(second)


class TestRealChains:
    def test_vjps_match_finite_differences(self):
        chain = build_chain(3, "real", dim=4, seed=0)
        interp = Interp.from_signature(chain.signature)
        worst = validate_chain_vjps(chain, interp, seed=0)
        assert worst <= FD_REL_TOL

    # a width that is no multiple of the block, so the last block is short
    FD_DIM = 37

    @pytest.mark.parametrize("k", [0, _FD_BLOCK - 1, _FD_BLOCK, FD_DIM - 1])
    def test_a_put_wrong_in_one_coordinate_is_caught(self, k):
        assert self.FD_DIM % _FD_BLOCK
        chain = build_chain(3, "real", dim=self.FD_DIM, seed=0)
        interp = Interp.from_signature(chain.signature)
        assert validate_chain_vjps(chain, interp, seed=0) <= FD_REL_TOL
        put = interp.fns["put2"]

        def wrong_at_k(args):
            (dx,) = put(args)
            return (dx + 1e-2 * (np.arange(self.FD_DIM) == k),)

        interp.fns["put2"] = wrong_at_k
        with pytest.raises(AssertionError, match="^put2 disagrees with finite differences of get2"):
            validate_chain_vjps(chain, interp, seed=0)

    def test_gets_are_applied_in_blocks_of_rows(self):
        chain = build_chain(3, "real", dim=self.FD_DIM, seed=0)
        interp = Interp.from_signature(chain.signature)
        rows: dict[str, list[int]] = {name: [] for name in chain.get_names}
        for name in chain.get_names:
            def counting(args, fn=interp.fns[name], seen=rows[name]):
                seen.append(len(args[0]))
                return fn(args)

            interp.fns[name] = counting
        validate_chain_vjps(chain, interp, seed=0)
        blocks = -(-self.FD_DIM // _FD_BLOCK)
        for seen in rows.values():
            assert len(seen) == 2 * blocks
            assert sum(seen) == 2 * self.FD_DIM

    def test_validation_needs_real_chain(self):
        chain = build_chain(2, "finite", seed=0)
        with pytest.raises(ValueError, match="real chain"):
            validate_chain_vjps(chain, Interp.from_signature(chain.signature))

    def test_tradeoff_runs_on_real_chain(self):
        # includes the internal finite-difference check and the pointwise
        # agreement of the three execution strategies
        rows = run_tradeoff(3, "real", seed=1, dim=3)
        assert [r.n for r in rows] == [1, 2, 3]
        assert rows[-1].lens_get_evals == 6
        assert rows[-1].optic_residual_slots == 3
