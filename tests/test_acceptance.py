"""End-to-end acceptance checks.

Each test prints exactly one line of the form

    ACCEPTANCE CRITERION n: PASS - <what was checked, with tolerances>

or the matching FAIL line if its assertions do not hold.
"""

import json
import random
import time
from contextlib import contextmanager

import numpy as np

from cartoptics import (
    Copy,
    FiniteCarrier,
    Gen,
    Generator,
    Id,
    Interp,
    Lens,
    Obj,
    Optic,
    Proj1,
    Proj2,
    Signature,
    Sort,
    UNIT,
    build_chain,
    chain_input,
    coherence_suite,
    compose_chain,
    compose_optic_chain,
    enumerate_inputs,
    eq_extensional,
    erase,
    evaluate_dag,
    gen_occurrences,
    graph,
    lens_compose,
    lens_exec,
    main,
    normal_eq,
    normalize,
    optic_compose,
    optic_exec,
    pi0_classes,
    reify,
    round_trip_term,
    run_tradeoff,
    search_cells,
    share,
    validate_chain_vjps,
)
from cartoptics.cost import FD_REL_TOL, PATH_ABS_TOL
from cartoptics.sampling import canon, random_morphism, random_obj, random_signature
from sampling_helpers import loop_term


@contextmanager
def criterion(capsys, num, desc):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE CRITERION {num}: FAIL - {desc}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE CRITERION {num}: PASS - {desc}")


def test_criterion_1_three_stage_tradeoff(capsys):
    desc = (
        "3-stage chain: lens recomputation costs 6 forward passes with 1 stored "
        "slot, the optic costs 3 passes with 3 slots (exact counts, wall < 1s)"
    )
    with criterion(capsys, 1, desc):
        rows = run_tradeoff(3)
        r = rows[-1]
        assert r.n == 3
        assert r.lens_get_evals == 6
        assert r.optic_get_evals == 3
        assert r.lens_copies_of_A == 3
        assert r.lens_residual_slots == 1
        assert r.optic_residual_slots == 3
        assert r.shared_dag_get_nodes == 3
        for wall in (r.lens_wall_s, r.optic_wall_s, r.shared_wall_s):
            assert 0.0 <= wall < 1.0


def test_criterion_2_quadratic_vs_linear(capsys):
    desc = (
        "every prefix of an 8-stage chain: forward passes n(n+1)/2 under "
        "recomputation vs n under storage, slots 1 vs n (exact counts)"
    )
    with criterion(capsys, 2, desc):
        t0 = time.perf_counter()
        rows = run_tradeoff(8)
        for i, r in enumerate(rows):
            n = i + 1
            assert r.n == n
            assert r.lens_get_evals == n * (n + 1) // 2
            assert r.optic_get_evals == n
            assert r.lens_copies_of_A == n
            assert r.lens_residual_slots == 1
            assert r.optic_residual_slots == n
            assert r.shared_dag_get_nodes == n
        assert time.perf_counter() - t0 < 5.0


def test_criterion_3_copy_project_laws(capsys):
    desc = (
        "graph(t) followed by a projection recovers t (second leg) or the "
        "identity (first leg) for every generator and 102 random composites "
        "over 3 random signatures, by normal form and exhaustive evaluation"
    )
    with criterion(capsys, 3, desc):
        rng = random.Random(3)
        for i in range(3):
            sig = random_signature(random.Random(100 + i))
            interp = Interp.from_signature(sig)
            terms = [Gen(g) for g in sig.generators]
            for _ in range(34):
                dom = random_obj(rng, sig)
                cod = random_obj(rng, sig)
                terms.append(random_morphism(rng, sig, dom, cod))
            for t in terms:
                second = graph(t) >> Proj2(t.dom, t.cod)
                first = graph(t) >> Proj1(t.dom, t.cod)
                assert normal_eq(second, t)
                assert normal_eq(first, Id(t.dom))
                assert eq_extensional(second, t, interp)
                assert eq_extensional(first, Id(t.dom), interp)


def test_criterion_4_cli_law_suite(capsys):
    desc = (
        "check-laws exits 0 on 3 random signatures at 100 samples / 50 triples "
        "and every run rejects at least one corrupted witness"
    )
    with criterion(capsys, 4, desc):
        rc = main(
            ["check-laws", "--random-signatures", "3", "--samples", "100",
             "--triples", "50", "--seed", "0"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            data = json.loads(line)
            assert data["passed"] is True
            mutation = data["adjunction"]["laws"]["mutation_sensitivity"]
            assert mutation["passed"] is True
            assert mutation["checked"] >= 1


def test_criterion_5_coherence_suite(capsys, sig, interp):
    desc = (
        "lax-functor coherence holds on 100 composable pairs and 50 triples "
        "over the hand-built signature, cross-checked by exhaustive evaluation"
    )
    with criterion(capsys, 5, desc):
        report = coherence_suite(sig, interp, random.Random(5), n_pairs=100, n_triples=50)
        assert report.passed
        for name, law in report.laws.items():
            assert law.checked > 0, name
            assert not law.failures, (name, law.failures)


def _negation_signature():
    a = Sort("A", FiniteCarrier(2))
    sig = Signature(
        (a,), (Generator("f", Obj((a,)), Obj((a,)), table=((1,), (0,))),)
    )
    return sig, Obj((a,)), Gen(sig.generator("f"))


def _pi0_family(sig, A, f):
    unary = [Id(A), f]
    base = [Optic(UNIT, fw, bw) for fw in unary for bw in unary]
    forwards = [Copy(A) >> (u @ v) for u in unary for v in unary]
    backwards = [p >> w for p in (Proj1(A, A), Proj2(A, A)) for w in unary]
    base += [Optic(A, fw, bw) for fw in forwards for bw in backwards]

    l1 = Lens(f, Proj2(A, A))
    l2 = Lens(f, Proj1(A, A) >> f)
    composites = [reify(lens_compose(l1, l2)), optic_compose(reify(l1), reify(l2))]

    # one canonical hub per fiber, so that optics with the same erasure
    # share a structurally identical neighbour
    hubs = []
    for o in base + composites:
        l = erase(o)
        hubs.append(reify(Lens(canon(l.get), canon(l.put))))

    family = []
    for o in base + composites + hubs:
        if o not in family:
            family.append(o)
    return family, composites


def test_criterion_6_components_are_lens_fibers(capsys):
    desc = (
        "connected components of a 2-element-carrier optic family, every "
        "cell decided exactly, coincide with the fibers of erasure, merging "
        "different residuals and separating different behaviours (< 60s)"
    )
    with criterion(capsys, 6, desc):
        t0 = time.perf_counter()
        sig, A, f = _negation_signature()
        interp = Interp.from_signature(sig)
        family, composites = _pi0_family(sig, A, f)

        sample = search_cells(family, interp)
        classes = {frozenset(c) for c in pi0_classes(sample)}

        fibers = {}
        for i, o in enumerate(family):
            l = erase(o)
            fibers.setdefault((normalize(l.get), normalize(l.put)), []).append(i)
        fiber_classes = {frozenset(v) for v in fibers.values()}

        assert classes == fiber_classes
        assert len(classes) > 1
        assert any(len(c) > 1 for c in classes)
        both = {family.index(composites[0]), family.index(composites[1])}
        assert any(both <= c for c in classes)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_7_three_paths_agree(capsys):
    desc = (
        "lens execution, optic execution and the shared DAG agree exactly on "
        "all inputs of 50 random finite chains, and within atol 1e-12 on a "
        "real chain whose reverse maps match finite differences to 1e-4"
    )
    with criterion(capsys, 7, desc):
        for seed in range(50):
            n = seed % 5 + 1
            chain = build_chain(n, "finite", carrier_size=2 + seed % 2, seed=seed)
            interp = Interp.from_signature(chain.signature)
            lens = compose_chain(list(chain.lenses))
            optic = compose_optic_chain([reify(l) for l in chain.lenses])
            dag = share(round_trip_term(optic))
            for a in enumerate_inputs(lens.dom_pair[0]):
                lb, la, _ = lens_exec(lens, a, interp)
                ob, oa, _ = optic_exec(optic, a, interp)
                assert (lb, la) == (ob, oa)
                assert lb + la == evaluate_dag(dag, a, interp)

        chain = build_chain(3, "real", dim=4, seed=0)
        interp = Interp.from_signature(chain.signature)
        assert validate_chain_vjps(chain, interp) <= FD_REL_TOL
        a = chain_input(chain, 0)
        lens = compose_chain(list(chain.lenses))
        optic = compose_optic_chain([reify(l) for l in chain.lenses])
        lb, la, _ = lens_exec(lens, a, interp)
        ob, oa, _ = optic_exec(optic, a, interp)
        dvals = evaluate_dag(share(round_trip_term(optic)), a, interp)
        for x, y in zip(lb + la, ob + oa):
            assert np.allclose(x, y, rtol=0.0, atol=PATH_ABS_TOL)
        for x, y in zip(lb + la, dvals):
            assert np.allclose(x, y, rtol=0.0, atol=PATH_ABS_TOL)


def test_criterion_8_sharing_collapses_the_quadratic_term(capsys):
    desc = (
        "the round-trip normal form of an n-prefix chain mentions the forward "
        "maps n(n+1)/2 times, yet its shared DAG holds exactly n forward "
        "nodes, for every n up to 8"
    )
    with criterion(capsys, 8, desc):
        chain = build_chain(8, "finite", seed=0)
        for n in range(1, 9):
            lens = compose_chain(list(chain.lenses[:n]))
            occ = gen_occurrences(normalize(loop_term(reify(lens))))
            assert sum(occ[name] for name in chain.get_names[:n]) == n * (n + 1) // 2
            dag = share(loop_term(reify(lens)))
            assert dag.gen_node_count(chain.get_names[:n]) == n
