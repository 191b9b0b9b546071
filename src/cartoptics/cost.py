"""Space-time tradeoff measurements over staged update chains.

A chain is n stages, each a lens X_{i-1} <-> X_i whose put consumes the
original input and a response.  Three execution strategies for the composed
chain are compared on identical inputs:

  * lens: compose and run as a lens.  The composite put re-runs earlier
    forward passes via graphs, so forward work grows quadratically under
    left association, while only the original input is held.
  * optic: run each forward pass once and hold every intermediate in the
    residual.  Forward work is linear, held state is linear.
  * shared: normalize the lens round trip and evaluate it as a hash-consed
    dag, which deduplicates the recomputed prefixes back to linear work.
    Building the dag is linear too: normalizing pushes each recomputed
    prefix, a subterm the composite shares, into the unique table once.

`run_tradeoff` verifies the three strategies agree pointwise, asserts the
closed-form counts for either association, and returns one row per prefix
length.  `build_chain` makes either a finite chain (random tables) or a real
one (seeded affine+tanh stages whose puts are the matching vector-Jacobian
products, validated against finite differences).
"""

from __future__ import annotations

import random
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import primitives
from .bridge import reify
from .dag import evaluate_dag, share
from .interp import CostReport, Interp
from .lens import Lens, compose_chain, lens_exec
from .optic import compose_optic_chain, optic_exec, round_trip_term
from .sampling import random_table
from .signature import FiniteCarrier, Generator, Obj, RealVector, Signature, Sort
from .term import Gen

FD_STEP = 1e-6
FD_REL_TOL = 1e-4
PATH_ABS_TOL = 1e-12
_FD_BLOCK = 32  # perturbed points per batched `get` application in validate_chain_vjps


@dataclass(frozen=True)
class Chain:
    signature: Signature
    lenses: tuple[Lens, ...]
    kind: str
    get_names: tuple[str, ...]
    put_names: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.lenses)


def build_chain(
    n: int,
    kind: str = "finite",
    carrier_size: int = 2,
    dim: int = 4,
    seed: int = 0,
) -> Chain:
    """An n-stage update chain over sorts X0..Xn."""
    if n < 1:
        raise ValueError("chain length must be at least 1")
    if kind == "finite":
        sorts = [Sort(f"X{i}", FiniteCarrier(carrier_size)) for i in range(n + 1)]
    elif kind == "real":
        sorts = [Sort(f"X{i}", RealVector(dim)) for i in range(n + 1)]
    else:
        raise ValueError(f"unknown chain kind {kind!r}")
    rng = random.Random(seed)
    gens: list[Generator] = []
    lenses: list[Lens] = []
    get_names: list[str] = []
    put_names: list[str] = []
    for i in range(1, n + 1):
        src, dst = Obj((sorts[i - 1],)), Obj((sorts[i],))
        get_name, put_name = f"get{i}", f"put{i}"
        if kind == "finite":
            get = Generator(get_name, src, dst, table=random_table(rng, src, dst))
            put = Generator(
                put_name, src @ dst, src, table=random_table(rng, src @ dst, src)
            )
        else:
            fwd_builtin = f"affine_tanh_s{i}"
            bwd_builtin = f"affine_tanh_vjp_s{i}"
            get = Generator(get_name, src, dst, fn=primitives.resolve(fwd_builtin, src, dst))
            put = Generator(
                put_name, src @ dst, src, fn=primitives.resolve(bwd_builtin, src @ dst, src)
            )
        gens.extend([get, put])
        lenses.append(Lens(Gen(get), Gen(put)))
        get_names.append(get_name)
        put_names.append(put_name)
    sig = Signature(tuple(sorts), tuple(gens))
    return Chain(sig, tuple(lenses), kind, tuple(get_names), tuple(put_names))


def chain_input(chain: Chain, seed: int = 0) -> tuple:
    """A deterministic input point for the chain's first sort."""
    sort = chain.signature.sort("X0")
    if isinstance(sort.carrier, FiniteCarrier):
        return (seed % sort.carrier.size,)
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(sort.carrier.dimension),)


def validate_chain_vjps(chain: Chain, interp: Interp, seed: int = 0) -> float:
    """Check each put against central finite differences of its get.

    Every coordinate k of a stage's input gets its own pair of points
    x ± FD_STEP·e_k, and `get` maps _FD_BLOCK of them at once as the rows of
    one batch: 2·⌈dim/_FD_BLOCK⌉ applications of `get` per stage, and one of
    its put.  Returns the worst relative error seen; raises if it exceeds
    tolerance.
    """
    if chain.kind != "real":
        raise ValueError("finite-difference validation needs a real chain")
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for get_name, put_name in zip(chain.get_names, chain.put_names):
        get = chain.signature.generator(get_name)
        put = chain.signature.generator(put_name)
        dim_in = get.dom[0].carrier.dimension
        x = rng.standard_normal(dim_in)
        db = rng.standard_normal(get.cod[0].carrier.dimension)
        (dx,) = interp.apply(put, (x, db))
        fd = np.empty(dim_in)
        for start in range(0, dim_in, _FD_BLOCK):
            rows = min(_FD_BLOCK, dim_in - start)
            steps = np.eye(rows, dim_in, start) * FD_STEP  # row j is FD_STEP·e_{start+j}
            (y_plus,) = interp.apply(get, (x + steps,))
            (y_minus,) = interp.apply(get, (x - steps,))
            fd[start : start + rows] = ((y_plus - y_minus) @ db) / (2 * FD_STEP)
        rel = float(np.linalg.norm(fd - dx) / max(np.linalg.norm(fd), 1e-8))
        worst = max(worst, rel)
        if rel > FD_REL_TOL:
            raise AssertionError(
                f"{put_name} disagrees with finite differences of {get_name}: "
                f"relative error {rel:.2e}"
            )
    return worst


@dataclass(frozen=True)
class TradeoffRow:
    n: int
    lens_get_evals: int
    optic_get_evals: int
    lens_copies_of_A: int
    lens_residual_slots: int
    optic_residual_slots: int
    shared_dag_get_nodes: int
    lens_wall_s: float
    optic_wall_s: float
    shared_wall_s: float


CSV_COLUMNS = tuple(f.name for f in fields(TradeoffRow))


def rows_to_csv(rows: list[TradeoffRow]) -> str:
    """One line per row, the columns in field order, wall times at .6f."""
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in astuple(r)))
    return "\n".join(lines) + "\n"


def _values_equal(xs: tuple, ys: tuple, kind: str) -> bool:
    if kind == "finite":
        return xs == ys
    return len(xs) == len(ys) and all(
        np.allclose(x, y, rtol=0.0, atol=PATH_ABS_TOL) for x, y in zip(xs, ys)
    )


def run_tradeoff(
    max_n: int,
    kind: str = "finite",
    seed: int = 0,
    assoc: str = "left",
    carrier_size: int = 2,
    dim: int = 4,
) -> list[TradeoffRow]:
    """One row per prefix length of a single max_n chain."""
    chain = build_chain(max_n, kind, carrier_size=carrier_size, dim=dim, seed=seed)
    interp = Interp.from_signature(chain.signature)
    if kind == "real":
        validate_chain_vjps(chain, interp, seed)
    a = chain_input(chain, seed)
    rows: list[TradeoffRow] = []
    for n in range(1, max_n + 1):
        stage = list(chain.lenses[:n])
        get_names = chain.get_names[:n]
        lens = compose_chain(stage, assoc)
        optic = compose_optic_chain([reify(l) for l in stage])

        t0 = time.perf_counter()
        b_lens, a_lens, lens_rep = lens_exec(lens, a, interp)
        lens_wall = time.perf_counter() - t0

        t0 = time.perf_counter()
        b_opt, a_opt, opt_rep = optic_exec(optic, a, interp)
        optic_wall = time.perf_counter() - t0

        rt_dag = share(round_trip_term(reify(lens)))
        shared_rep = CostReport()
        t0 = time.perf_counter()
        out = evaluate_dag(rt_dag, a, interp, shared_rep)
        shared_wall = time.perf_counter() - t0
        b_obj, _ = lens.cod_pair
        b_dag, a_dag = out[: len(b_obj)], out[len(b_obj) :]

        if not (
            _values_equal(b_lens, b_opt, kind)
            and _values_equal(a_lens, a_opt, kind)
            and _values_equal(b_lens, b_dag, kind)
            and _values_equal(a_lens, a_dag, kind)
        ):
            raise AssertionError(f"strategy outputs disagree at n={n}")

        row = TradeoffRow(
            n=n,
            lens_get_evals=lens_rep.total_evals(get_names),
            optic_get_evals=opt_rep.total_evals(get_names),
            lens_copies_of_A=lens_rep.copies,
            lens_residual_slots=lens_rep.peak_residual_slots,
            optic_residual_slots=opt_rep.peak_residual_slots,
            shared_dag_get_nodes=rt_dag.gen_node_count(get_names),
            lens_wall_s=lens_wall,
            optic_wall_s=optic_wall,
            shared_wall_s=shared_wall,
        )
        expect = {
            "lens_get_evals": n * (n + 1) // 2 if assoc == "left" else 2 * n - 1,
            "optic_get_evals": n,
            "lens_copies_of_A": n,
            "lens_residual_slots": 1,
            "optic_residual_slots": n,
            "shared_dag_get_nodes": n,
        }
        for field_name, want in expect.items():
            got = getattr(row, field_name)
            if got != want:
                raise AssertionError(f"{field_name} at n={n} ({assoc}): measured {got}, closed form {want}")
        rows.append(row)
    return rows
