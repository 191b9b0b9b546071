"""Builtin real primitives: weights drawn lazily, once, and read-only."""

import zlib

import numpy as np
import pytest

from cartoptics import Obj, RealVector, SignatureError, Sort, load_signature
from cartoptics import primitives
from cartoptics.cost import build_chain
from cartoptics.signature import dump_signature

M, N = 5, 3
X = Obj((Sort("X", RealVector(M)),))
Y = Obj((Sort("Y", RealVector(N)),))


def eager_weights(tag, m, n):
    """The weights as the module documents them, drawn here by hand."""
    rng = np.random.default_rng(zlib.crc32(f"affine_{tag}:{m}:{n}".encode()))
    return rng.standard_normal((n, m)) / np.sqrt(m), rng.standard_normal(n) * 0.1


@pytest.fixture
def draws(monkeypatch):
    """Each weight draw from an empty cache, as (name, dims)."""
    primitives._affine_weights.cache_clear()
    seen = []
    seeded = primitives._seeded

    def counting(name, *dims):
        seen.append((name, dims))
        return seeded(name, *dims)

    monkeypatch.setattr(primitives, "_seeded", counting)
    yield seen
    primitives._affine_weights.cache_clear()


class TestAffineWeights:
    def test_outputs_are_bit_identical_to_the_eager_formula(self, draws):
        x = np.linspace(-1.0, 1.0, M)
        c = np.linspace(0.5, -0.5, N)
        w, b = eager_weights("s1", M, N)
        wt, bt = eager_weights("tanh_s1", M, N)
        y = np.tanh(wt @ x + bt)
        want = {
            ("affine_s1", X, Y): w @ x + b,
            ("affine_vjp_s1", X @ Y, X): w.T @ c,
            ("affine_tanh_s1", X, Y): y,
            ("affine_tanh_vjp_s1", X @ Y, X): wt.T @ (c * (1.0 - y * y)),
        }
        for (name, dom, cod), out in want.items():
            args = (x,) if len(dom) == 1 else (x, c)
            (got,) = primitives.resolve(name, dom, cod)(args)
            assert np.array_equal(got, out), name

    @pytest.mark.parametrize(
        "name, dom, cod",
        [
            ("tanh", X, X),
            ("tanh_vjp", X @ X, X),
            ("affine_s1", X, Y),
            ("affine_vjp_s1", X @ Y, X),
            ("affine_tanh_s1", X, Y),
            ("affine_tanh_vjp_s1", X @ Y, X),
        ],
    )
    def test_leading_axes_are_a_batch(self, name, dom, cod):
        rng = np.random.default_rng(0)
        batch = tuple(rng.standard_normal((7, s.carrier.dimension)) for s in dom)
        fn = primitives.resolve(name, dom, cod)
        (got,) = fn(batch)
        assert got.shape == (7, cod[0].carrier.dimension)
        rows = [fn(tuple(arg[k] for arg in batch))[0] for k in range(7)]
        assert np.allclose(got, np.stack(rows), rtol=1e-12, atol=0.0)

    def test_a_forward_and_its_vjp_draw_once_on_first_use(self, draws):
        fwd = primitives.resolve("affine_tanh_s2", X, Y)
        vjp = primitives.resolve("affine_tanh_vjp_s2", X @ Y, X)
        assert draws == []
        x, c = np.ones(M), np.ones(N)
        fwd((x,))
        vjp((x, c))
        fwd((x,))
        assert draws == [("affine_tanh_s2", (M, N))]
        w, b = primitives._affine_weights("tanh_s2", M, N)
        assert not w.flags.writeable and not b.flags.writeable

    def test_loading_the_real_chain_signature_draws_nothing(self, draws, tmp_path):
        path = str(tmp_path / "chain-real.json")
        dump_signature(build_chain(16, "real", dim=256).signature, path)
        sig = load_signature(path)
        assert draws == []
        get = sig.generator("get1")
        get.fn((np.zeros(256),))
        assert draws == [("affine_tanh_s1", (256, 256))]

    @pytest.mark.parametrize("name", ["affine_s1", "affine_tanh_s1"])
    def test_dimension_errors_stay_at_resolve_time(self, draws, name):
        with pytest.raises(SignatureError, match="expects one real sort each side"):
            primitives.resolve(name, X @ X, Y)
        assert draws == []
