"""Lenses: typing, category laws up to normalization, recomputation costs."""

import random

import pytest

from cartoptics import (
    CarrierMismatch,
    Id,
    Interp,
    Lens,
    Proj1,
    TermTypeError,
    build_chain,
    chain_input,
    compose_chain,
    lens_compose,
    lens_exec,
    lens_id,
    lens_normal_eq,
)
from cartoptics.sampling import random_composable_lenses, random_lens


class TestConstruction:
    def test_boundary_inference(self, f, h, A, B):
        l = Lens(f, h)
        assert l.dom_pair == (A, A)
        assert l.cod_pair == (B, B)

    def test_put_must_extend_get_domain(self, f, g, A, B):
        with pytest.raises(TermTypeError) as err:
            Lens(f, g)
        assert str(err.value) == "put domain B does not start with get domain A"
        assert (err.value.expected, err.value.actual) == (A, B)

    def test_identity(self, A, B):
        l = lens_id((A, B))
        assert l.dom_pair == (A, B)
        assert l.cod_pair == (A, B)

    def test_compose_boundary_mismatch(self, f, h, A):
        l = Lens(f, h)
        with pytest.raises(TermTypeError, match="do not match"):
            lens_compose(l, l)


class TestCategoryLaws:
    def test_identity_laws(self, sig):
        rng = random.Random(61)
        for _ in range(40):
            l = random_lens(rng, sig)
            assert lens_normal_eq(lens_compose(lens_id(l.dom_pair), l), l)
            assert lens_normal_eq(lens_compose(l, lens_id(l.cod_pair)), l)

    def test_associativity(self, sig):
        rng = random.Random(62)
        for _ in range(40):
            l1, l2, l3 = random_composable_lenses(rng, sig, 3)
            left = lens_compose(lens_compose(l1, l2), l3)
            right = lens_compose(l1, lens_compose(l2, l3))
            assert lens_normal_eq(left, right)

    def test_chain_association_preserves_meaning(self, sig):
        rng = random.Random(63)
        lenses = list(random_composable_lenses(rng, sig, 4))
        assert lens_normal_eq(
            compose_chain(lenses, "left"), compose_chain(lenses, "right")
        )

    def test_chain_argument_validation(self):
        with pytest.raises(ValueError, match="empty"):
            compose_chain([])


class TestExecution:
    def test_hand_run(self, f, h, interp):
        # get = f, put = h, identity environment: b = f(1) = 2, a' = h(1, 2) = 1
        b, a_prime, report = lens_exec(Lens(f, h), (1,), interp)
        assert b == (2,)
        assert a_prime == (1,)
        assert report.generator_counts == {"f": 1, "h": 1}
        assert report.copies == 1  # the held input
        assert report.peak_residual_slots == 1

    def test_const_env(self, f, h, interp):
        b, a_prime, _ = lens_exec(Lens(f, h), (0,), interp, env=lambda _b: (0,))
        assert b == (1,)
        assert a_prime == (0,)  # h(0, 0)

    def test_default_env_needs_matching_boundary(self, f, A, interp):
        l = Lens(f, Proj1(A, A))  # responses live at A, outputs at B
        with pytest.raises(TermTypeError, match="identity env"):
            lens_exec(l, (0,), interp)

    def test_env_response_is_validated(self, f, h, interp):
        with pytest.raises(CarrierMismatch, match="env response"):
            lens_exec(Lens(f, h), (0,), interp, env=lambda _b: (7,))


@pytest.fixture(scope="module")
def chain3():
    chain = build_chain(3, "finite", seed=1)
    return chain, Interp.from_signature(chain.signature)


class TestRecomputationCosts:
    def test_left_association_counts(self, chain3):
        chain, interp = chain3
        lens = compose_chain(list(chain.lenses), "left")
        _, _, report = lens_exec(lens, chain_input(chain), interp)
        # stage i's forward pass reruns for every later backward stage
        assert report.total_evals(chain.get_names) == 6  # 3 + 2 + 1
        assert report.total_evals(chain.put_names) == 3
        assert report.copies == 3
        assert report.peak_residual_slots == 1
        assert report.peak_residual_bytes == 1

    def test_right_association_counts(self, chain3):
        chain, interp = chain3
        lens = compose_chain(list(chain.lenses), "right")
        _, _, report = lens_exec(lens, chain_input(chain), interp)
        assert report.total_evals(chain.get_names) == 5  # 2n - 1
        assert report.total_evals(chain.put_names) == 3

    def test_composite_matches_manual_two_pass(self):
        chain = build_chain(2, "finite", seed=5)
        interp = Interp.from_signature(chain.signature)
        lens = compose_chain(list(chain.lenses), "left")
        get1, get2 = (chain.signature.generator(n) for n in chain.get_names)
        put1, put2 = (chain.signature.generator(n) for n in chain.put_names)
        for a in range(2):
            b, a_prime, _ = lens_exec(lens, (a,), interp)
            x1 = interp.apply(get1, (a,))
            want_b = interp.apply(get2, x1)
            x1_back = interp.apply(put2, x1 + want_b)
            want_a = interp.apply(put1, (a,) + x1_back)
            assert (b, a_prime) == (want_b, want_a)
