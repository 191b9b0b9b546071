"""Expression parsing and printing: exact round trips, located errors."""

import random
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartoptics import (
    Copy,
    ExprError,
    FiniteCarrier,
    Generator,
    Id,
    Obj,
    Proj1,
    Seq,
    Signature,
    SignatureError,
    Sort,
    Swap,
    Ten,
    UNIT,
    build_chain,
    compose_optic_chain,
    dump_signature,
    graph,
    load_signature,
    normal_eq,
    parse_signature,
    parse_term,
    reify,
    term_to_expr,
)
from cartoptics.sampling import random_morphism, random_obj, random_signature
from sampling_helpers import padded_variants


class TestParsing:
    def test_composition_and_tensor(self, sig, f, g, e):
        assert parse_term("f ; g", sig) == Seq(f, g)
        assert parse_term("e * f", sig) == Ten(e, f)

    def test_semicolon_binds_looser(self, sig, e, f, A):
        t = parse_term("copy[A] ; e * f", sig)
        assert t == Seq(Copy(A), Ten(e, f))

    def test_parens(self, sig, f, g, e):
        t = parse_term("(f ; g) * e", sig)
        assert t == Ten(Seq(f, g), e)

    def test_bracket_objects(self, sig, A, B):
        assert parse_term("copy[A B]", sig) == Copy(A @ B)
        assert parse_term("id[]", sig) == Id(UNIT)
        assert parse_term("swap[A,B]", sig) == Swap(A, B)
        assert parse_term("pi1[A B,A]", sig) == Proj1(A @ B, A)

    def test_graph(self, sig, f):
        assert parse_term("graph(f)", sig) == graph(f)

    def test_whitespace_is_ignored(self, sig, f, g):
        assert parse_term("  f;g ", sig) == Seq(f, g)


def _table_signature(table):
    return {
        "sorts": [{"name": "A", "carrier": {"finite": 2}}],
        "generators": [
            {"name": "u", "dom": ["A"], "cod": ["A"], "table": [[1], [0]]},
            {"name": "v", "dom": ["A"], "cod": ["A"], "table": table},
        ],
    }


class TestSignatureTables:
    def test_integer_entries_load(self):
        sig = parse_signature(_table_signature([[0], [1]]))
        assert sig.generator("v").table == ((0,), (1,))

    @pytest.mark.parametrize("entry", [1.9, 1.0, "1", True, None])
    def test_non_integer_entry_is_rejected_with_location(self, entry):
        with pytest.raises(SignatureError) as info:
            parse_signature(_table_signature([[0], [entry]]))
        assert str(info.value).startswith("generators[1].table[1][0]:")

    @pytest.mark.parametrize("entry", [2, -1])
    def test_out_of_carrier_entry_is_rejected_with_location(self, entry):
        with pytest.raises(SignatureError) as info:
            parse_signature(_table_signature([[0], [entry]]))
        assert str(info.value) == (
            f"generators[1].table[1][0]: expected an integer in the carrier of sort A, got {entry}"
        )

    @pytest.mark.parametrize("entry", [True, False])
    def test_bool_entry_is_rejected_when_built_in_python(self, entry):
        # a bool would evaluate, then dump as JSON true/false that no loader reads
        a = Obj((Sort("A", FiniteCarrier(2)),))
        with pytest.raises(SignatureError, match=rf"^table\[1\]\[0\]: .* got {entry}$"):
            Generator("g", a, a, table=((0,), (entry,)))


class TestSignatureInput:
    """Malformed signature JSON is rejected at its location, never coerced."""

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("sorts", 0, "name"), 5, "sorts[0].name: expected a string, got 5"),
            (("sorts", 0, "carrier"), {"finite": True}, "sorts[0].carrier.finite: expected an integer >= 1, got True"),
            (("sorts", 0, "carrier"), {"real": False}, "sorts[0].carrier.real: expected an integer >= 1, got False"),
            (("sorts", 0, "carrier"), {"finite": 0}, "sorts[0].carrier.finite: expected an integer >= 1, got 0"),
            (("sorts",), {"A": 2}, "sorts: expected a list"),
            (("generators", 0, "name"), 5, "generators[0].name: expected a string, got 5"),
            (("generators", 0, "dom"), [["A"]], "generators[0].dom[0]: unknown sort ['A']"),
            (("generators", 0, "cod"), [], "generators[0].cod: must be non-empty"),
            (("generators", 0, "table"), [[1], 0], "generators[0].table[1]: expected a list"),
            (("generators", 0, "table"), [[1]], "generators[0].table: 1 rows, expected 2"),
            (("generators", 1), {"name": "v", "dom": ["A"], "cod": ["A"], "builtin": 7},
             "generators[1].builtin: expected a string, got 7"),
            (("sorts", 0, "name"), "A B", "sorts[0].name: expected an identifier, got 'A B'"),
            (("generators", 0, "name"), "f-g", "generators[0].name: expected an identifier, got 'f-g'"),
            (("generators", 1, "name"), "2f", "generators[1].name: expected an identifier, got '2f'"),
            (("generators", 0, "name"), "", "generators[0].name: expected an identifier, got ''"),
            (("generators", 1, "name"), "copy", "generators[1].name: 'copy' is a reserved word"),
            (("generators", 0, "name"), "graph", "generators[0].name: 'graph' is a reserved word"),
        ],
        ids=[
            "sort-name", "finite-bool", "real-bool", "finite-zero", "sorts-object", "generator-name",
            "dom-entry", "cod-empty", "row-not-list", "row-count", "builtin-name",
            "sort-spaced", "generator-dash", "generator-digit", "generator-empty", "generator-copy",
            "generator-graph",
        ],
    )
    def test_rejected_with_location(self, path, value, message):
        data = _table_signature([[0], [1]])
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(SignatureError) as info:
            parse_signature(data)
        assert str(info.value) == message


# (source, pos, message): every kind of ExprError, over the conftest signature
ERRORS = [
    ("f $ g", 2, "unexpected character '$'"),
    ("f ) $", 4, "unexpected character '$'"),  # a bad character is reported before a parse error
    ("2f", 0, "unexpected character '2'"),
    ("", 0, "unexpected end of expression"),
    ("  ", 2, "unexpected end of expression"),
    ("f ;", 3, "unexpected end of expression"),
    ("(f ; g", 6, "unexpected end of expression"),
    ("graph(f", 7, "unexpected end of expression"),
    ("graph", 5, "unexpected end of expression"),
    ("copy", 4, "unexpected end of expression"),
    ("copy[A", 6, "unexpected end of expression"),
    ("copy[A B,", 9, "unexpected end of expression"),
    ("graph f", 6, "expected '(', found 'f'"),
    ("copy A", 5, "expected '[', found 'A'"),
    ("swap ;", 5, "expected '[', found ';'"),
    ("(f ; g e", 7, "expected ')', found 'e'"),
    ("graph(f ]", 8, "expected ')', found ']'"),
    ("f )", 2, "unexpected ')'"),
    ("; f", 0, "unexpected ';'"),
    ("f ; *", 4, "unexpected '*'"),
    ("f[A]", 1, "unexpected '['"),
    ("copy[A,B]", 0, "copy takes one object"),
    ("del[A,]", 0, "del takes one object"),
    ("swap[A]", 0, "swap takes two comma-separated objects"),
    ("pi1[A]", 0, "pi1 takes two comma-separated objects"),
    ("pi2[A,B,A]", 0, "pi2 takes two comma-separated objects"),
    ("f ; zz", 4, "unknown generator 'zz'"),
    ("copy[Q]", 5, "unknown sort 'Q'"),
    ("swap[A,Q B]", 7, "unknown sort 'Q'"),
    ("copy[A ; B]", 7, "expected a sort name, found ';'"),
    ("copy[A [B]]", 7, "expected a sort name, found '['"),
    ("copy[(]", 5, "expected a sort name, found '('"),
]


RESERVED = ("copy", "del", "id", "swap", "pi1", "pi2", "graph")


class TestNames:
    """Every name a signature accepts is one the term syntax can spell."""

    A = FiniteCarrier(2)

    @pytest.mark.parametrize("name", ["A B", "f-g", "2f", "", "a\n", 5])
    def test_sort_and_generator_need_an_identifier(self, name):
        with pytest.raises(SignatureError, match=r"^name: expected an identifier, got "):
            Sort(name, self.A)
        a = Obj((Sort("A", self.A),))
        with pytest.raises(SignatureError, match=r"^name: expected an identifier, got "):
            Generator(name, a, a, table=((0,), (1,)))

    @pytest.mark.parametrize("word", RESERVED)
    def test_generator_may_not_be_a_reserved_word(self, word):
        a = Obj((Sort("A", self.A),))
        with pytest.raises(SignatureError, match=rf"^name: '{word}' is a reserved word$"):
            Generator(word, a, a, table=((0,), (1,)))

    @pytest.mark.parametrize("word", RESERVED)
    def test_sort_may_be_a_reserved_word(self, word):
        s = Sort(word, self.A)
        sig = Signature((s,), (Generator("f", Obj((s,)), Obj((s,)), table=((1,), (0,))),))
        t = Copy(sig.obj(word)) >> Swap(sig.obj(word), sig.obj(word)) >> Proj1(sig.obj(word), sig.obj(word))
        assert parse_term(str(t), sig) == t


class TestErrors:
    @pytest.mark.parametrize("src, pos, message", ERRORS)
    def test_message_and_position(self, sig, src, pos, message):
        with pytest.raises(ExprError) as info:
            parse_term(src, sig)
        assert (str(info.value), info.value.pos) == (f"at position {pos}: {message}", pos)

    def test_unclosed_bracket_of_long_names_fails_fast(self, sig):
        # a bracket is scanned whole when it holds only names and commas; one
        # that is not must be given up without trying every split of its names
        src = "copy[" + "A " * 20000 + "B" * 60 + " ;"
        with pytest.raises(ExprError, match=f"^at position 40005: unknown sort '{'B' * 60}'$"):
            parse_term(src, sig)
        with pytest.raises(ExprError, match="^at position 66: expected a sort name, found ';'$"):
            parse_term("copy[" + "B" * 60 + " ;", Signature((Sort("B" * 60, FiniteCarrier(2)),), ()))

    def test_unknown_generator_position(self, sig):
        with pytest.raises(ExprError, match="unknown generator 'zz'") as info:
            parse_term("f ; zz", sig)
        assert info.value.pos == 4
        assert str(info.value).startswith("at position 4:")

    def test_unknown_sort(self, sig):
        with pytest.raises(ExprError, match="unknown sort"):
            parse_term("copy[Q]", sig)

    def test_unexpected_character(self, sig):
        with pytest.raises(ExprError, match="unexpected character") as info:
            parse_term("f $ g", sig)
        assert info.value.pos == 2

    def test_unclosed_paren(self, sig):
        with pytest.raises(ExprError, match="unexpected end") as info:
            parse_term("(f ; g", sig)
        assert info.value.pos == len("(f ; g")

    def test_trailing_garbage(self, sig):
        with pytest.raises(ExprError, match="unexpected"):
            parse_term("f )", sig)

    def test_deep_unbalanced_parens(self, sig):
        src = "(" * DEEP + "f" + ")" * (DEEP - 1)
        with pytest.raises(ExprError, match="unexpected end") as info:
            parse_term(src, sig)
        assert info.value.pos == len(src)
        src = "graph(" * DEEP + "f" + ")" * (DEEP + 1)
        with pytest.raises(ExprError, match="unexpected '\\)'") as info:
            parse_term(src, sig)
        assert info.value.pos == len(src) - 1

    def test_bracket_arity(self, sig):
        with pytest.raises(ExprError, match="takes two"):
            parse_term("swap[A]", sig)
        with pytest.raises(ExprError, match="takes one"):
            parse_term("copy[A,B]", sig)


# Deeper than the interpreter's default recursion limit of 1000.
DEEP = 1500


class TestDeepNesting:
    def test_nested_parens(self, sig, f):
        assert parse_term("(" * DEEP + "f" + ")" * DEEP, sig) == f
        t = parse_term("graph(" * DEEP + "f" + ")" * DEEP, sig)
        assert str(t).count("copy[A]") == DEEP

    def test_composed_optic_forward_round_trips(self):
        start = time.perf_counter()
        chain = build_chain(DEEP, "finite", seed=9)
        optic = compose_optic_chain([reify(l) for l in chain.lenses])
        text = str(optic.forward)  # left-nested: DEEP - 1 open parens up front
        back = parse_term(text, chain.signature)
        same = str(back) == text  # megabytes: no diff on failure
        assert same
        assert normal_eq(back, optic.forward)
        assert time.perf_counter() - start < 120


class TestRoundTrip:
    def test_print_then_parse_is_exact(self, sig):
        rng = random.Random(51)
        for _ in range(100):
            t = random_morphism(rng, sig, random_obj(rng, sig), random_obj(rng, sig))
            assert parse_term(term_to_expr(t), sig) == t

    def test_round_trip_survives_padding(self, sig):
        rng = random.Random(52)
        for _ in range(30):
            t = random_morphism(rng, sig, random_obj(rng, sig), random_obj(rng, sig))
            for v in padded_variants(rng, t):
                assert parse_term(term_to_expr(v), sig) == v

    def test_str_is_the_printer(self, f, g):
        assert str(f >> g) == term_to_expr(f >> g)


NAMES = st.from_regex(r"[A-Za-z_]\w*", fullmatch=True)


@st.composite
def named_signatures(draw) -> Signature:
    """A `random_signature` whose sorts and generators get names drawn by hypothesis.

    Sort names may be reserved words, since only sort names appear in brackets.
    """
    base = random_signature(random.Random(draw(st.integers(0, 2**32))))
    n_sorts, n_gens = len(base.sorts), len(base.generators)
    sort_names = draw(st.lists(NAMES | st.sampled_from(RESERVED), min_size=n_sorts, max_size=n_sorts, unique=True))
    gen_names = draw(st.lists(NAMES.filter(lambda n: n not in RESERVED), min_size=n_gens, max_size=n_gens, unique=True))
    sorts = {s: Sort(name, s.carrier) for s, name in zip(base.sorts, sort_names)}

    def rename(obj: Obj) -> Obj:
        return Obj(tuple(sorts[s] for s in obj))

    gens = (Generator(name, rename(g.dom), rename(g.cod), table=g.table) for g, name in zip(base.generators, gen_names))
    return Signature(tuple(sorts.values()), tuple(gens))


class TestRoundTripOverDrawnNames:
    @settings(max_examples=60, deadline=None)
    @given(named_signatures(), st.integers(0, 2**32))
    def test_parse_of_str_is_exact(self, sig, seed):
        rng = random.Random(seed)
        for _ in range(5):
            t = random_morphism(rng, sig, random_obj(rng, sig), random_obj(rng, sig))
            assert parse_term(str(t), sig) == t

    @settings(max_examples=30, deadline=None)
    @given(named_signatures())
    def test_load_of_dump_is_exact(self, sig):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "sig.json")
            dump_signature(sig, path)
            assert load_signature(path) == sig
