"""Command line behaviour: output shapes, exit codes, determinism."""

import json
from pathlib import Path

import pytest

from cartoptics import EnumerationCapError, Interp, cli, main, signature_to_json
from cartoptics.cli import VERSION


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def sig_path(work, sig):
    p = work / "sig.json"
    p.write_text(json.dumps(signature_to_json(sig)))
    return str(p)


@pytest.fixture(scope="module")
def lens_path(work):
    p = work / "lens.json"
    p.write_text(json.dumps({"get": "f", "put": "h"}))
    return str(p)


@pytest.fixture(scope="module")
def optic_path(work):
    p = work / "optic.json"
    p.write_text(
        json.dumps(
            {"residual": ["A"], "forward": "copy[A] ; id[A] * f", "backward": "h"}
        )
    )
    return str(p)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestBasics:
    def test_version(self, capsys):
        rc, out, _ = run_cli(capsys, "--version")
        assert rc == 0
        assert f"cartoptics {VERSION}" in out

    def test_no_command_is_usage_error(self, capsys):
        rc, _, _ = run_cli(capsys)
        assert rc == 2

    def test_unknown_command_is_usage_error(self, capsys):
        rc, _, _ = run_cli(capsys, "frobnicate")
        assert rc == 2


class TestNormalize:
    def test_graph(self, capsys, sig_path):
        rc, out, _ = run_cli(
            capsys, "normalize", "--signature", sig_path, "--expr", "graph(f)"
        )
        assert rc == 0
        line = out.strip()
        data = json.loads(line)
        assert data["dom"] == ["A"]
        assert data["cod"] == ["A", "B"]
        assert data["nodes"] == [{"gen": "f", "args": [{"input": 0}]}]
        assert data["outputs"] == [{"input": 0}, {"node": 0, "out": 0}]
        assert data["read_back"] == "(copy[A] ; (id[A] * (id[A] ; f)))"
        # output keys are sorted, so repeated runs are byte-identical
        assert json.dumps(data, sort_keys=True) == line

    def test_long_chain(self, capsys, sig_path):
        # 600 rows, each the argument of the next: no output part nests
        expr = " ; ".join(["f ; g"] * 300)
        rc, out, err = run_cli(capsys, "normalize", "--signature", sig_path, "--expr", expr)
        assert (rc, err) == (0, "")
        data = json.loads(out)
        assert len(data["nodes"]) == 600
        assert data["outputs"] == [{"node": 599, "out": 0}]

    def test_parse_error_exit_code(self, capsys, sig_path):
        rc, _, err = run_cli(
            capsys, "normalize", "--signature", sig_path, "--expr", "f ;;"
        )
        assert rc == 2
        assert err.startswith("error: --expr: at position")

    def test_missing_signature_file(self, capsys, work):
        rc, _, err = run_cli(
            capsys, "normalize", "--signature", str(work / "nope.json"), "--expr", "f"
        )
        assert rc == 2
        assert err.startswith("error:")


# A multi-output generator (k, second output only), a row that a delete kills
# (e ; e), and rows used more than once (e, and f after e).
GOLDEN_EXPR = (
    "copy[A] ; (copy[A] ; (e ; f) * (k ; pi2[A,A])) * (e ; copy[A] ; id[A] * (e ; del[A]))"
    " ; (swap[B,A] ; h) * (copy[A] ; id[A] * f)"
)


class TestOptimize:
    def test_golden_listing_and_read_back(self, capsys, sig_path):
        """Row numbering and read-back, pinned byte for byte."""
        rc, out, _ = run_cli(capsys, "optimize", "--signature", sig_path, "--expr", GOLDEN_EXPR)
        assert rc == 0
        assert out == (
            '{"cod": ["A", "A", "B"], "dom": ["A"], "node_count": 4, "nodes": ['
            '{"args": [{"input": 0}], "gen": "k"}, '
            '{"args": [{"input": 0}], "gen": "e"}, '
            '{"args": [{"node": 1, "out": 0}], "gen": "f"}, '
            '{"args": [{"node": 0, "out": 1}, {"node": 2, "out": 0}], "gen": "h"}], '
            '"outputs": [{"node": 3, "out": 0}, {"node": 1, "out": 0}, {"node": 2, "out": 0}]}\n'
        )
        rc, normalized, _ = run_cli(capsys, "normalize", "--signature", sig_path, "--expr", GOLDEN_EXPR)
        data = json.loads(normalized)
        assert data.pop("read_back") == (
            "(copy[A] ; (((copy[A] ; (((id[A] ; k) ; pi2[A,A]) * ((id[A] ; e) ; f))) ; h)"
            " * (copy[A] ; ((id[A] ; e) * ((id[A] ; e) ; f)))))"
        )
        # normalize prints the listing optimize prints
        assert data == {k: v for k, v in json.loads(out).items() if k != "node_count"}

    def test_shared_copy(self, capsys, sig_path):
        rc, out, _ = run_cli(
            capsys, "optimize", "--signature", sig_path, "--expr", "copy[A] ; f * f"
        )
        assert rc == 0
        data = json.loads(out)
        assert data["node_count"] == 1
        assert data["outputs"] == [{"node": 0, "out": 0}, {"node": 0, "out": 0}]


class TestRun:
    def test_lens(self, capsys, sig_path, lens_path):
        rc, out, _ = run_cli(
            capsys, "run", "--lens", lens_path, "--signature", sig_path, "--input", "[1]"
        )
        assert rc == 0
        data = json.loads(out)
        assert data["output"] == [2]
        assert data["updated"] == [1]
        assert data["cost"]["generator_counts"] == {"f": 1, "h": 1}

    def test_optic(self, capsys, sig_path, optic_path):
        rc, out, _ = run_cli(
            capsys, "run", "--optic", optic_path, "--signature", sig_path, "--input", "[1]"
        )
        assert rc == 0
        data = json.loads(out)
        assert data["output"] == [2]
        assert data["updated"] == [1]
        assert data["cost"]["peak_residual_slots"] == 1

    @pytest.mark.parametrize("kind", ["lens", "optic"])
    @pytest.mark.parametrize("value, output", [(0, 1), (1, 2)])
    def test_cost_json_is_pinned(self, capsys, request, sig_path, kind, value, output):
        path = request.getfixturevalue(f"{kind}_path")
        rc, out, err = run_cli(
            capsys, "run", f"--{kind}", path, "--signature", sig_path, "--input", f"[{value}]"
        )
        assert (rc, err) == (0, "")
        assert out == (
            '{"cost": {"copies": 1, "generator_counts": {"f": 1, "h": 1}, '
            '"peak_residual_bytes": 1, "peak_residual_slots": 1}, '
            f'"output": [{output}], "updated": [1]}}\n'
        )

    @pytest.mark.parametrize("kind", ["lens", "optic"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--input", '["a"]'], "--input: [0]: value 'a' not in finite carrier of A"),
            (["--input", "[0]", "--env", "const:[7]"], "--env: [0]: value 7 not in finite carrier of B"),
        ],
        ids=["input", "env"],
    )
    def test_bad_finite_entry_is_named_before_any_pass(
        self, capsys, request, monkeypatch, sig_path, kind, argv, message
    ):
        def no_pass(*_):
            raise AssertionError("a pass ran")

        monkeypatch.setattr(Interp, "apply", no_pass)
        path = request.getfixturevalue(f"{kind}_path")
        rc, out, err = run_cli(capsys, "run", f"--{kind}", path, "--signature", sig_path, *argv)
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_identity_env_on_unequal_boundaries_is_named_before_any_pass(
        self, capsys, monkeypatch, sig_path, work
    ):
        def no_pass(*_):
            raise AssertionError("a pass ran")

        monkeypatch.setattr(Interp, "apply", no_pass)
        path = work / "lens-b-to-a.json"  # get answers in B, put reads its response in A
        path.write_text(json.dumps({"get": "f", "put": "pi1[A,A]"}))
        rc, out, err = run_cli(capsys, "run", "--lens", str(path), "--signature", sig_path, "--input", "[0]")
        message = "--env: identity environment needs matching boundary: B vs A"
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_const_env(self, capsys, sig_path, lens_path):
        rc, out, _ = run_cli(
            capsys, "run", "--lens", lens_path, "--signature", sig_path,
            "--input", "[0]", "--env", "const:[0]",
        )
        assert rc == 0
        data = json.loads(out)
        assert data["output"] == [1]
        assert data["updated"] == [0]

    def test_bad_env(self, capsys, sig_path, lens_path):
        rc, _, err = run_cli(
            capsys, "run", "--lens", lens_path, "--signature", sig_path,
            "--input", "[0]", "--env", "bad",
        )
        assert rc == 2
        assert "unknown env" in err

    def test_bad_input_arity(self, capsys, sig_path, lens_path):
        rc, _, err = run_cli(
            capsys, "run", "--lens", lens_path, "--signature", sig_path, "--input", "[1, 2]"
        )
        assert rc == 2
        assert err.startswith("error:")


class TestRealInput:
    """Real-vector entries of --input and --env const: are finite JSON numbers, never coerced."""

    @pytest.fixture(scope="class")
    def real_paths(self, work):
        sig = work / "real_sig.json"
        sig.write_text(json.dumps({
            "sorts": [{"name": "R", "carrier": {"real": 2}}],
            "generators": [{"name": "t", "dom": ["R"], "cod": ["R"], "builtin": "tanh"}],
        }))
        lens = work / "real_lens.json"
        lens.write_text(json.dumps({"get": "t", "put": "pi2[R,R]"}))
        return ["--signature", str(sig), "--lens", str(lens)]

    def test_finite_numbers_run(self, capsys, real_paths):
        rc, out, err = run_cli(capsys, "run", *real_paths, "--input", "[[0, 0.5]]")
        assert (rc, err) == (0, "")
        assert json.loads(out)["output"] == [[0.0, pytest.approx(0.46211715726)]]

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--input", "[[true, false]]", "--input: [0][0]: expected a finite number, got true"),
            ("--input", '[["1", "2"]]', '--input: [0][0]: expected a finite number, got "1"'),
            ("--input", "[[1, null]]", "--input: [0][1]: expected a finite number, got null"),
            ("--input", "[[NaN, 2]]", "--input: [0][0]: expected a finite number, got NaN"),
            ("--input", "[[1, -Infinity]]", "--input: [0][1]: expected a finite number, got -Infinity"),
            ("--input", "[[1e999, 2]]", "--input: [0][0]: expected a finite number, got Infinity"),
            ("--input", "[[1, [2]]]", "--input: [0][1]: expected a finite number, got [2]"),
            ("--env", "const:[[1, null]]", "--env: [0][1]: expected a finite number, got null"),
        ],
        ids=["bools", "strings", "null", "nan", "infinity", "overflow", "nested", "env-null"],
    )
    def test_rejected_with_location(self, capsys, real_paths, flag, value, message):
        argv = ["--input", "[[0, 0.5]]", "--env", value] if flag == "--env" else [flag, value]
        rc, out, err = run_cli(capsys, "run", *real_paths, *argv)
        assert (rc, out, err) == (2, "", f"error: {message}\n")


class TestInputFiles:
    """Malformed lens, optic and homcat files are input errors (exit 2) with a location."""

    def test_list_valued_lens_file(self, capsys, sig_path, work):
        path = work / "list-lens.json"
        path.write_text("[1, 2]")
        rc, _, err = run_cli(
            capsys, "run", "--lens", str(path), "--signature", sig_path, "--input", "[1]"
        )
        assert rc == 2
        assert err == f"error: {path}: top level: expected an object\n"

    def test_lens_file_without_get(self, capsys, sig_path, work):
        path = work / "no-get.json"
        path.write_text(json.dumps({"put": "h"}))
        rc, _, err = run_cli(
            capsys, "run", "--lens", str(path), "--signature", sig_path, "--input", "[1]"
        )
        assert rc == 2
        assert err == f"error: {path}: get: missing key\n"

    def test_optic_term_must_be_a_string(self, capsys, sig_path, work):
        path = work / "bad-forward.json"
        path.write_text(json.dumps({"residual": ["A"], "forward": 3, "backward": "h"}))
        rc, _, err = run_cli(
            capsys, "run", "--optic", str(path), "--signature", sig_path, "--input", "[1]"
        )
        assert rc == 2
        assert err == f"error: {path}: forward: expected a str\n"

    def test_pi0_entry_without_residual(self, capsys, sig_path, work):
        path = work / "hc.json"
        path.write_text(
            json.dumps(
                {
                    "optics": [
                        {"residual": [], "forward": "id[A]", "backward": "id[A]"},
                        {"forward": "copy[A]", "backward": "pi2[A,A]"},
                    ]
                }
            )
        )
        rc, _, err = run_cli(capsys, "pi0", "--signature", sig_path, "--homcat", str(path))
        assert rc == 2
        assert err == f"error: {path}: optics[1].residual: missing key\n"

    def test_pi0_entry_not_an_object(self, capsys, sig_path, work):
        path = work / "hc-list.json"
        path.write_text(json.dumps({"optics": [["A"]]}))
        rc, _, err = run_cli(capsys, "pi0", "--signature", sig_path, "--homcat", str(path))
        assert rc == 2
        assert err == f"error: {path}: optics[0]: expected an object\n"

    @pytest.mark.parametrize("depth", ["x", True, -1, 1.5])
    def test_pi0_search_depth_in_a_file_is_ignored(self, capsys, sig_path, work, depth):
        # older homcat files carry a search depth; the search is exact and reads none
        path = work / "hc-depth.json"
        optic = {"residual": [], "forward": "id[A]", "backward": "id[A]"}
        path.write_text(json.dumps({"optics": [optic], "search_depth": depth}))
        rc, out, err = run_cli(capsys, "pi0", "--signature", sig_path, "--homcat", str(path))
        assert (rc, err) == (0, "")
        assert json.loads(out) == {"classes": [[0]], "edges": [], "n_cells": 0, "n_optics": 1}

    def test_pi0_search_depth_flag_is_a_usage_error(self, capsys, sig_path, work):
        path = work / "hc-flag.json"
        path.write_text(json.dumps({"optics": []}))
        rc, out, err = run_cli(
            capsys, "pi0", "--signature", sig_path, "--homcat", str(path), "--search-depth", "1"
        )
        assert (rc, out) == (2, "")
        assert "unrecognized arguments: --search-depth 1" in err

    def test_signature_error_names_the_file(self, capsys, work):
        path = work / "bad-table-sig.json"
        data = {
            "sorts": [{"name": "A", "carrier": {"finite": 2}}],
            "generators": [
                {"name": "u", "dom": ["A"], "cod": ["A"], "table": [[1], [0]]},
                {"name": "v", "dom": ["A"], "cod": ["A"], "table": [[0], [2]]},
            ],
        }
        path.write_text(json.dumps(data))
        rc, out, err = run_cli(capsys, "normalize", "--signature", str(path), "--expr", "u")
        assert (rc, out) == (2, "")
        assert err == (
            f"error: {path}: generators[1].table[1][0]: "
            "expected an integer in the carrier of sort A, got 2\n"
        )


def _optic(forward="id[A]", residual=()):
    return {"residual": list(residual), "forward": forward, "backward": "id[A]"}


# (argv, text of FILE or None, stderr): SIG, LENS, OPTIC and FILE stand for paths
MALFORMED = [
    (["pi0", "--homcat", "FILE"], '{"optics": [}', "FILE:1:13: Expecting value"),
    (["run", "--lens", "FILE", "--input", "[0]"], '{"get": "f", }',
     "FILE:1:14: Expecting property name enclosed in double quotes"),
    (["run", "--optic", "FILE", "--input", "[0]"], "[", "FILE:1:2: Expecting value"),
    (["pi0", "--homcat", "FILE"], json.dumps({"optics": [_optic(), _optic(residual=["Z"])]}),
     "FILE: optics[1].residual[0]: unknown sort Z"),
    (["pi0", "--homcat", "FILE"], json.dumps({"optics": [_optic("id[A] ; ")]}),
     "FILE: optics[0].forward: at position 8: unexpected end of expression"),
    (["run", "--optic", "FILE", "--input", "[0]"], json.dumps(_optic("f ; f")),
     "FILE: forward: cannot compose: left codomain B != right domain A"),
    (["run", "--lens", "FILE", "--input", "[0]"], json.dumps({"get": "f", "put": "pi1[A,B] ; q"}),
     "FILE: put: at position 11: unknown generator 'q'"),
    (["run", "--lens", "LENS", "--input", '[[1,"a"]]'], None,
     '--input: [0][1]: expected a finite number, got "a"'),
    (["run", "--lens", "LENS", "--input", "[0]", "--env", "const:[0"], None,
     "--env: Expecting ',' delimiter: line 1 column 3 (char 2)"),
    (["normalize", "--expr", "f ; f"], None, "--expr: cannot compose: left codomain B != right domain A"),
    (["check-cell", "--src", "OPTIC", "--tgt", "OPTIC", "--witness", "e ;"], None,
     "--witness: at position 3: unexpected end of expression"),
]


@pytest.mark.parametrize("argv, text, want", MALFORMED)
def test_malformed_input_names_its_file_and_field(
    capsys, sig_path, lens_path, optic_path, work, argv, text, want
):
    path = work / "malformed.json"
    if text is not None:
        path.write_text(text)
    paths = {"FILE": str(path), "LENS": lens_path, "OPTIC": optic_path}
    argv = [argv[0], "--signature", sig_path] + [paths.get(a, a) for a in argv[1:]]
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == f"error: {want.replace('FILE', str(path))}\n"


class TestInternalErrors:
    """A fault in the package is exit 3, not a usage error (exit 2) or a failed check (1)."""

    @pytest.mark.parametrize(
        "exc", [RecursionError("maximum recursion depth exceeded"), KeyError("get")]
    )
    def test_internal_error_exit_code(self, capsys, sig_path, monkeypatch, exc):
        def broken(_args):
            raise exc

        monkeypatch.setattr(cli, "cmd_normalize", broken)
        rc, out, err = run_cli(capsys, "normalize", "--signature", sig_path, "--expr", "f")
        assert (rc, out) == (3, "")
        assert err == f"internal error: {type(exc).__name__}: {exc}\n"

    def test_package_input_errors_stay_exit_2(self, capsys, sig_path, monkeypatch):
        def too_many(_args):
            raise EnumerationCapError("too many input tuples")

        monkeypatch.setattr(cli, "cmd_normalize", too_many)
        rc, _, err = run_cli(capsys, "normalize", "--signature", sig_path, "--expr", "f")
        assert rc == 2
        assert err == "error: too many input tuples\n"


class TestCheckCell:
    def test_valid(self, capsys, sig_path, work):
        src = work / "src.json"
        src.write_text(
            json.dumps(
                {
                    "residual": ["A"],
                    "forward": "copy[A] ; id[A] * f",
                    "backward": "(e * id[B]) ; h",
                }
            )
        )
        tgt = work / "tgt.json"
        tgt.write_text(
            json.dumps(
                {"residual": ["A"], "forward": "copy[A] ; e * f", "backward": "h"}
            )
        )
        rc, out, _ = run_cli(
            capsys, "check-cell", "--signature", sig_path,
            "--src", str(src), "--tgt", str(tgt), "--witness", "e",
        )
        assert rc == 0
        assert json.loads(out) == {"valid": True, "witness": "e"}

    def test_invalid_reports_side_and_input(self, capsys, sig_path, optic_path, work):
        tgt = work / "tgt2.json"
        tgt.write_text(
            json.dumps(
                {"residual": ["A"], "forward": "copy[A] ; e * f", "backward": "h"}
            )
        )
        rc, out, _ = run_cli(
            capsys, "check-cell", "--signature", sig_path,
            "--src", optic_path, "--tgt", str(tgt), "--witness", "id[A]",
        )
        assert rc == 1
        data = json.loads(out)
        assert data["valid"] is False
        assert data["side"] == "forward"
        assert data["counterexample"] == [0]

    def test_endpoints_with_different_boundaries_name_the_flag(self, capsys, sig_path, optic_path, work):
        tgt = work / "tgt3.json"
        tgt.write_text(json.dumps({"residual": [], "forward": "id[A]", "backward": "id[A]"}))
        rc, out, err = run_cli(
            capsys, "check-cell", "--signature", sig_path,
            "--src", optic_path, "--tgt", str(tgt), "--witness", "del[A]",
        )
        assert rc == 2 and out == ""
        assert err == "error: --tgt: cell endpoints have different boundaries: A / A -> B / B vs A / A -> A / A\n"

    def test_witness_with_the_wrong_boundary_names_the_flag(self, capsys, sig_path, optic_path):
        rc, out, err = run_cli(
            capsys, "check-cell", "--signature", sig_path,
            "--src", optic_path, "--tgt", optic_path, "--witness", "del[A]",
        )
        assert rc == 2 and out == ""
        assert err == "error: --witness: witness boundary A -> 1 does not match residuals A -> A\n"


class TestPi0:
    def test_two_presentations_of_identity(self, capsys, sig_path, work):
        homcat = work / "homcat.json"
        homcat.write_text(
            json.dumps(
                {
                    "optics": [
                        {"residual": [], "forward": "id[A]", "backward": "id[A]"},
                        {"residual": ["A"], "forward": "copy[A]", "backward": "pi2[A,A]"},
                    ],
                }
            )
        )
        rc, out, _ = run_cli(
            capsys, "pi0", "--signature", sig_path, "--homcat", str(homcat)
        )
        assert rc == 0
        data = json.loads(out)
        assert data["classes"] == [[0, 1]]
        assert data["n_cells"] == 1  # deleting the residual; no map back
        assert data["edges"] == [[1, 0, 1]]
        assert data["n_optics"] == 2

    def test_counts_are_exact_at_any_depth(self, capsys, sig_path, work):
        # the residual holds the input twice and the backward pass reads neither copy
        homcat = work / "homcat2.json"
        homcat.write_text(
            json.dumps(
                {
                    "optics": [
                        {"residual": ["A", "A"], "forward": "copy[A] ; copy[A] * id[A]",
                         "backward": "pi2[A A,A]"},
                        {"residual": ["A"], "forward": "copy[A]", "backward": "pi2[A,A]"},
                    ],
                    "search_depth": 0,
                }
            )
        )
        rc, out, _ = run_cli(capsys, "pi0", "--signature", sig_path, "--homcat", str(homcat))
        assert rc == 0
        data = json.loads(out)
        assert data["edges"] == [[0, 1, 2], [1, 0, 1]]
        assert data["n_cells"] == 3 and data["classes"] == [[0, 1]]

    def test_no_state_leaks_between_calls(self, capsys, sig_path, optic_path):
        # one parser serves every call in a process: an optional flag given
        # once must not stay set for the next call
        argv = ("run", "--optic", optic_path, "--signature", sig_path, "--input", "[0]")
        for _ in range(2):
            rc, out, _ = run_cli(capsys, *argv, "--env", "const:[0]")
            assert rc == 0 and json.loads(out)["updated"] == [0]
            rc, out, _ = run_cli(capsys, *argv)
            assert rc == 0 and json.loads(out)["updated"] == [1]  # the identity env answers b = f(0) = 1
            rc, out, _ = run_cli(capsys, "pi0", "--help")
            assert rc == 0 and "n_cells" in out
            rc, _, err = run_cli(capsys, "pi0", "--signature", sig_path)
            assert rc == 2 and "--homcat" in err
        assert cli._parser() is cli._parser()


class TestCheckLaws:
    def test_random_signatures(self, capsys):
        rc, out, _ = run_cli(
            capsys, "check-laws", "--random-signatures", "1",
            "--samples", "8", "--triples", "3", "--seed", "0",
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        data = json.loads(lines[0])
        assert data["signature"] == "random:0"
        assert data["passed"] is True
        mutation = data["adjunction"]["laws"]["mutation_sensitivity"]
        assert mutation["passed"] and mutation["checked"] >= 1

    def test_report_matches_golden(self, capsys):
        # any change to law names, checked counts or failures shows here
        rc, out, _ = run_cli(
            capsys, "check-laws", "--random-signatures", "2",
            "--samples", "8", "--triples", "3", "--seed", "0",
        )
        assert rc == 0
        golden = Path(__file__).with_name("check_laws_golden.jsonl").read_text()
        assert out.splitlines() == golden.splitlines()

    @pytest.mark.parametrize("flag, value", [("--samples", "0"), ("--triples", "-3"), ("--random-signatures", "-2")])
    def test_counts_below_one_are_usage_errors(self, capsys, flag, value):
        argv = ["check-laws", "--random-signatures", "1", "--samples", "1", "--triples", "1"]
        rc, out, err = run_cli(capsys, *argv, flag, value)
        assert (rc, out) == (2, "")
        assert err == f"error: {flag}: expected an int of at least 1\n"

    def test_explicit_signature(self, capsys, sig_path):
        rc, out, _ = run_cli(
            capsys, "check-laws", "--signature", sig_path,
            "--samples", "8", "--triples", "3",
        )
        assert rc == 0
        assert json.loads(out)["signature"] == sig_path


class TestBench:
    def test_stdout(self, capsys):
        rc, out, _ = run_cli(capsys, "bench", "--max-n", "2")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,lens_get_evals,")
        assert len(lines) == 3

    def test_out_file_and_determinism(self, capsys, work):
        def stable_part(path):
            # everything except the three wall-clock columns
            rows = [line.split(",")[:7] for line in path.read_text().splitlines()]
            return rows

        out1, out2 = work / "b1.csv", work / "b2.csv"
        rc1, _, _ = run_cli(capsys, "bench", "--max-n", "3", "--seed", "4", "--out", str(out1))
        rc2, _, _ = run_cli(capsys, "bench", "--max-n", "3", "--seed", "4", "--out", str(out2))
        assert rc1 == 0 and rc2 == 0
        assert stable_part(out1) == stable_part(out2)
        assert len(out1.read_text().splitlines()) == 4

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--max-n", "0"], "--max-n"),
            (["--max-n", "-2", "--interp", "real"], "--max-n"),
            (["--dim", "0", "--interp", "real"], "--dim"),
            (["--carrier-size", "0"], "--carrier-size"),
            # the size of the carrier the chain does not use is checked too
            (["--dim", "0"], "--dim"),
            (["--carrier-size", "-1", "--interp", "real"], "--carrier-size"),
        ],
    )
    def test_sizes_below_one_name_their_flag(self, capsys, work, argv, flag):
        out = work / "b.csv"
        rc, stdout, err = run_cli(capsys, "bench", *argv, "--out", str(out))
        assert (rc, stdout) == (2, "")
        assert err == f"error: {flag}: expected an int of at least 1\n"
        assert not out.exists()
