"""Command-line input errors: usage errors come before work, bad data is invalid input."""

import json

import pytest

import bellcert.cli
from bellcert import (
    ValidationError,
    chsh,
    functional_from_dict,
    functional_to_dict,
    tilted_chsh,
)

from conftest import run_cli


def assert_error(result, code, kind):
    exit_code, out, err = result
    assert exit_code == code and not out
    assert json.loads(err)["code"] == kind


class TestQueryRanges:
    @pytest.mark.parametrize(
        "query, message",
        [
            ("joint:0,1", "party 1 setting 0 out of range 1..2"),
            ("joint:1,3", "party 2 setting 3 out of range 1..2"),
            ("local:3,1", "party 3 out of range 1..2"),
            ("local:0,1", "party 0 out of range 1..2"),
            ("local:1,3", "party 1 setting 3 out of range 1..2"),
        ],
    )
    def test_out_of_range_is_usage_error_in_one_based_terms(self, capsys, query, message):
        result = run_cli(capsys, "certify", "--functional", "chsh", "--query", query)
        assert_error(result, 2, "usage")
        assert json.loads(result[2])["message"] == message

    def test_edges_of_the_range_are_accepted(self, capsys):
        for query in ("joint:2,2", "local:2,2", "joint:1,1", "local:1,1"):
            code, out, _ = run_cli(capsys, "certify", "--functional", "chsh", "--query", query)
            assert code == 0 and json.loads(out)["bits"] == 1.0

    def test_unequal_setting_counts_use_the_named_party(self, capsys, tmp_path):
        doc = functional_to_dict(chsh())
        doc["settings"] = [2, 3]  # the terms never use Bob's third setting
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        base = ("certify", "--file", str(path), "--query")
        assert run_cli(capsys, *base, "local:2,3")[0] == 0
        assert_error(run_cli(capsys, *base, "local:1,3"), 2, "usage")


class TestRandomnessFailsBeforeOptimizing:
    @pytest.mark.parametrize(
        "query", ["joint:1", "joint:1,1,1,1,1,1,9", "local:8,1", "local:1", "x"]
    )
    def test_bad_query_never_reaches_the_see_saw(self, capsys, monkeypatch, query):
        def refuse(*args, **kwargs):
            raise AssertionError("optimize_violation called before the query was checked")

        monkeypatch.setattr(bellcert.cli, "optimize_violation", refuse)
        result = run_cli(
            capsys, "randomness", "--functional", "mermin", "--n", "7", "--query", query
        )
        assert_error(result, 2, "usage")

    def test_missing_query_is_an_argparse_usage_error(self, capsys):
        code, out, _ = run_cli(capsys, "randomness", "--functional", "chsh")
        assert code == 2 and not out


class TestSeedRange:
    @pytest.mark.parametrize(
        "argv",
        [
            ("maximize", "--functional", "chsh"),
            ("randomness", "--functional", "chsh", "--query", "local:1,1"),
            ("demo", "chsh"),
        ],
        ids=["maximize", "randomness", "demo"],
    )
    def test_negative_seed_is_a_usage_error(self, capsys, argv):
        result = run_cli(capsys, *argv, "--seed", "-1")
        assert_error(result, 2, "usage")
        assert json.loads(result[2])["message"] == "--seed must be at least 0"


def _chsh_file(tmp_path, edit):
    doc = functional_to_dict(chsh())
    doc = edit(doc)
    path = tmp_path / "functional.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _without(key):
    def edit(doc):
        del doc[key]
        return doc

    return edit


def _first_term(key, value):
    def edit(doc):
        doc["terms"][0][key] = value
        return doc

    return edit


class TestMalformedFunctionals:
    @pytest.mark.parametrize("eta", ["nan", "inf", "-inf"])
    def test_non_finite_eta(self, capsys, eta):
        result = run_cli(
            capsys, "local-bound", "--functional", "tilted-chsh", f"--eta={eta}"
        )
        assert_error(result, 1, "invalid-input")

    @pytest.mark.parametrize(
        "edit",
        [
            _without("terms"),
            _without("settings"),
            _first_term("c_num", "one"),
            _first_term("c_num", 0.5),
            _first_term("c_log2_den", -1),
            _first_term("x", 0),
            lambda doc: [doc],
            lambda doc: {**doc, "settings": [10**6, 10**6], "terms": []},
            lambda doc: {"settings": 5, "outcomes": 2, "terms": []},
        ],
        ids=[
            "missing-terms",
            "missing-settings",
            "string-c_num",
            "fractional-c_num",
            "negative-c_log2_den",
            "scalar-x",
            "top-level-list",
            "huge-scenario",
            "scalar-settings",
        ],
    )
    def test_malformed_file(self, capsys, tmp_path, edit):
        path = _chsh_file(tmp_path, edit)
        assert_error(run_cli(capsys, "local-bound", "--file", path), 1, "invalid-input")

    @pytest.mark.parametrize(
        "command, settings, message",
        [
            ("local-bound", [2, 15000], "about 2^15002 deterministic strategies exceed the cap"),
            ("symmetries", [2200], "about 2^23460 candidate relabelings exceed the cap"),
            ("certify", [2200], "about 2^23460 candidate relabelings exceed the cap"),
        ],
    )
    def test_a_huge_cap_count_is_one_cap_exceeded_line(
        self, capsys, tmp_path, command, settings, message
    ):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"settings": settings, "outcomes": 2, "terms": []}))
        result = run_cli(capsys, command, "--file", str(path))
        assert_error(result, 1, "cap-exceeded")
        assert json.loads(result[2])["message"].startswith(message)

    def test_a_huge_named_functional_is_one_invalid_input_line(self, capsys):
        result = run_cli(capsys, "local-bound", "--functional", "mermin", "--n", "7200")
        assert_error(result, 1, "invalid-input")
        assert json.loads(result[2])["message"].startswith("scenario has about 2^14400 joint")

    def test_well_formed_file_still_loads(self, capsys, tmp_path):
        path = _chsh_file(tmp_path, lambda doc: doc)
        code, out, _ = run_cli(capsys, "local-bound", "--file", path)
        assert code == 0 and json.loads(out)["bound"] == 2


class TestLibraryErrors:
    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), "abc", None])
    def test_tilted_chsh_rejects_non_numbers(self, eta):
        with pytest.raises(ValidationError):
            tilted_chsh(eta)

    @pytest.mark.parametrize(
        "data",
        [
            [],
            {},
            {"settings": [2, 2], "outcomes": 2},
            "chsh",
            {**functional_to_dict(chsh()), "parties": 7},
            {"settings": [10**6, 10**6], "outcomes": 2, "terms": []},
        ],
    )
    def test_functional_from_dict_rejects_malformed_data(self, data):
        with pytest.raises(ValidationError):
            functional_from_dict(data)


def _every_term(key, value):
    def edit(doc):
        for term in doc["terms"]:
            term[key] = value
        return doc

    return edit


class TestDenominatorRange:
    def test_one_tiny_term_names_the_common_denominator(self, capsys, tmp_path):
        path = _chsh_file(tmp_path, _first_term("c_log2_den", 2000))
        result = run_cli(capsys, "local-bound", "--file", path)
        assert_error(result, 1, "invalid-input")
        assert "common denominator 2^2000" in json.loads(result[2])["message"]

    def test_all_tiny_terms_run(self, capsys, tmp_path):
        path = _chsh_file(tmp_path, _every_term("c_log2_den", 2000))
        code, out, _ = run_cli(capsys, "symmetries", "--file", path)
        assert code == 0
        json.loads(out)

    def test_bound_below_double_range_is_invalid_input(self, capsys, tmp_path):
        # the exact bound is 2^-1999, which a double rounds to 0.0
        path = _chsh_file(tmp_path, _every_term("c_log2_den", 2000))
        result = run_cli(capsys, "local-bound", "--file", path)
        assert_error(result, 1, "invalid-input")
        assert "common denominator 2^2000" in json.loads(result[2])["message"]

    def test_small_bound_inside_double_range_is_printed(self, capsys, tmp_path):
        path = _chsh_file(tmp_path, _every_term("c_log2_den", 1000))
        code, out, _ = run_cli(capsys, "local-bound", "--file", path)
        assert code == 0
        assert json.loads(out)["bound"] == 2.0**-999

    @pytest.mark.parametrize(
        "command", [("maximize",), ("randomness", "--query", "local:1,1")]
    )
    @pytest.mark.parametrize("log2_den", [2000, 1030])
    def test_coefficients_below_double_range_are_invalid_for_the_see_saw(
        self, capsys, tmp_path, command, log2_den
    ):
        # 2^-2000 underflows to 0 and 2^-1030 is subnormal: the see-saw would
        # optimise a zero operator or one with few significant bits
        path = _chsh_file(tmp_path, _every_term("c_log2_den", log2_den))
        result = run_cli(capsys, *command, "--file", path)
        assert_error(result, 1, "invalid-input")
        assert f"common denominator 2^{log2_den}" in json.loads(result[2])["message"]

    @pytest.mark.parametrize("command", ["maximize", "local-bound", "symmetries"])
    def test_numerator_beyond_int64_is_invalid_input(self, capsys, tmp_path, command):
        path = _chsh_file(tmp_path, _first_term("c_num", 2**63))
        assert_error(run_cli(capsys, command, "--file", path), 1, "invalid-input")

    @pytest.mark.parametrize("command", ["local-bound", "maximize", "symmetries"])
    def test_tilted_chsh_of_any_float_runs(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--functional", "tilted-chsh", "--eta", "0.3")
        assert code == 0
        if command == "local-bound":
            assert json.loads(out)["bound"] == pytest.approx(2.3)


class TestOneErrorPath:
    @pytest.mark.parametrize(
        "argv",
        [
            ("local-bound", "--functional", "chsh", "--cap", "abc"),
            ("local-bound", "--functional", "mermin", "--n", "1.5"),
            ("local-bound", "--functional", "foo"),
            ("local-bound",),
            ("local-bound", "--functional", "chsh", "--file", "f.json"),
            ("randomness", "--functional", "chsh"),
            ("frobnicate",),
            # refused after parsing ("--tol must be positive"), as one line too
            ("maximize", "--functional", "chsh", "--tol", "0"),
            ("maximize", "--functional", "chsh", "--tol", "-1"),
        ],
        ids=[
            "cap-abc", "n-fraction", "unknown", "neither", "both", "no-query", "no-command",
            "tol-zero", "tol-negative",
        ],
    )
    def test_argparse_failure_is_one_json_usage_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        lines = err.splitlines()
        assert code == 2 and not out and len(lines) == 1
        assert json.loads(lines[0])["code"] == "usage"

    @pytest.mark.parametrize(
        "target", ["{tmp}/missing/out.json", ""], ids=["missing-directory", "empty-name"]
    )
    def test_unwritable_output_is_an_io_error(self, capsys, tmp_path, target):
        target = target.format(tmp=tmp_path)
        result = run_cli(capsys, "--output", target, "local-bound", "--functional", "chsh")
        assert_error(result, 1, "io")
        assert len(result[2].splitlines()) == 1

    def test_empty_file_name_is_an_io_error(self, capsys):
        assert_error(run_cli(capsys, "local-bound", "--file", ""), 1, "io")

    @pytest.mark.parametrize(
        "text",
        [
            # Python parses no integer literal past its digit limit (640 in this suite)
            '{"settings": [2, 2], "outcomes": 2, "c_num": 1%s, "terms": []}' % ("0" * 699),
            b"\xff\xfe{}",
            '{"settings": [2, 2],',
        ],
        ids=["700-digit-literal", "not-utf-8", "malformed"],
    )
    def test_an_unparsable_file_is_one_io_line(self, capsys, tmp_path, text):
        path = tmp_path / "f.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        result = run_cli(capsys, "local-bound", "--file", str(path))
        assert_error(result, 1, "io")
        assert len(result[2].splitlines()) == 1

    def test_empty_query_is_malformed(self, capsys):
        result = run_cli(capsys, "certify", "--functional", "chsh", "--query", "")
        assert_error(result, 2, "usage")
        assert json.loads(result[2])["message"] == "malformed query ''"
