"""Command-line interface: grammar, JSON contracts, determinism, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import bellcert
from bellcert import chsh, functional_to_dict
from bellcert.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLocalBound:
    def test_chsh(self, capsys):
        code, out, err = run_cli(capsys, "local-bound", "--functional", "chsh")
        assert code == 0 and not err
        data = json.loads(out)
        assert data["bound"] == 2
        assert data["maximizer_count"] == 8

    def test_chained_modular_minimum(self, capsys):
        code, out, _ = run_cli(
            capsys, "local-bound", "--functional", "chained-modular", "--m", "2", "--d", "3"
        )
        data = json.loads(out)
        assert data["bound"] == 2
        assert data["orientation"] == "min"

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "functional.json"
        path.write_text(json.dumps(functional_to_dict(chsh())))
        code, out, _ = run_cli(capsys, "local-bound", "--file", str(path))
        assert code == 0
        assert json.loads(out)["bound"] == 2


class TestMaximize:
    def test_mermin3(self, capsys):
        code, out, _ = run_cli(
            capsys, "maximize", "--functional", "mermin", "--n", "3", "--seed", "7"
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"] == pytest.approx(4.0, abs=1e-6)
        assert data["status"] == "best-found"

    def test_determinism(self, capsys):
        argv = ("maximize", "--functional", "chsh", "--seed", "9", "--restarts", "4")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


class TestCertify:
    def test_chained_global_query(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "certify",
            "--functional",
            "chained-correlator",
            "--m",
            "3",
            "--query",
            "joint:1,2",
        )
        assert code == 0
        data = json.loads(out)
        assert data["bits"] == 2.0
        assert data["assumes_unique_maximizer"] is True

    def test_sweep_without_query(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--functional", "chsh")
        data = json.loads(out)
        assert set(data["local_bits"].values()) == {1.0}
        assert set(data["joint_bits"].values()) == {1.0}

    def test_generator_count_agrees_with_and_without_query(self, capsys):
        base = ("certify", "--functional", "mermin", "--n", "4")
        _, sweep, _ = run_cli(capsys, *base)
        _, single, _ = run_cli(capsys, *base, "--query", "joint:1,1,1,1")
        # 127 symmetries, reduced to the 7 generators the certificate keeps
        assert json.loads(sweep)["generator_count"] == 7
        assert json.loads(single)["generator_count"] == 7

    def test_one_based_local_query(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "certify",
            "--functional",
            "chained-modular",
            "--m",
            "2",
            "--d",
            "3",
            "--query",
            "local:1,1",
        )
        data = json.loads(out)
        assert data["bits"] == pytest.approx(math.log2(3), abs=1e-12)
        assert data["query"] == "party=0,setting=0"


class TestSymmetries:
    # sha256 of the stdout of `bellcert symmetries` before hits were stored as
    # rows of event images and listed by one batched decode
    PINNED = {
        "mermin --n 3": "2cbfa6c563160b1251ea97854d8b4bb72fc603b8454100917f1b276f943862f7",
        "mermin --n 4": "0e1e23bc3ff6a92d4c1260c9d4004cb3f8f3e5a1d22133669d789592a9ce25c5",
        "mermin --n 5": "67ffd57c8d6b47002f5ca887ea84f54e9049f83fc360ed2da8ba769e5dba36a8",
        "chained-modular --m 2 --d 3": (
            "88a9920089090eeb329e38d68ab4389e0862fe619dbfcea67b0bde0dd827d73e"
        ),
        "mermin --n 4 --party-perms": (
            "3c5ef7d8d691421d3a2230beced6ee8ddef408ce6b39713af588da43d03c8c0c"
        ),
        # 61439 symmetries, 20.6 MB: the costliest listing, decoded from the search's rows
        "mermin --n 5 --party-perms": (
            "27c7738cf422457bb82f717d41fb028d79cf513fb002a4e425f59a6bdb11df9f"
        ),
    }

    @pytest.mark.parametrize("options", sorted(PINNED))
    def test_listing_is_pinned(self, capsys, monkeypatch, options):
        """The listing is decoded from the search's rows: it wraps none in a ``Relabeling``."""
        wraps = count_wraps(monkeypatch)
        code, out, err = run_cli(capsys, "symmetries", "--functional", *options.split())
        assert code == 0 and not err
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[options]
        assert len(wraps) == 0

    def test_certificate_of_the_costliest_listing_is_pinned(self, capsys, monkeypatch):
        """The stdout of certifying the same 61439 rows, as printed when the
        certificate was built from one ``Relabeling`` per hit; only the 13
        generators it keeps are wrapped."""
        wraps = count_wraps(monkeypatch)
        argv = ("certify", "--functional", "mermin", "--n", "5", "--party-perms")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and not err
        pinned = "e3caea18580121b6e1a8e7440004015359608206d05c541e0632f3b17dce7382"
        assert hashlib.sha256(out.encode()).hexdigest() == pinned
        assert len(wraps) == json.loads(out)["generator_count"] == 13


def count_wraps(monkeypatch) -> list:
    """The rows wrapped by ``Relabeling._from_images`` from now on, as a growing list."""
    wrap, wraps = bellcert.symmetry.Relabeling._from_images, []

    def counting(scenario, images):
        wraps.append(images)
        return wrap(scenario, images)

    monkeypatch.setattr(bellcert.symmetry.Relabeling, "_from_images", staticmethod(counting))
    return wraps


class TestRandomness:
    def test_observed_local(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "randomness",
            "--functional",
            "chsh",
            "--seed",
            "3",
            "--query",
            "local:1,1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["report"]["kind"] == "observed"
        assert data["report"]["bits"] == pytest.approx(1.0, abs=1e-5)


class TestErrors:
    def test_unknown_functional_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "local-bound", "--functional", "nope")
        assert code == 2 and not out
        assert json.loads(err)["code"] == "usage"

    def test_both_sources_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(functional_to_dict(chsh())))
        code, _, err = run_cli(
            capsys, "local-bound", "--functional", "chsh", "--file", str(path)
        )
        assert code == 2
        assert json.loads(err)["code"] == "usage"

    def test_cap_exceeded_is_computational_error(self, capsys):
        code, _, err = run_cli(
            capsys, "local-bound", "--functional", "mermin", "--n", "3", "--cap", "10"
        )
        assert code == 1
        assert json.loads(err)["code"] == "cap-exceeded"

    def test_malformed_file_is_io_or_invalid(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "local-bound", "--file", str(path))
        assert code == 1
        assert json.loads(err)["code"] in {"io", "invalid-input"}

    def test_bad_query_kind(self, capsys):
        code, _, err = run_cli(
            capsys, "certify", "--functional", "chsh", "--query", "global:1,1"
        )
        assert code == 2
        assert json.loads(err)["code"] == "usage"


class TestOutputOptions:
    def test_pretty_preserves_content(self, capsys):
        _, plain, _ = run_cli(capsys, "local-bound", "--functional", "chsh")
        _, pretty, _ = run_cli(capsys, "--pretty", "local-bound", "--functional", "chsh")
        assert plain != pretty
        assert json.loads(plain) == json.loads(pretty)

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "--output", str(path), "local-bound", "--functional", "chsh"
        )
        assert code == 0 and not out
        assert json.loads(path.read_text())["bound"] == 2


class TestDemos:
    @pytest.mark.parametrize(
        "name",
        ["chsh", "tilted", "chained-local", "chained-global", "mermin-odd", "mermin-even", "lifted"],
    )
    def test_every_demo_runs_and_is_consistent(self, capsys, name):
        code, out, err = run_cli(capsys, "demo", name, "--seed", "0")
        assert code == 0 and not err
        doc = json.loads(out)
        assert doc["demo"] == name
        assert "functional" in doc
        cross = doc.get("cross_check")
        if cross is not None:
            # certified bits never promise more than the model delivers
            for entry in cross["queries"].values():
                assert entry["certified_le_observed"], (name, entry)
            assert cross["worst_orbit_equality_violation"] < 2e-4

    def test_tilted_demo_transcript(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "tilted", "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["only_second_setting_certified"] is True
        assert doc["cross_check"]["worst_orbit_equality_violation"] < 2e-4
        for entry in doc["cross_check"]["queries"].values():
            assert entry["certified_le_observed"]

    def test_chained_local_demo_transcript(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "chained-local")
        doc = json.loads(out)
        assert doc["shift_symmetry_verified"] is True
        for bits in doc["summary"]["local_bits"].values():
            assert bits == pytest.approx(math.log2(3), abs=1e-12)
        assert doc["qudit_model_value"] < 2.0
        assert doc["cross_check"]["worst_orbit_equality_violation"] < 1e-12

    def test_mermin_odd_searches_five_parties_once_per_process(self, capsys, monkeypatch):
        """The five-party block is the same on every run: a second run prints
        the same bytes and searches only mermin(3)."""
        bellcert.cli._five_party_bits.cache_clear()
        searched = []
        search = bellcert.cli.find_symmetries

        def recording(functional, **options):
            searched.append(functional.scenario.parties)
            return search(functional, **options)

        monkeypatch.setattr(bellcert.cli, "find_symmetries", recording)
        _, first, _ = run_cli(capsys, "demo", "mermin-odd", "--seed", "0")
        assert sorted(searched) == [3, 5]
        searched.clear()
        _, second, _ = run_cli(capsys, "demo", "mermin-odd", "--seed", "0")
        assert second == first and searched == [3]

    def test_demo_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "demo", "chsh", "--seed", "1")
        _, out2, _ = run_cli(capsys, "demo", "chsh", "--seed", "1")
        assert out1 == out2


def test_calls_in_one_process_print_what_fresh_processes_print(capsys):
    argvs = (["demo"], ["--version"], ["demo", "chsh", "--seed", "0"])
    in_process = [run_cli(capsys, *argv) for argv in argvs]
    paths = (os.path.dirname(os.path.dirname(bellcert.__file__)), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    for argv, got in zip(argvs, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "bellcert.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert in_process[0][0] == 2 and json.loads(in_process[0][2])["code"] == "usage"
