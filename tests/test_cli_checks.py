"""End-to-end checks of the ``symmetries`` and ``certify`` commands, run
in-process through ``bellcert.cli.main``: the read-back of a whole listing
and the certificates of the Mermin family and of CHSH.

The count of ``symmetries --functional mermin --n 5`` (511) is implied by
that listing's sha256 pin in ``test_cli.py``.
"""

import json

import pytest

from bellcert import is_symmetry, mermin, relabeling_from_dict
from bellcert.cli import main


def run(capsys, *argv) -> dict:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0 and not captured.err
    return json.loads(captured.out)


def test_listing_with_party_perms_reads_back_as_distinct_symmetries(capsys):
    f = mermin(4)
    listed = run(capsys, "symmetries", "--functional", "mermin", "--n", "4", "--party-perms")
    gs = [relabeling_from_dict(f.scenario, s) for s in listed["symmetries"]]
    assert len(gs) == len(set(gs)) == listed["count"] == 3071
    assert all(is_symmetry(g, f) for g in gs)


@pytest.mark.parametrize(
    "options, generators, joint_bits",
    [
        (("--n", "4", "--party-perms"), 10, {3.0}),
        (("--n", "5", "--party-perms"), 13, {4.0, 5.0}),
        # 8191 symmetries, 3 per gather: the pass gathers only the 159 that are
        # no products of earlier ones
        (("--n", "7"), 13, {6.0, 7.0}),
        # 31 generators × 76 events, below an eighth of one gather: certification
        # verifies every generator without the pass
        (("--n", "3"), 5, {2.0, 3.0}),
    ],
    ids=["mermin4-party-perms", "mermin5-party-perms", "mermin7", "mermin3"],
)
def test_mermin_certificate(capsys, options, generators, joint_bits):
    cert = run(capsys, "certify", "--functional", "mermin", *options)
    assert cert["generator_count"] == generators
    assert set(cert["joint_bits"].values()) == joint_bits
    assert set(cert["local_bits"].values()) == {1.0}


def test_chsh_certified_report(capsys):
    report = run(capsys, "certify", "--functional", "chsh", "--query", "local:1,1")
    assert (report["bits"], report["p_guess"], report["assumes_unique_maximizer"]) == (
        1.0,
        0.5,
        True,
    )
    assert "unique" in report["assumption"]
