"""Byte-identical CLI documents, pinned by their stdout sha256.

Each case runs one subcommand in-process on small fixed inputs, most of
them with ``--verify``.  The first fifteen digests were recorded before the
report encoders were folded into ``serialize.to_json``, the next fifteen
before the subcommands were declared in one command table, the next five,
which pin paths no other case runs, before ``rationals`` took over the
printability checks, the next one pins ``range-solve``'s converged
bisection, which no other case reaches, the next one its budget
partial, recorded before the bisection moved from ``Fraction``s to
integer numerators, and the last three ``measure --tol`` on expressions
without a ``Diff``, recorded before ``premeasure`` began its scan at the
first stage whose closed-form budget is within the tolerance.  The
``range-solve-below-half-tol`` case, added when a target below half the
tolerance began to be solved at x = 0 without bisecting, pins that
solution.  A changed digest means a
document changed, so a change to any report's JSON must update its digest
here on purpose.  The five ``infinite-cube`` digests were re-recorded when
its table of every subfamily became one witness over the whole pool (the
table's last row) and its pool-cap message stopped counting rows.  Ten
digests were re-recorded when layouts dropped their merge tree and leaf
certificates their gap box, which no check read: ``pack``,
``corollary-demo``, ``corollary-demo-a`` and ``corollary-demo-odd-d`` lost
``layout.merge_tree``, and ``uncovered-box``, ``uncovered-box-mixed-pool``,
``infinite-cube``, ``infinite-cube-quartered``, ``infinite-cube-expr-file``
and ``infinite-cube-mixed-pool`` hold each certificate's stage in place of
its ``{stage, box}``.  Each is the old document with just those fields
changed; the other uncovered-box and infinite-cube cases hold no
certificate and kept their digests.  Seven digests were re-recorded when a
witness became its box and one stage per hull leaf, dropping each
certificate's echoed element index, leaf index and translation and the
witness's summary ``stage`` (old -> new sha256, first 12 hex digits):
``uncovered-box`` 14a9ef29aca3 -> ea662581c096, ``uncovered-box-no-files``
3fda3790023e -> 56166fdf42b0, ``uncovered-box-mixed-pool`` 09796e20f8b4 ->
2ec37f809030, ``infinite-cube`` 03fe98ca4104 -> a3ecf068e4c1,
``infinite-cube-quartered`` 0d885a2bbed5 -> 147a143a36af,
``infinite-cube-expr-file`` 10602600d0a9 -> 0a3b0a76f5fe and
``infinite-cube-mixed-pool`` 66d5944b65df -> bcb620de86df.  Each is the old
document with just the witness changed; ``uncovered-box-needs-deeper`` and
``infinite-cube-pool-cap`` hold no witness and kept their digests.  Three
digests were re-recorded when the corollary's cover became a grid of its
equal cubes, dropping the report's ``family``, ``layout`` and ``verified``
for one int ``grid``, and a gauge value's radicand became the square-free
part of d: ``corollary-demo`` 45e98451f95c -> 0728bc75ceef,
``corollary-demo-a`` cd829a76b631 -> 1b5e891c57a0 and
``corollary-demo-odd-d`` e071f93a83f2 -> 73aac9508300.  Each is the old
document with just those fields changed, its gauge value the same real
number; the ``hausdorff-bound`` cases' radicands were already 1 and kept
their digests.  The ``pack`` digest was re-recorded when a layout's
document became its unit, written once, and each placement's integer
position, in place of a rational translate per coordinate: 03e126581983
-> fa2d7b9ae7cd.  It is the old document with just the layout changed,
each old translate the unit times the new position.  It was re-recorded
again when ``pack`` stopped placing the cubes that miss its target:
fa2d7b9ae7cd -> e499c508c788.  It is the old document less the three
placements past ``[0, 1/2)^2``, with ``placements`` 4 -> 1; the unit and
the placement at the origin are unchanged.

Every digest was recorded on the document as
``json.dumps(doc, indent=2, sort_keys=True)`` wrote it.  Since the CLI
began writing the stdlib's compact JSON, a case hashes its output
re-indented that way (:func:`indented_digest`), and its output must equal
``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` of the document
it parses to: the first check pins every value, the second every byte.
The compact form changed whitespace only, so no digest was re-recorded.
The input files are literal JSON, so the fixtures do not depend on the
encoder under test.

Each document of a run that exits 0 must also replay from its own text:
read back with ``json.loads``, so that it shares no subtree and keeps no
key order of the run, its schedule, inputs and result alone must pass
``--verify``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from fatcantor import CantorSchedule, cli
from fatcantor.serialize import frac_from_json

BASE = '{"gen": {"x": ["0/1"], "clip": {"lo": ["0/1"], "hi": ["1/1"]}}}'
HALF = '{"gen": {"x": ["1/2"], "clip": {"lo": ["0/1"], "hi": ["1/1"]}}}'
FILES = {
    "diff.json": f'{{"diff": [{BASE}, {HALF}]}}',
    "pool.json": f"[{BASE}, {HALF}]",
    "pool3.json": f'[{BASE}, {HALF}, {BASE.replace("0/1", "-1/2", 1)}]',
    "edge.json": '{"lo": ["0/1"], "hi": ["1/8"]}',
    "middle.json": '{"lo": ["1/8"], "hi": ["7/8"]}',
    # a Diff and a Union of an Inter, so a positive hull drops and keeps nodes
    "mixed.json": f'[{{"diff": [{BASE}, {HALF}]}}, {{"union": [{{"inter": [{BASE}, {HALF}]}}, '
    f'{BASE.replace("0/1", "-1/2", 1)}]}}]',
    "half-line.json": '{"gen": {"x": ["0/1"], "clip": {"lo": ["-inf"], "hi": ["1/2"]}}}',
    "union.json": f'{{"union": [{BASE}, {HALF}]}}',
    "sliver.json": '{"gen": {"x": ["0/1"], "clip": {"lo": ["0/1"], "hi": ["1/64"]}}}',
}

CASES = {
    "cantor-info": (
        ["cantor-info", "--stage", "5", "--d", "2", "--verify"],
        0,
        "888aef64961293dca41222f78abc670a5e667deba6d84b4b60daddebf4a1ca5a",
    ),
    "measure": (
        ["measure", "--expr-file", "diff.json", "--stage", "3", "--verify"],
        0,
        "607f2735cb5c6c222ff816390488959f3a92ab91cb7b7dade38b2af208882676",
    ),
    "split-check": (
        ["split-check", "--expr-file", "diff.json", "--threshold", "1/3", "--stage", "3",
         "--verify"],
        0,
        "c6278a23793b0419c1620882d768b6de8b747e96a35d7b9ae2a6179c39098890",
    ),
    "rn-enumerate": (
        ["rn-enumerate", "--expr-file", "pool.json", "--n", "1", "--reference-stage", "3",
         "--verify"],
        0,
        "630cd8de845d536e5d008792885cfa80e7dcbdaf206f5da3d6acffb6a4f76572",
    ),
    "cover-search": (
        ["cover-search", "--target-file", "edge.json", "--expr-file", "pool.json", "--verify"],
        0,
        "be19823db1cfc5b4250e0a2ef55777367260eb42e1539d6ddd6c207f7d71b1c0",
    ),
    "uncovered-box": (
        ["uncovered-box", "--expr-file", "pool.json", "--stage-cap", "8", "--verify"],
        0,
        "ea662581c0966f7718a2cf4e04ab8bfabe9af98f1eb1cf0d41f60e67e88828e7",
    ),
    "infinite-cube": (
        ["infinite-cube", "--pool-size", "2", "--stage-cap", "8", "--verify"],
        0,
        "a3ecf068e4c18129a3a339fa4f81f63fb2ab6b22505ecad3e3b13123606bc262",
    ),
    "pack": (
        ["pack", "--d", "2", "--sides", "1/2,1/2,1/2,1/2,1/3", "--verify"],
        0,
        "e499c508c788eeeb6a9a549d52551d988d414f231444666e1f3436ba9a8b63fc",
    ),
    "hausdorff-bound": (
        ["hausdorff-bound", "--d", "2", "--delta", "1/8", "--verify"],
        0,
        "7f35f7d416856317e8ecc8a2378aca3eb3d36210829f0c402c3cbd7d247e16f7",
    ),
    "corollary-demo": (
        ["corollary-demo", "--delta", "1/4", "--verify"],
        0,
        "0728bc75ceef6325c752506dcb53ec6d7e28c0532080620d5a4c05ac7a25cad6",
    ),
    "range-solve": (
        ["range-solve", "--target", "1/4", "--verify"],
        0,
        "28b6bbc0daad96094997f5727ed221473a3f0af73cffac30c77ea87135c21c93",
    ),
    "tile-check": (
        ["tile-check", "--q", "3/2,2", "--verify"],
        0,
        "a67ba080d3dd2e7ba4f9c66d85df9461f318446c6906202d62c63a7122c68d41",
    ),
    # a search that finds no cover, and two exit-3 documents: a report of
    # the stage cap, and a budget partial
    "cover-search-none": (
        ["cover-search", "--target-file", "middle.json", "--expr-file", "pool.json", "--verify"],
        0,
        "aff8853323bbc279dbe716926db80b3d3b120ee89448b9911192ad5729d97355",
    ),
    "uncovered-box-needs-deeper": (
        ["uncovered-box", "--expr-file", "pool3.json", "--stage-cap", "1", "--verify"],
        3,
        "5adf3a11c5da9e84b189732ef63f36d57d064a09e771aa09a2e4105b645d2e87",
    ),
    "measure-budget": (
        ["measure", "--expr-file", "diff.json", "--tol", "1/1000000", "--stage-cap", "3",
         "--verify"],
        3,
        "b476bf243df34b788c73c82d9618e9dd4c7ad68e909570a852b83946a72659e5",
    ),
    # a run without --verify, the flag paths the rows above leave out, and
    # the error documents of a bad schedule, a bad flag pair and a pool cap
    "cantor-info-no-verify": (
        ["cantor-info", "--stage", "3"],
        0,
        "a175699cbf8e6afcf0108bb1a3ddcb4c866ec81d4ff49058a82a555ee0312865",
    ),
    "range-solve-x": (
        ["range-solve", "--x", "1/3", "--verify"],
        0,
        "2382e771952e6d27e71717175dbca1f669f7cd4008f6f830a449ccf3d77982d9",
    ),
    "measure-tol": (
        ["measure", "--expr-file", "diff.json", "--tol", "1/8", "--verify"],
        0,
        "50148c73f71d703775e2a1df60932b92a1243a861109066af7f26095a5fb3a27",
    ),
    "infinite-cube-quartered": (
        ["infinite-cube", "--pool-size", "2", "--quartered", "--stage-cap", "8", "--verify"],
        0,
        "147a143a36af8d7bcbe50e651dc38a3156b7e890453a8aefb5ba3324f8d96dfc",
    ),
    "infinite-cube-expr-file": (
        ["infinite-cube", "--expr-file", "pool3.json", "--stage-cap", "8", "--verify"],
        0,
        "0a3b0a76f5fe64c83c741c79e4eb0cc7a74779c86cb01f59fc9b0db8fa5a126d",
    ),
    "uncovered-box-no-files": (
        ["uncovered-box", "--stage-cap", "4", "--verify"],
        0,
        "56166fdf42b0659fad1b5366a72518d99b2d2ecc144282225887c8560867e639",
    ),
    "tile-check-base-file": (
        ["tile-check", "--base-file", "edge.json", "--q", "2", "--verify"],
        0,
        "cee208eca76121fb692c46ea501452e4fc13805ffc119da2f592a46e40c6caf0",
    ),
    "cover-search-no-clip": (
        ["cover-search", "--target-file", "edge.json", "--expr-file", "pool.json", "--no-clip",
         "--verify"],
        0,
        "2d7d9e2f3ad509c3b278ce11639af05a64dbd4db4b1ea5591b8089fbdff79152",
    ),
    "hausdorff-bound-exponent": (
        ["hausdorff-bound", "--delta", "1/8", "--exponent", "1", "--stage", "3", "--verify"],
        0,
        "b2f3daea9bffbb7eb4ea8cbd5c77ebfb25959a6e29eee1a10496e2146e5d6e06",
    ),
    "corollary-demo-a": (
        ["corollary-demo", "--delta", "1/4", "--a", "1/5", "--verify"],
        0,
        "1b5e891c57a0946b0541d5a4b5006b602a3d119d2f283a98c1f8f861d9118823",
    ),
    "split-check-above": (
        ["split-check", "--expr-file", "diff.json", "--threshold", "1/3", "--above", "--stage", "3",
         "--verify"],
        0,
        "ed84fd32f3d2b1daf67331ad1c98cdc97ce75cb632affe33b7afdc282d0ce725",
    ),
    "rn-enumerate-default-pool": (
        ["rn-enumerate", "--n", "2", "--reference-stage", "3", "--verify"],
        0,
        "b3f3bdd9560ed0436b76b73e8c1283328c0ad07ab6870d903e136e601ae7baf2",
    ),
    "cantor-info-bad-rho": (
        ["cantor-info", "--rho", "1", "--verify"],
        2,
        "eab0f63c87099161e53b4d3139e3350ab8216fda92412087dcb7e5ca0cd69683",
    ),
    "range-solve-neither": (
        ["range-solve", "--verify"],
        2,
        "6d0378a7b37f9ed3a4e82c19a249d05b3c9728bd950f5770a07cfb7cea2119f3",
    ),
    "infinite-cube-pool-cap": (
        ["infinite-cube", "--pool-size", "13", "--verify"],
        3,
        "abac5504d204390eed837378019989d5d70e21417806bd3b25c954041bff2fb4",
    ),
    # paths the rows above leave out: an irrational sign (odd d >= 3), an
    # expression target, positive hulls of Diff, Union and Inter elements,
    # and an infinite clip end read from JSON
    "corollary-demo-odd-d": (
        ["corollary-demo", "--d", "3", "--delta", "1/8", "--verify"],
        0,
        "73aac950830066544b98e9a1edf1b859524dc049fcc8c092ad6272deb4314596",
    ),
    "cover-search-expr-target": (
        ["cover-search", "--target-file", "diff.json", "--expr-file", "pool3.json", "--verify"],
        0,
        "b6db0e5d579c2f37c4ccab717eff61274e1226222b489d31084e22070ce5c995",
    ),
    "uncovered-box-mixed-pool": (
        ["uncovered-box", "--expr-file", "mixed.json", "--verify"],
        0,
        "2ec37f809030a973d6e821a14db6951ce77cb54123bf2b4e3f88c7f4d9cdb524",
    ),
    "infinite-cube-mixed-pool": (
        ["infinite-cube", "--expr-file", "mixed.json", "--verify"],
        0,
        "bcb620de86df3dfecf3efd90342a990e9f71ad5aa4551e2db5ba95780d9195e1",
    ),
    "measure-half-line": (
        ["measure", "--expr-file", "half-line.json", "--stage", "3", "--verify"],
        0,
        "307997d38b09149ef6c5e5db61a24af93e0146261f20fd5ccdcedcef5b32d4ba",
    ),
    # a bisection that converges within the tolerance (17 iterations)
    "range-solve-converged": (
        ["range-solve", "--c", "1/2", "--rho", "1/3", "--target", "1/20", "--tol", "1/65536",
         "--verify"],
        0,
        "b91ef2367a6b981ef83e245d257a07f7e6c0cf4c8f9b92cda66c2718a8d1aefc",
    ),
    # a bisection stopped by its budget: the partial bracket after 2 steps
    "range-solve-budget": (
        ["range-solve", "--target", "1/3", "--max-iter", "2"],
        3,
        "8aaedff9c33282ddf28ab22a9d81ea6c9c30f1c5edc92b751e572e022c8603b7",
    ),
    # --tol on Diff-free expressions: a union whose stage measure stays
    # above the tolerance (stage 7), a leaf whose stage-1 measure is
    # already within it (stage 1, though stage 3 is the first whose budget
    # is), and a union stopped by its stage cap
    "measure-tol-union": (
        ["measure", "--expr-file", "union.json", "--tol", "1/100", "--verify"],
        0,
        "c070315a7e18ef066babbd320d2bb92d18f44a910f8f3d86d226169301cfd279",
    ),
    "measure-tol-sliver": (
        ["measure", "--expr-file", "sliver.json", "--tol", "1/16", "--verify"],
        0,
        "db50cca88811fc9875784f30831f3adcb9d562fa70093e2e8f20f9e5181987ab",
    ),
    "measure-budget-union": (
        ["measure", "--expr-file", "union.json", "--tol", "1/1000000", "--stage-cap", "3",
         "--verify"],
        3,
        "0e4b54bc52fe379ef5d3af58a1f0d8fe0a052d5d6437decce6dc10a7e5e435e0",
    ),
    # a target below tol/2 = 2^-21: solved at x = 0, whose level is 0
    "range-solve-below-half-tol": (
        ["range-solve", "--target", "1/10000000", "--verify"],
        0,
        "9a0ac6e0e8e433dbf1c125fbaecab19e161119e325064d7480af6c9f519716a0",
    ),
}


def indented_digest(out: str) -> str:
    """The sha256 of a document's text re-indented as the digests were
    recorded; the output must be that document's compact text."""
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return hashlib.sha256((json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_document_is_byte_identical(name, tmp_path, monkeypatch, capsys):
    argv, code, digest = CASES[name]
    for fname, text in FILES.items():
        (tmp_path / fname).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    if code == 0:
        verification = json.loads(out)["result"]["verification"]
        expected = {"requested": True, "ok": True} if "--verify" in argv else {"requested": False}
        assert verification == expected
    assert indented_digest(out) == digest


def replays_from_text(text: str) -> bool:
    """``cli._verify`` on a document read back from its text: the schedule
    rebuilt from ``config``, the inputs decoded from ``inputs``, and the
    result without its ``verification``."""
    doc = json.loads(text)
    config = doc["config"]
    s = CantorSchedule(config["d"], frac_from_json(config["c"]), frac_from_json(config["rho"]))
    result = {key: value for key, value in doc["result"].items() if key != "verification"}
    return cli._verify(cli.COMMANDS[doc["command"]], s, cli._decode(doc["inputs"]), result)


@pytest.mark.parametrize("name", sorted(name for name, case in CASES.items() if case[1] == 0))
def test_a_document_read_back_from_its_text_replays(name, tmp_path, monkeypatch, capsys):
    argv, _, _ = CASES[name]
    for fname, text in FILES.items():
        (tmp_path / fname).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "--out", "doc.json"]) == 0
    assert replays_from_text((tmp_path / "doc.json").read_text(encoding="utf-8"))
    assert capsys.readouterr().err == ""
