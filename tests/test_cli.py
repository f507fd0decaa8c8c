"""Command-line front end: envelopes, exit codes, determinism, replay.

Each invocation must print exactly one JSON document shaped as
{"command", "config", "inputs", "result"} with every numeric field an
exact rational string.  Exit codes: 0 success, 2 precondition violation,
3 budget exhaustion (with partial results), 1 internal error.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from fatcantor import Box, CantorSchedule, Diff, Gen, base_expr, cli, cover, grid_translate_pool, serialize
from fatcantor.cantor import MAX_DIM, MAX_STAGE
from fatcantor.errors import PreconditionError
from fatcantor.geometry import DEFAULT_TILE_CAP, MAX_KERNEL_DIM
from fatcantor.hausdorff import (
    DEFAULT_LEVEL_TOL,
    DEFAULT_MAX_ITER,
    DEFAULT_ROOT_BITS,
    MAX_GAUGE_EXPONENT,
    MAX_ROOT_BITS,
    MAX_TOL_BITS,
    corollary_pipeline,
    side_scale_for,
    solve_level,
)
from fatcantor.packing import DEFAULT_ALPHA, DEFAULT_TARGET_SIDE, pack_cover
from fatcantor.rationals import MAX_DECIMAL_EXPONENT
from fatcantor.ring import DEFAULT_RN_CAP, MAX_RN_LAYER
from fatcantor.serialize import MAX_EXPR_DEPTH, box_to_json, expr_to_json

import test_cli_golden


def run_cli(*args: str):
    proc = subprocess.run(
        [sys.executable, "-m", "fatcantor", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc


def run_json(*args: str):
    proc = run_cli(*args)
    assert proc.stdout, f"no stdout; stderr: {proc.stderr}"
    return proc.returncode, json.loads(proc.stdout)


def assert_no_floats(doc, path="$"):
    if isinstance(doc, float):
        raise AssertionError(f"float leaked into JSON at {path}: {doc}")
    if isinstance(doc, dict):
        for k, v in doc.items():
            assert_no_floats(v, f"{path}.{k}")
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            assert_no_floats(v, f"{path}[{i}]")


@pytest.fixture()
def expr_file(tmp_path):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr_to_json(base_expr(CantorSchedule(1)))))
    return str(path)


@pytest.fixture()
def target_file(tmp_path):
    path = tmp_path / "target.json"
    path.write_text(json.dumps(box_to_json(Box.interval(Fraction(0), Fraction(1, 2)))))
    return str(path)


# ---------------------------------------------------------------------------
# envelopes and exit codes
# ---------------------------------------------------------------------------


class TestEnvelope:
    def test_cantor_info_has_the_standard_envelope(self):
        code, doc = run_json("cantor-info", "--stage", "4")
        assert code == 0
        assert set(doc) == {"command", "config", "inputs", "result"}
        assert doc["command"] == "cantor-info"
        assert doc["config"]["d"] == 1
        assert doc["config"]["c"] == "1/1"
        assert doc["config"]["rho"] == "1/4"
        assert "seed" in doc["config"]
        assert doc["result"]["limit_measure"] == "1/2"
        assert doc["result"]["stage_measure"] == "17/32"
        assert_no_floats(doc)

    def test_every_command_output_is_float_free(self, expr_file, target_file, tmp_path):
        invocations = [
            ("cantor-info",),
            ("measure", "--expr-file", expr_file, "--stage", "3"),
            ("split-check", "--expr-file", expr_file, "--threshold", "1/2"),
            ("rn-enumerate", "--expr-file", expr_file, "--n", "2"),
            ("cover-search", "--target-file", expr_file, "--expr-file", expr_file, "--stage", "2"),
            ("uncovered-box", "--expr-file", expr_file, "--stage-cap", "8"),
            ("infinite-cube", "--pool-size", "2", "--stage-cap", "8"),
            ("pack", "--sides", "1/2,1/4,1/4"),
            ("hausdorff-bound", "--delta", "1/8"),
            ("corollary-demo", "--delta", "1/4"),
            ("range-solve", "--x", "1/2", "--stage", "6"),
            ("tile-check", "--q", "3/2"),
        ]
        for argv in invocations:
            code, doc = run_json(*argv)
            assert code == 0, (argv, doc)
            assert set(doc) >= {"command", "config", "inputs", "result"}
            assert_no_floats(doc)

    def test_unknown_flags_exit_two(self):
        proc = run_cli("cantor-info", "--frobnicate")
        assert proc.returncode == 2

    def test_unknown_command_exits_two(self):
        proc = run_cli("no-such-command")
        assert proc.returncode == 2

    def test_bad_schedule_exits_two(self):
        proc = run_cli("cantor-info", "--rho", "1/2")
        assert proc.returncode == 2
        assert proc.stderr  # human-readable diagnostic

    def test_an_unwritable_out_path_exits_two(self, tmp_path):
        out = tmp_path / "missing" / "x.json"
        proc = run_cli("cantor-info", "--stage", "3", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"cannot write {out}: ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_infeasible_pack_family_exits_two(self):
        proc = run_cli("pack", "--sides", "1/4,1/8")
        assert proc.returncode == 2

    def test_budget_exhaustion_exits_three_with_partial_results(self, tmp_path):
        # a 16-element quartered pool cannot be separated at stage cap 1
        from fatcantor import quartered_translate_pool

        pool = quartered_translate_pool(CantorSchedule(1), 16)
        path = tmp_path / "pool.json"
        path.write_text(json.dumps([expr_to_json(e) for e in pool]))
        code, doc = run_json("uncovered-box", "--expr-file", str(path), "--stage-cap", "1")
        assert code == 3
        assert doc["result"]["found"] is False
        assert doc["result"]["needs_deeper_stage"]["deepest_stage"] == 1

    def test_stage_cap_is_checked_before_any_work(self, expr_file):
        cap = str(MAX_STAGE)
        above = str(MAX_STAGE + 1)
        code, doc = run_json("cantor-info", "--stage", cap)
        assert code == 0
        assert doc["result"]["interval_count"] == 1 << MAX_STAGE
        code, doc = run_json("hausdorff-bound", "--delta", "1/2", "--stage", cap)
        assert code == 0
        code, doc = run_json("range-solve", "--x", "1/2", "--stage", cap)
        assert code == 0
        # at the cap, stage boxes still meet the box budget first
        code, doc = run_json("measure", "--expr-file", expr_file, "--stage", cap)
        assert code == 3
        for args in (
            ("cantor-info", "--stage", above),
            ("hausdorff-bound", "--delta", "1/2", "--stage", above),
            ("range-solve", "--x", "1/2", "--stage", above),
            ("measure", "--expr-file", expr_file, "--stage", above),
        ):
            code, doc = run_json(*args)
            assert code == 2, args
            error = doc["result"]["error"]
            assert error["kind"] == "precondition"
            assert error["message"] == f"stage must be between 0 and {MAX_STAGE}, got {above}"

    def test_range_solve_budget_exit(self):
        proc = run_cli("range-solve", "--target", "1/3", "--max-iter", "2")
        assert proc.returncode == 3
        doc = json.loads(proc.stdout)
        assert doc["result"]["error"]["kind"] == "budget"
        assert "partial" in doc["result"]["error"]

    def test_range_solve_target_checks_the_stage_its_tolerance_needs(self):
        # At d = 1 the stage-n defect is 2^-(n+1), and the bracket must be
        # narrower than tol/2: tol = 2^-1025 is the first to need stage 1025.
        tol = Fraction(1, 2**1025)
        code, doc = run_json("range-solve", "--target", "1/3", "--tol", f"1/{2**1025}")
        assert code == 2
        error = doc["result"]["error"]
        assert error["kind"] == "precondition"
        assert error["message"] == f"tolerance {tol} needs a stage above MAX_STAGE = {MAX_STAGE}"

    def test_range_solve_finishes_at_the_finest_tolerance(self):
        # tol = 2^-1024 is the finest the stage cap admits at d = 1: its
        # bracket needs stage 1024 and about 1024 bisection steps
        tol = Fraction(1, 2**1024)
        code, doc = run_json("range-solve", "--d", "1", "--target", "1/3", "--tol", f"1/{2**1024}")
        assert code == 0
        sol = doc["result"]["solution"]
        assert sol["status"] == "straddle"
        mid = (Fraction(sol["bracket"]["lower"]) + Fraction(sol["bracket"]["upper"])) / 2
        assert abs(mid - Fraction(1, 3)) <= tol

    @pytest.mark.parametrize("bits", [MAX_TOL_BITS + 1, 14000])
    def test_range_solve_refuses_tolerances_below_the_bit_cap(self, bits):
        # rho = 2^-20 reaches these within the stage cap; the refusal comes
        # before any stage or bisection work
        tol = f"1/{2**bits}"
        code, doc = run_json("range-solve", "--rho", "1/1048576", "--target", "1/3", "--tol", tol)
        assert code == 2
        error = doc["result"]["error"]
        assert error["kind"] == "precondition"
        assert error["message"] == f"tolerance must be at least 2^-{MAX_TOL_BITS}"

    @pytest.mark.parametrize(
        "argv",
        [
            ("cantor-info", "--d", "5000", "--stage", "4"),
            ("cantor-info", "--d", "14", "--stage", "1024"),
            ("cantor-info", "--rho", "1/100000000000", "--stage", "500"),
            ("hausdorff-bound", "--d", "14", "--delta", "1/2", "--stage", "1024"),
        ],
        ids=["huge-d", "d-and-stage", "huge-rho-denominator", "hausdorff-count"],
    )
    def test_results_too_large_to_print_exit_two(self, argv):
        # each input is within its own cap; the result has over 4300 digits
        code, doc = run_json(*argv)
        assert code == 2
        error = doc["result"]["error"]
        assert error["kind"] == "precondition"
        assert error["message"].startswith("result too large to print")

    @pytest.mark.parametrize("verify", [(), ("--verify",)], ids=["plain", "verify"])
    def test_a_square_root_too_large_to_print_exits_two(self, verify):
        # at stage 400 the b of the cover's value b sqrt(3) has over 4300 digits
        argv = ("hausdorff-bound", "--d", "3", "--rho", "1/1000000", "--delta", "2", "--exponent", "1")
        code, doc = run_json(*argv, "--stage", "400", *verify)
        assert code == 2
        assert doc["result"]["error"] == {
            "kind": "precondition",
            "message": "result too large to print: a number in it has more than 4300 digits",
        }

    @pytest.mark.parametrize("verify", [(), ("--verify",)], ids=["plain", "verify"])
    def test_a_gauge_value_at_stage_257_prints_with_the_radicand_of_d(self, verify):
        # its unreduced radicand had 6015 digits; the square-free part of 3 is 3
        argv = ("hausdorff-bound", "--d", "3", "--rho", "1/1000000", "--delta", "2", "--exponent", "1")
        code, doc = run_json(*argv, "--stage", "257", *verify)
        assert code == 0
        value = doc["result"]["cover"]["value"]
        assert value["a"] == "0/1" and value["sqrt"] == 3
        assert doc["result"]["verification"].get("ok", True) is True

    def test_a_gauge_value_is_pinned_with_the_radicand_of_d(self):
        # the same real number as 867/16777216 * sqrt(227278848), 227278848 = 3 * 8704**2
        code, doc = run_json("hausdorff-bound", "--d", "3", "--delta", "1/10", "--exponent", "3", "--verify")
        assert code == 0 and doc["result"]["verification"]["ok"] is True
        assert doc["result"]["cover"]["value"] == {"a": "0/1", "b": "14739/32768", "sqrt": 3}

    @pytest.mark.parametrize(
        "argv",
        [
            ("cantor-info", "--d", "5000", "--stage", "1024"),
            ("hausdorff-bound", "--d", "5000", "--delta", "1/2", "--exponent", "1024", "--stage", "1024"),
        ],
        ids=["cantor-info", "hausdorff-bound"],
    )
    def test_box_count_is_refused_before_any_closed_form(self, monkeypatch, capsys, argv):
        def closed_form(*args):
            raise AssertionError("a closed form was computed")

        for name in ("stage_measure_1d", "limit_measure_1d", "stage_interval_length"):
            monkeypatch.setattr(CantorSchedule, name, closed_form)
        assert cli.main(list(argv)) == 2
        error = json.loads(capsys.readouterr().out)["result"]["error"]
        assert error["message"].startswith("result too large to print")

    @pytest.mark.parametrize("d", [str(MAX_DIM + 1), "3000000"])
    def test_dimension_above_the_cap_exits_two(self, capsys, d):
        assert cli.main(["cantor-info", "--d", d, "--stage", "1"]) == 2
        error = json.loads(capsys.readouterr().out)["result"]["error"]
        assert error == {
            "kind": "precondition",
            "message": f"dimension must be an integer from 1 to {MAX_DIM}, got {d}",
        }

    def test_box_too_large_to_print_exits_two(self, tmp_path):
        # base side 10^4000/(10^4000 - 1) and q = 1/(10^4000 + 7): the
        # refinement box has a coordinate with an 8000-digit denominator
        big = 10**4000
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"lo": ["0"], "hi": [f"{big}/{big - 1}"]}))
        code, doc = run_json("tile-check", "--base-file", str(path), "--q", f"1/{big + 7}")
        assert code == 2
        error = doc["result"]["error"]
        assert error["kind"] == "precondition"
        assert error["message"].startswith("result too large to print")

    @pytest.mark.parametrize(
        "argv",
        [
            ("cantor-info", "--rho", "1e4300"),
            ("cantor-info", "--c", "1e4300", "--rho", "1/3"),
            ("pack", "--d", "5", "--sides", "1e-1000", "--alpha", "1e1000"),
            ("uncovered-box", "--target-file", "{inverted}"),
            ("tile-check", "--base-file", "{inverted}", "--q", "1"),
            ("corollary-demo", "--d", "5", "--rho", "1e-1000", "--delta", "1/2", "--a", "2"),
            ("range-solve", "--d", "5", "--rho", "1e-1000", "--target", "2"),
        ],
        ids=[
            "schedule-rho", "schedule-removed-total", "pack-volume", "uncovered-box-inverted",
            "tile-check-inverted", "corollary-limit", "range-solve-limit",
        ],
    )
    def test_refusals_holding_a_number_too_long_to_print_exit_two(self, tmp_path, argv):
        # each refusal would show a number of over 4300 digits; the box file
        # has lo = 10^4300 above hi = 0
        path = tmp_path / "inverted.json"
        path.write_text(json.dumps({"lo": ["1e4300"], "hi": ["0/1"]}))
        code, doc = run_json(*(arg.format(inverted=path) for arg in argv))
        assert code == 2
        error = doc["result"]["error"]
        assert error["kind"] == "precondition"
        assert error["message"].startswith("result too large to print")

    def test_range_solve_refuses_an_unprintable_bound_before_the_defect(self, monkeypatch, capsys):
        # the subtraction of the stage defect from a bound of 5 million bits
        # took most of a minute; the bound is refused before it
        def defect(*args):
            raise AssertionError("the stage defect was computed")

        monkeypatch.setattr(CantorSchedule, "stage_defect", defect)
        assert cli.main(["range-solve", "--d", "5000", "--x", "1/2", "--stage", "1024"]) == 2
        error = json.loads(capsys.readouterr().out)["result"]["error"]
        assert error["message"].startswith("result too large to print")

    def test_pool_cap_is_checked_before_any_search(self, tmp_path):
        # the witness fold shrinks its box once per hull leaf; the cap is 12 elements
        code, doc = run_json("infinite-cube", "--pool-size", "13")
        assert code == 3
        error = doc["result"]["error"]
        assert error["kind"] == "budget"
        assert error["message"] == "pool of 13 elements is above the cap of 12 elements"
        path = tmp_path / "pool.json"
        path.write_text(json.dumps([expr_to_json(e) for e in grid_translate_pool(CantorSchedule(1), 13)]))
        code, doc = run_json("infinite-cube", "--expr-file", str(path))
        assert code == 3
        assert doc["result"]["error"]["message"] == error["message"]
        assert len(doc["inputs"]["pool"]) == 13

    @pytest.mark.parametrize("d", ["3", "5000"])
    def test_the_pool_cap_is_the_same_in_every_dimension(self, d, monkeypatch, capsys):
        # The table's cap counted cells, so it fell as d grew; the witness's
        # cap is 12 elements at any d, and it still refuses before any search.
        def no_search(*args, **kwargs):
            raise AssertionError("the pool cap was not checked before the search")

        monkeypatch.setattr(cover, "find_gap", no_search)
        assert cli.main(["infinite-cube", "--d", d, "--pool-size", "13"]) == 3
        error = json.loads(capsys.readouterr().out)["result"]["error"]
        assert error["kind"] == "budget"
        assert error["message"] == "pool of 13 elements is above the cap of 12 elements"

    @pytest.mark.parametrize("d, size", [("3", "12"), ("64", "9"), ("5000", "3")])
    def test_pools_up_to_the_cap_are_admitted_in_any_dimension(self, d, size, capsys):
        # One witness over the pool: pools of 12 at d = 3 and of 9 at d = 64
        # were refused while every subfamily had a row.
        assert cover.check_pool_size(12) == 12
        assert cli.main(["infinite-cube", "--d", d, "--pool-size", size, "--verify"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["found"] is True and result["verification"]["ok"] is True
        assert len(result["witness"]["certificates"]) == int(size)

    def test_a_pool_whose_table_had_inconclusive_rows_is_witnessed_whole(self, capsys):
        # The table of every subfamily had 32 rows at the stage cap and
        # exited 3; the whole pool's fold finds its witness by stage 3.
        assert cli.main(["infinite-cube", "--d", "1", "--pool-size", "9", "--stage-cap", "8", "--verify"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["found"] is True and result["verification"]["ok"] is True
        assert max(result["witness"]["certificates"]) == 3

    @pytest.mark.parametrize("d", ["16", "257", "1024"])
    def test_corollary_demo_covers_by_a_grid_at_every_admitted_exponent(self, d):
        code, doc = run_json("corollary-demo", "--d", d, "--delta", "1/4", "--verify")
        assert code == 0
        report = doc["result"]["report"]
        assert report["grid"] == 2 and doc["result"]["verification"]["ok"] is True
        assert all(v is True for k, v in report["checks"].items() if k != "cube_constant")

    def test_corollary_demo_stops_at_the_gauge_exponent_cap(self):
        code, doc = run_json("corollary-demo", "--d", "1025", "--delta", "1/4", "--verify")
        assert code == 2
        assert doc["result"]["error"] == {
            "kind": "precondition",
            "message": "gauge exponent must be an integer from 0 to 1024, got 1025",
        }

    def test_max_tiles_above_the_cap_exits_two(self):
        code, doc = run_json("tile-check", "--q", "2", "--max-tiles", "65536")
        assert code == 0
        code, doc = run_json("tile-check", "--q", "2", "--max-tiles", "65537")
        assert code == 2
        error = doc["result"]["error"]
        assert error["kind"] == "precondition"
        assert error["message"] == "max_tiles must be at most 65536, got 65537"

    def test_the_cap_bounds_the_folded_intervals_not_the_tiles(self):
        # 257 * 256 tiles above the cap, from 257 + 256 intervals below it
        code, doc = run_json("tile-check", "--q", "257,256", "--verify")
        assert code == 0
        result = doc["result"]
        assert result["verification"]["ok"] is True
        assert result["report"]["tiling_verified"] is True
        assert result["report"]["count"] == 257 * 256

    @pytest.mark.parametrize(
        "argv, bits, cap",
        [(("--q", "65536,1"), 16, 65536), (("--max-tiles", "1", "--q", "1/2,1/3"), 1, 1)],
    )
    def test_more_folded_intervals_than_the_cap_exit_three(self, argv, bits, cap):
        # no more tiles than the cap (65536 and 1), but more intervals to fold (65537 and 2)
        code, doc = run_json("tile-check", *argv)
        assert code == 3
        error = doc["result"]["error"]
        assert error["kind"] == "budget"
        assert error["message"] == f"tiling check would fold at least 2^{bits} intervals, above the cap of {cap}"

    @pytest.mark.parametrize("q, shown", [("0", "0/1"), ("2,-1/3", "2/1, -1/3")])
    def test_a_nonpositive_scale_is_printed_as_rationals(self, q, shown):
        code, doc = run_json("tile-check", "--q", q)
        assert code == 2
        assert doc["result"]["error"]["message"] == f"q must be positive, got {shown}"

    @pytest.mark.parametrize(
        "argv",
        [
            ("range-solve", "--d", "1", "--target", "1/3", "--tol"),
            ("pack", "--sides", "1/2,1/2", "--alpha"),
            ("pack", "--sides"),
        ],
        ids=lambda argv: f"{argv[0]} {argv[-1]}",
    )
    def test_rational_flags_refuse_exponents_above_the_cap(self, argv, capsys):
        # 1e-100000000 used to build 10^100000000 before any cap was checked
        assert cli.main([*argv, "1e-100000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            f"argument {argv[-1]}: exponent of '1e-100000000' exceeds {MAX_DECIMAL_EXPONENT}"
            in captured.err
        )

    def test_an_empty_rational_list_names_its_flag(self, capsys):
        assert cli.main(["pack", "--sides", ","]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --sides: expected a comma-separated list of rationals" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("pack", "--d", "1", "--sides", "1,,"),
            ("pack", "--d", "1", "--sides", "1/2,,1/4"),
            ("tile-check", "--q", "2,"),
        ],
    )
    def test_an_empty_entry_is_refused_not_dropped(self, argv, capsys):
        # Dropping it would shift the indices the placements refer to.
        assert cli.main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        flag = argv[-2]
        assert f"argument {flag}: expected a comma-separated list of rationals" in captured.err

    def test_entries_may_keep_surrounding_whitespace(self, capsys):
        assert cli.main(["pack", "--d", "1", "--sides", " 1/2 , 1/2 "]) == 0
        assert json.loads(capsys.readouterr().out)["inputs"]["family"]["sides"] == ["1/2", "1/2"]

    def test_tolerance_in_exponent_notation_still_parses(self, capsys):
        assert cli.main(["range-solve", "--d", "1", "--target", "1/3", "--tol", "1e-3"]) == 0
        assert json.loads(capsys.readouterr().out)["inputs"]["tol"] == "1/1000"

    @pytest.mark.parametrize(
        "argv",
        [
            ("measure", "--expr-file", "{expr}", "--tol", "1/8", "--stage-cap"),
            ("tile-check", "--q", "2", "--max-tiles"),
            ("range-solve", "--target", "1/4", "--max-iter"),
            ("rn-enumerate", "--n", "2", "--max-size"),
            ("cover-search", "--target-file", "{target}", "--expr-file", "{expr}", "--budget"),
            ("uncovered-box", "--stage-cap"),
            ("infinite-cube", "--pool-size", "2", "--stage-cap"),
            ("infinite-cube", "--pool-size"),
        ],
        ids=lambda argv: f"{argv[0]} {argv[-1]}",
    )
    def test_count_flags_refuse_negative_values(self, argv, expr_file, target_file, capsys):
        argv = [a.format(expr=expr_file, target=target_file) for a in argv]
        flag = argv[-1]
        assert cli.main([*argv, "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: expected a nonnegative integer, got -1" in captured.err
        if flag == "--pool-size":
            # the size is not echoed; the empty pool it builds is
            assert cli.main([*argv, "0", "--verify"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["inputs"]["pool"] == [] and doc["result"]["verification"]["ok"] is True
            return
        assert cli.main([*argv, "0"]) in (0, 3)
        doc = json.loads(capsys.readouterr().out)
        assert doc["inputs"][flag[2:].replace("-", "_")] == 0

    def test_root_bits_are_capped_before_any_root_work(self):
        # bits 0 used to loop for ever, -1 crashed and 10^7 ran on past 20 s
        argv = ("corollary-demo", "--d", "2", "--delta", "1/4", "--a", "1/5", "--bits")
        code, doc = run_json(*argv, str(MAX_ROOT_BITS))
        assert code == 0
        for bits in ("0", "-1", str(MAX_ROOT_BITS + 1)):
            code, doc = run_json(*argv, bits)
            assert code == 2, bits
            assert doc["result"]["error"]["message"] == (
                f"bits must be between 1 and {MAX_ROOT_BITS}, got {bits}"
            )

    def test_ring_layer_and_gauge_exponent_caps_exit_two(self):
        above = MAX_RN_LAYER + 1
        code, doc = run_json("rn-enumerate", "--n", str(above))
        assert code == 2
        assert doc["result"]["error"]["message"] == (
            f"ring layers run from 1 to {MAX_RN_LAYER}, got {above}"
        )
        argv = ("hausdorff-bound", "--delta", "1/8", "--exponent")
        code, doc = run_json(*argv, str(MAX_GAUGE_EXPONENT))
        assert code == 0
        above = MAX_GAUGE_EXPONENT + 1
        code, doc = run_json(*argv, str(above))
        assert code == 2
        assert doc["result"]["error"]["message"] == (
            f"gauge exponent must be an integer from 0 to {MAX_GAUGE_EXPONENT}, got {above}"
        )

    def test_budget_messages_stay_printable(self, tmp_path):
        # the counts have thousands of digits; the messages give powers of two
        big = "1" + "0" * 3000
        code, doc = run_json("tile-check", "--q", f"{big},{big}")
        assert code == 3
        error = doc["result"]["error"]
        assert error["kind"] == "budget"
        assert error["message"] == "tiling check would fold at least 2^9966 intervals, above the cap of 65536"
        d = 5000
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(expr_to_json(Gen((Fraction(0),) * d, Box.unit_cube(d)))))
        code, doc = run_json("measure", "--d", str(d), "--expr-file", str(path), "--stage", "4")
        assert code == 3
        error = doc["result"]["error"]
        assert error["kind"] == "budget"
        assert error["message"] == (
            "stage 4 in dimension 5000 needs 2^20000 boxes, above the cap of 65536;"
            " largest feasible stage is 0"
        )
        assert error["partial"] is None


GEN1 = {"gen": {"x": ["0/1"], "clip": {"lo": ["0/1"], "hi": ["1/1"]}}}
GEN2 = {"gen": {"x": ["0/1"] * 2, "clip": {"lo": ["0/1"] * 2, "hi": ["1/1"] * 2}}}


class TestMalformedInputFiles:
    """Input files of any shape end in exit 2 with a message, never exit 1.

    The runs are in-process, so they start as deep in the stack as any
    library caller of ``cli.main``.
    """

    GEN = '{"gen": {"x": ["%d/128"], "clip": {"lo": ["0/1"], "hi": ["1/1"]}}}'

    def run_main(self, capsys, *argv):
        code = cli.main(list(argv))
        return code, json.loads(capsys.readouterr().out)

    def union_chain(self, depth: int, *, twin: bool = False) -> str:
        """``depth`` nodes on the longest path, every leaf distinct; ``twin``
        joins two copies, so ``simplify`` compares two deep equal trees."""
        text = self.GEN % 0
        for k in range(1, depth - 1 if twin else depth):
            text = '{"union": [%s, %s]}' % (text, self.GEN % k)
        return '{"union": [%s, %s]}' % (text, text) if twin else text

    def assert_refused(self, capsys, argv, messages):
        code, doc = self.run_main(capsys, *argv)
        assert code == 2
        error = doc["result"]["error"]
        assert error["kind"] == "precondition"
        assert error["message"] in messages

    @pytest.mark.parametrize("depth", [500, 900])
    def test_deeply_nested_expressions_exit_two(self, capsys, tmp_path, depth):
        path = tmp_path / "deep.json"
        path.write_text(self.union_chain(depth))
        # whether the JSON reader or the expression decoder stops first
        # depends on the interpreter's C recursion limit
        self.assert_refused(
            capsys,
            ["measure", "--expr-file", str(path)],
            {f"{path} is nested too deeply to read",
             f"expression nested deeper than {MAX_EXPR_DEPTH} levels"},
        )

    def test_deeply_nested_arrays_exit_two(self, capsys, tmp_path):
        path = tmp_path / "arrays.json"
        path.write_text("[" * 100000 + "]" * 100000)
        self.assert_refused(
            capsys, ["measure", "--expr-file", str(path)], {f"{path} is nested too deeply to read"}
        )

    @pytest.mark.parametrize(
        "content",
        [b'{"lo": [0], "hi": [%s]}' % (b"1" * 5000), b'{"lo": ["\xff"], "hi": ["1"]}'],
        ids=["integer-too-long", "not-utf-8"],
    )
    def test_unconvertible_json_exits_two(self, capsys, tmp_path, content):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        code, doc = self.run_main(capsys, "uncovered-box", "--target-file", str(path))
        assert code == 2
        assert doc["result"]["error"]["message"].startswith(f"{path} is not valid JSON: ")

    @pytest.mark.parametrize(
        "command, flag, text, message",
        [
            ("uncovered-box", "--target-file", '{"lo": 5, "hi": [1]}',
             "box: 'lo' must be a list, got int"),
            ("measure", "--expr-file",
             '{"gen": {"x": 5, "clip": {"lo": ["0/1"], "hi": ["1/1"]}}}',
             "generator expression: 'x' must be a list, got int"),
            ("uncovered-box", "--target-file", '{"lo": [1.5], "hi": [2]}',
             "expected a rational string, got 1.5"),
            ("uncovered-box", "--target-file", '{"lo": [0], "hi": [1e400]}',
             "expected a rational string, got inf"),
            ("uncovered-box", "--target-file", '{"lo": [], "hi": []}', "a box needs at least one axis"),
        ],
        ids=["lo-int", "x-int", "float-coordinate", "float-overflow", "no-axes"],
    )
    def test_malformed_shapes_exit_two(self, capsys, tmp_path, command, flag, text, message):
        path = tmp_path / "input.json"
        path.write_text(text)
        self.assert_refused(capsys, [command, flag, str(path)], {message})

    def test_target_files_of_cover_search_refuse_a_malformed_box(self, capsys, tmp_path, expr_file):
        path = tmp_path / "target.json"
        path.write_text('{"lo": 5, "hi": [1]}')
        self.assert_refused(
            capsys,
            ["cover-search", "--target-file", str(path), "--expr-file", expr_file],
            {"box: 'lo' must be a list, got int"},
        )

    @pytest.mark.parametrize(
        "text, kind",
        [('"1/2"', "str"), ("3", "int"), ("null", "NoneType"), ("true", "bool"), ('["0/1", "1/1"]', "list")],
        ids=["string", "number", "null", "true", "list"],
    )
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cover-search", "--target-file", "TARGET", "--expr-file", "POOL"],
             "expression must be an object with exactly one of the keys 'gen', 'union', 'diff', 'inter'"),
            (["uncovered-box", "--target-file", "TARGET"], "box: expected an object, got {kind}"),
            (["tile-check", "--q", "2", "--base-file", "TARGET"], "box: expected an object, got {kind}"),
        ],
        ids=["cover-search", "uncovered-box", "tile-check"],
    )
    def test_a_target_neither_box_nor_expression_exits_two(self, capsys, tmp_path, argv, message, text, kind):
        # A JSON string is a level of range-solve, never a region: cover-search
        # refuses it as it refuses any other non-expression.
        (tmp_path / "target.json").write_text(text)
        (tmp_path / "pool.json").write_text(json.dumps([GEN1]))
        files = {"TARGET": str(tmp_path / "target.json"), "POOL": str(tmp_path / "pool.json")}
        self.assert_refused(capsys, [files.get(a, a) for a in argv], {message.format(kind=kind)})

    @pytest.mark.parametrize("flags", [(), ("--no-clip",)], ids=["clip", "no-clip"])
    @pytest.mark.parametrize(
        "target, pool, message",
        [
            ({"lo": ["0/1"] * 2, "hi": ["1/1"] * 2}, 1, "target dimension 2 vs schedule 1"),
            (GEN2, 1, "expression dimension 2 vs schedule 1"),
            ({"lo": ["0/1"], "hi": ["1/1"]}, 2, "expression dimension 2 vs schedule 1"),
            ({"lo": ["0/1"], "hi": ["inf"]}, 1, "cover target box must be bounded"),
        ],
        ids=["box-target", "expression-target", "pool-element", "unbounded-target"],
    )
    def test_cover_search_refuses_a_wrong_dimension_whatever_the_flags(
        self, capsys, tmp_path, target, pool, message, flags
    ):
        (tmp_path / "target.json").write_text(json.dumps(target))
        (tmp_path / "pool.json").write_text(json.dumps([GEN1 if pool == 1 else GEN2]))
        argv = ["cover-search", "--d", "1", "--target-file", str(tmp_path / "target.json")]
        self.assert_refused(capsys, [*argv, "--expr-file", str(tmp_path / "pool.json"), *flags], {message})

    @pytest.mark.parametrize(
        "argv",
        [
            ("measure", "--stage", "2", "--verify"),
            ("split-check", "--threshold", "1/3", "--stage", "2", "--verify"),
            ("rn-enumerate", "--n", "3", "--reference-stage", "1", "--verify"),
            ("cover-search", "--target-file", "TARGET", "--verify"),
            ("uncovered-box", "--stage-cap", "4", "--verify"),
            ("infinite-cube", "--stage-cap", "4", "--verify"),
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("twin", [False, True], ids=["chain", "twin"])
    def test_expressions_at_the_depth_cap_run_every_pass(self, capsys, tmp_path, argv, twin):
        target = tmp_path / "target.json"
        target.write_text('{"lo": ["0/1"], "hi": ["1/8"]}')
        path = tmp_path / "cap.json"
        path.write_text(self.union_chain(MAX_EXPR_DEPTH, twin=twin))
        argv = [str(target) if a == "TARGET" else a for a in argv]
        code, doc = self.run_main(capsys, *argv, "--expr-file", str(path))
        assert code in (0, 3), doc["result"]
        assert "error" not in doc["result"] or doc["result"]["error"]["kind"] == "budget"
        path.write_text(self.union_chain(MAX_EXPR_DEPTH + 1, twin=twin))
        self.assert_refused(
            capsys,
            [*argv, "--expr-file", str(path)],
            {f"expression nested deeper than {MAX_EXPR_DEPTH} levels"},
        )


def _from_depth(depth: int, fn, *args):
    """``fn(*args)`` called from a stack at least ``depth`` frames deep."""
    frame, frames = sys._getframe(), 0
    while frame is not None:
        frames += 1
        frame = frame.f_back
    return fn(*args) if frames >= depth else _from_depth(depth, fn, *args)


class TestKernelDimensionCap:
    """Box algebra in more than ``MAX_KERNEL_DIM`` axes exits 2 before any
    work, never with a RecursionError; at the cap every run verifies.  The
    runs are in-process, from a stack 150 frames deep, deeper than a library
    caller's of ``cli.main`` usually is."""

    DEPTH = 150

    def argvs(self, tmp_path, d: int) -> list[list[str]]:
        box = {"lo": ["0/1"] * d, "hi": ["1/1"] * d}
        two = {"union": [{"gen": {"x": [x] * d, "clip": box}} for x in ("0/1", "1/3")]}
        path = tmp_path / f"two{d}.json"
        path.write_text(json.dumps(two))
        return [
            ["pack", "--d", str(d), "--sides", "1,1", "--verify"],
            ["measure", "--d", str(d), "--stage", "0", "--expr-file", str(path), "--verify"],
            ["tile-check", "--q", ",".join(["1"] * d), "--verify"],
        ]

    def run_main(self, capsys, argv):
        code = _from_depth(self.DEPTH, cli.main, argv)
        return code, json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("which, d", [(0, 1500), (1, 2000), (2, 300)], ids=["pack", "measure", "tile-check"])
    def test_above_the_cap_exits_two(self, capsys, tmp_path, which, d):
        code, doc = self.run_main(capsys, self.argvs(tmp_path, d)[which])
        assert code == 2
        error = doc["result"]["error"]
        assert error["kind"] == "precondition"
        assert error["message"] == f"box algebra takes at most {MAX_KERNEL_DIM} axes, got {d}"

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["pack", "measure", "tile-check"])
    def test_at_the_cap_verifies(self, capsys, tmp_path, which):
        code, doc = self.run_main(capsys, self.argvs(tmp_path, MAX_KERNEL_DIM)[which])
        assert code == 0
        assert doc["result"]["verification"]["ok"] is True


class TestLimitMeasureOnce:
    """A request computes the schedule's limit measure once, however many
    brackets, cuts and checks read it."""

    @pytest.mark.parametrize("which", ["range-solve", "measure"])
    def test_a_request_computes_the_limit_measure_once(self, capsys, monkeypatch, tmp_path, which):
        path = tmp_path / "diff.json"
        expr = Diff(base_expr(CantorSchedule(1)), Gen((Fraction(1, 3),), Box.unit_cube(1)))
        path.write_text(json.dumps(expr_to_json(expr)))
        argv = {
            "range-solve": ["range-solve", "--d", "2", "--target", "1/7", "--tol", f"1/{2**38}", "--verify"],
            "measure": ["measure", "--expr-file", str(path), "--tol", "1/100", "--verify"],
        }[which]
        calls = []
        limit_measure_1d = CantorSchedule.limit_measure_1d

        def counted(self):
            calls.append(self)
            return limit_measure_1d(self)

        monkeypatch.setattr(CantorSchedule, "limit_measure_1d", counted)
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["result"]["verification"]["ok"] is True
        assert len(calls) == 1


class TestBudgetPartials:
    """``error.partial`` of an exit-3 document, one test per kind of partial."""

    def test_measure_tolerance_reports_the_best_bracket(self, tmp_path):
        s = CantorSchedule(1)
        path = tmp_path / "diff.json"
        expr = Diff(base_expr(s), Gen((Fraction(1, 3),), Box.unit_cube(1)))
        path.write_text(json.dumps(expr_to_json(expr)))
        code, doc = run_json(
            "measure", "--expr-file", str(path), "--tol", "1/1000000", "--stage-cap", "3"
        )
        assert code == 3
        assert doc["result"]["error"]["partial"] == {
            "lower": "19/64",
            "upper": "35/64",
            "stage": 3,
            "leaf_count": 2,
        }

    def test_range_solve_reports_the_last_bracket(self):
        code, doc = run_json("range-solve", "--target", "1/3", "--max-iter", "2")
        assert code == 3
        assert doc["result"]["error"]["partial"] == ["1/2", "3/4"]

    def test_range_solve_below_half_the_tolerance_needs_no_budget(self):
        # x = 0 has level exactly 0, within tol/2 of the target, so the
        # solve takes no bisection step and --max-iter 0 cannot stop it
        code, doc = run_json("range-solve", "--target", "0", "--max-iter", "0", "--verify")
        assert code == 0
        result = doc["result"]
        assert result["verification"] == {"requested": True, "ok": True}
        assert result["solution"] == {
            "target": "0/1",
            "point": "0/1",
            "lo": "0/1",
            "hi": "0/1",
            "bracket": {"lower": "0/1", "upper": "0/1", "stage": 20, "leaf_count": 1},
            "iterations": 0,
            "status": "straddle",
        }

    def test_rn_enumerate_reports_the_last_full_layer(self):
        code, doc = run_json("rn-enumerate", "--n", "2", "--max-size", "1")
        assert code == 3
        assert doc["result"]["error"]["partial"] == [expr_to_json(base_expr(CantorSchedule(1)))]


# ---------------------------------------------------------------------------
# representative results
# ---------------------------------------------------------------------------


class TestResults:
    def test_measure_reports_the_frozen_bracket(self, expr_file):
        code, doc = run_json("measure", "--expr-file", expr_file, "--stage", "4")
        assert code == 0
        assert doc["result"]["bounds"]["lower"] == "1/2"
        assert doc["result"]["bounds"]["upper"] == "17/32"

    def test_split_check_reports_equality(self, expr_file):
        code, doc = run_json(
            "split-check", "--expr-file", expr_file, "--threshold", "1/2", "--stage", "4"
        )
        assert code == 0
        assert doc["result"]["report"]["equal"] is True

    def test_split_check_refuses_an_axis_out_of_range_before_the_report(self, expr_file):
        code, doc = run_json("split-check", "--expr-file", expr_file, "--threshold", "1/2", "--axis", "1")
        assert code == 2
        assert doc["result"]["error"] == {"kind": "precondition", "message": "axis 1 out of range for dimension 1"}

    def test_parser_defaults_are_the_library_caps(self):
        parse = cli._parser().parse_args
        assert parse(["rn-enumerate", "--n", "1"]).max_size == DEFAULT_RN_CAP
        assert parse(["cover-search", "--target-file", "t", "--expr-file", "e"]).budget == cover.DEFAULT_SUBSET_BUDGET
        assert parse(["tile-check", "--q", "2"]).max_tiles == DEFAULT_TILE_CAP
        for command in (["uncovered-box"], ["infinite-cube"]):
            assert parse(command).stage_cap == cover.DEFAULT_WITNESS_STAGE_CAP == 12
        pack = parse(["pack", "--sides", "1"])
        assert (pack.c, pack.rho) == (CantorSchedule.c, CantorSchedule.rho) == (1, Fraction(1, 4))
        assert (pack.alpha, pack.target_side) == (DEFAULT_ALPHA, DEFAULT_TARGET_SIDE)
        assert (pack.alpha, pack.target_side) == (1, Fraction(1, 2))
        assert parse(["corollary-demo", "--delta", "1"]).bits == DEFAULT_ROOT_BITS == 24
        solve = parse(["range-solve"])
        assert (solve.tol, solve.max_iter) == (DEFAULT_LEVEL_TOL, DEFAULT_MAX_ITER)
        assert (solve.tol, solve.max_iter) == (Fraction(1, 1 << 20), 10_000)
        # the library functions default to the same values
        for function, name, value in [
            (side_scale_for, "bits", DEFAULT_ROOT_BITS),
            (corollary_pipeline, "bits", DEFAULT_ROOT_BITS),
            (solve_level, "tol", DEFAULT_LEVEL_TOL),
            (solve_level, "max_iter", DEFAULT_MAX_ITER),
            (pack_cover, "alpha", DEFAULT_ALPHA),
            (pack_cover, "target_side", DEFAULT_TARGET_SIDE),
        ]:
            assert inspect.signature(function).parameters[name].default is value

    def test_pack_covers_the_advertised_interval(self):
        code, doc = run_json("pack", "--sides", "1/2,1/4,1/4")
        assert code == 0
        target = doc["result"]["layout"]["target"]
        assert target == {"lo": ["0/1"], "hi": ["1/2"]}

    def test_uncovered_box_with_no_elements_kept_exit_zero(self):
        code, doc = run_json("uncovered-box", "--stage-cap", "4")
        assert code == 0
        assert doc["result"]["found"] is True

    def test_corollary_demo_reports_all_checks(self):
        code, doc = run_json("corollary-demo", "--delta", "1/4")
        assert code == 0
        checks = doc["result"]["report"]["checks"]
        assert checks["sum_exceeds_half_a"] is True
        assert checks["covers_target"] is True

    def test_corollary_demo_exits_one_when_a_check_fails(self, monkeypatch, capsys):
        run = cli.corollary_pipeline

        def failing(*args, **kwargs):
            rep = run(*args, **kwargs)
            return dataclasses.replace(rep, checks=dataclasses.replace(rep.checks, covers_target=False))

        monkeypatch.setattr(cli, "corollary_pipeline", failing)
        assert cli.main(["corollary-demo", "--delta", "1/4"]) == 1
        assert json.loads(capsys.readouterr().out)["result"]["report"]["checks"]["covers_target"] is False

    def test_out_flag_writes_the_document(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("cantor-info", "--out", str(out))
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "cantor-info"

    def test_out_flag_replaces_stdout(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("cantor-info", "--stage", "3", "--out", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert out.read_text() == run_cli("cantor-info", "--stage", "3").stdout

    def test_seed_is_echoed(self):
        code, doc = run_json("cantor-info", "--seed", "1234")
        assert code == 0
        assert doc["config"]["seed"] == 1234


# ---------------------------------------------------------------------------
# determinism and replay
# ---------------------------------------------------------------------------


class TestDeterminismAndReplay:
    def test_reruns_are_byte_identical(self):
        a = run_cli("corollary-demo", "--delta", "1/4")
        b = run_cli("corollary-demo", "--delta", "1/4")
        assert a.stdout == b.stdout
        assert a.stdout.endswith("\n")

    def test_verify_replay_accepts_all_core_commands(self, expr_file):
        invocations = [
            ("cantor-info",),
            ("measure", "--expr-file", expr_file, "--stage", "3"),
            ("split-check", "--expr-file", expr_file, "--threshold", "1/3"),
            ("uncovered-box", "--expr-file", expr_file, "--stage-cap", "8"),
            ("pack", "--sides", "1/2,1/4,1/4"),
            ("corollary-demo", "--delta", "1/4"),
            ("range-solve", "--target", "1/4"),
            ("tile-check", "--q", "2"),
        ]
        for argv in invocations:
            code, doc = run_json(*argv, "--verify")
            assert code == 0, (argv, doc)
            assert doc["result"]["verification"] == {"requested": True, "ok": True}

    def test_verification_flag_defaults_to_not_requested(self):
        code, doc = run_json("cantor-info")
        assert doc["result"]["verification"]["requested"] is False

    def test_in_process_calls_share_no_parser_state(self, capsys):
        # main() builds its parser once per process and reuses it
        assert cli.main(["cantor-info", "--verify", "--seed", "5"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert cli.main(["cantor-info"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["config"]["seed"] == 5
        assert first["result"]["verification"] == {"requested": True, "ok": True}
        assert second["config"]["seed"] == 0
        assert second["result"]["verification"] == {"requested": False}


# ---------------------------------------------------------------------------
# an integer or flag input decodes only from its exact JSON type
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("stage", 2.9, "input 'stage' must be a JSON int, got float"),
        ("stage_cap", True, "input 'stage_cap' must be a JSON int, got bool"),
        ("clip", "false", "input 'clip' must be a JSON bool, got str"),
        ("budget", "12", "input 'budget' must be a JSON int, got str"),
    ],
)
def test_an_int_or_flag_input_is_read_exactly(key, value, message):
    # int() would read 2.9 as 2, true as 1 and "12" as 12, and bool() "false" as true
    with pytest.raises(PreconditionError) as refused:
        cli._decode({key: value})
    assert str(refused.value) == message


def test_exact_ints_and_flags_decode_to_themselves():
    inputs = {"stage": 2, "stage_cap": 0, "budget": 12, "clip": False, "above": True, "max_iter": None}
    assert cli._decode(inputs) == inputs


@pytest.mark.parametrize("stage", [2.0, 3.0])
def test_a_golden_document_with_a_float_stage_is_refused(stage, tmp_path, monkeypatch):
    # the measure golden at stage 3, its stage written as a float: 3.0 once
    # replayed as stage 3, and 2.0 as stage 2
    argv, _, _ = test_cli_golden.CASES["measure"]
    for fname, text in test_cli_golden.FILES.items():
        (tmp_path / fname).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "--out", "doc.json"]) == 0
    doc = json.loads((tmp_path / "doc.json").read_text(encoding="utf-8"))
    assert doc["inputs"]["stage"] == 3 and test_cli_golden.replays_from_text(json.dumps(doc))
    doc["inputs"]["stage"] = stage
    with pytest.raises(PreconditionError, match="^input 'stage' must be a JSON int, got float$"):
        test_cli_golden.replays_from_text(json.dumps(doc))


# ---------------------------------------------------------------------------
# certificate replays tie a result core to its inputs
# ---------------------------------------------------------------------------


def _replay(argv, tamper, capsys):
    """``cli._verify`` on a copy of a command's result core changed in place
    by ``tamper``, and the stderr it printed."""
    args = cli._parser().parse_args(argv)
    command = cli.COMMANDS[args.command]
    s = CantorSchedule(args.d, args.c, args.rho)
    inputs = cli._decode(json.loads(json.dumps(serialize.to_json(command.inputs(args, s)))))
    core = copy.deepcopy(serialize.to_json(command.run(s, inputs)[0]))
    tamper(core)
    ok = cli._verify(command, s, inputs, core)
    return ok, capsys.readouterr().err


def _replayed(argv, tamper, capsys):
    """The verdict of :func:`_replay`; a replay never crashes on a tamper."""
    ok, err = _replay(argv, tamper, capsys)
    assert "verification crashed" not in err
    return ok


def _untampered(core):
    pass


def _holder(core, path):
    """The container of the value at ``path`` of the core, each container on
    the path copied first, so that no other place shares an edit of it."""
    holder = core
    for key in path[:-1]:
        holder[key] = copy.copy(holder[key])
        holder = holder[key]
    return holder


def _set(path, value):
    """A tamper that sets the value at ``path`` of the core."""

    def tamper(core):
        _holder(core, path)[path[-1]] = value

    return tamper


def _drop(path):
    """A tamper that deletes the key at ``path`` of the core."""

    def tamper(core):
        del _holder(core, path)[path[-1]]

    return tamper


def _retyped(path, value):
    """A tamper that sets an int at ``path`` to ``value``, a float or bool
    equal to it under ``==``."""

    def tamper(core):
        holder = core
        for key in path:
            holder = holder[key]
        assert type(holder) is int and holder == value and type(value) is not int
        _set(path, value)(core)

    return tamper


def _structural_tampers(core):
    """Every single-field change of a core's shape: each key deleted, and
    each container replaced by null, an empty list or object, a string or a
    number that it does not already equal; as (path, tamper) pairs."""

    def walk(value, path):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            here = (*path, key)
            if isinstance(value, dict):
                yield here, _drop(here)
            if isinstance(item, (dict, list)):
                for other in (None, [], {}, "x", 0):
                    if not serialize.same_json(item, other):
                        yield here, _set(here, other)
                yield from walk(item, here)

    return list(walk(core, ()))


def _zero_as_integer_text(core):
    """The pack target's corner written "0", as the layout and ``covered_cube``
    both name it: the same box, in text the program does not write."""
    for path in (("layout", "target"), ("covered_cube",)):
        _set((*path, "lo"), ["0"])(core)


class TestReplayTampers:
    # four cubes of 1/4 at d = 1, input i placed at position i on the unit 1/4
    PACK = ("pack", "--sides", "1/4,1/4,1/4,1/4")

    @pytest.mark.parametrize(
        "tamper",
        [
            _untampered,
            # one input placed twice: cube 0 at 0 and at 1/4
            _set(("layout", "placements"), [{"index": 0, "position": [0]}, {"index": 0, "position": [1]}]),
            _set(("layout", "placements", 1, "index"), 9),  # a family of 4 cubes
            _set(("placements",), 3),
            _set(("placements",), 2.0),
            _set(("covered_cube", "hi"), ["1/4"]),
            _set(("layout", "placements", 1, "position"), [1, 0]),  # at d = 1
            _set(("layout", "placements", 1, "index"), -1),
            _zero_as_integer_text,
            _set(("layout", "merge_tree"), []),  # a layout is its unit, placements and target alone
            _set(("layout", "unit"), "1/2"),  # the unit doubled: a gap at [1/4, 1/2)
            _set(("layout", "placements", 1, "position"), [2]),  # a gap at [1/4, 1/2)
        ],
        ids=["untampered", "repeated-index", "index-outside", "count", "count-float", "covered-cube",
             "position-length", "index-negative", "target-text", "extra-key", "unit-doubled", "position-moved"],
    )
    def test_pack(self, tamper, capsys):
        assert _replayed(self.PACK, tamper, capsys) is (tamper is _untampered)

    def test_a_refused_decode_is_reported_as_a_refusal(self, capsys):
        ok, err = _replay(self.PACK, _set(("layout", "placements", 1, "index"), -1), capsys)
        assert not ok
        assert err.startswith("verification refused: ")

    def test_a_halved_unit_fails_the_check_cleanly(self, capsys):
        # The cubes 1 and 2 of 1/4, merged into the selected cube of 1/2, sit at
        # positions 0 and 1 on the unit 1/4.  The unit halved decodes, and
        # its cubes at 0 and 1/8 miss [3/8, 1/2).
        argv = ("pack", "--sides", "1,1/4,1/4")
        assert _replayed(argv, _untampered, capsys)
        ok, err = _replay(argv, _set(("layout", "unit"), "1/8"), capsys)
        assert not ok
        assert err == ""

    @pytest.mark.parametrize(
        "path, value",
        [
            *[((1, "position", 0), value) for value in (1.0, True, "1", None, [1])],
            *[((1, "position"), value) for value in (1.0, True, "1", None, [[1]], {"0": 1})],
            *[((1, "index"), value) for value in (True, -1, 1.0, "1", None)],
            ((1, "note"), 0),
            ((1, "translate"), ["1/4"]),
        ],
    )
    def test_placements_off_the_written_shape_are_refused(self, path, value, capsys):
        ok, err = _replay(self.PACK, _set(("layout", "placements", *path), value), capsys)
        assert not ok
        assert err.startswith("verification refused: placement: ")

    @pytest.mark.parametrize("unit", ["2/8", "0/1", "-1/4", "0.25", "01/4", " 1/4", "1/4 ", 1, None, ["1/4"]])
    def test_units_off_the_written_text_are_refused(self, unit, capsys):
        ok, err = _replay(self.PACK, _set(("layout", "unit"), unit), capsys)
        assert not ok
        assert err.startswith("verification refused: ")

    @pytest.mark.parametrize(
        "tamper",
        [
            _drop(("layout", "unit")),
            _drop(("layout", "target")),
            _set(("layout", "note"), "0/1"),
            _set(("layout", "placements"), {}),
            _set(("layout",), None),
        ],
        ids=["no-unit", "no-target", "extra-key", "placements-object", "layout-null"],
    )
    def test_layouts_off_the_written_shape_are_refused(self, tamper, capsys):
        ok, err = _replay(self.PACK, tamper, capsys)
        assert not ok
        assert err.startswith("verification refused: packing layout: ")

    # The witness's stages are (1, 2, 0): one per leaf of the three elements.
    CUBE = ("infinite-cube", "--pool-size", "3", "--stage-cap", "12")
    OLD_LEAF = {"element_index": 0, "leaf_index": 0, "translation": ["0/1"], "stage": 1}

    @pytest.mark.parametrize(
        "tamper",
        [
            _untampered,
            _set(("witness", "stage"), 2),  # the old summary stage beside the stages
            _set(("witness", "certificates", 1), 1),
            _set(("witness", "certificates"), [1, 2]),
            _set(("witness", "certificates"), [1, 2, 0, 0]),
            _set(("witness", "certificates", 0), True),
            _set(("witness", "certificates", 0), 1.0),
            _set(("witness", "certificates", 0), "1"),
            _set(("witness", "certificates", 2), -1),
            _set(("witness", "certificates", 0), OLD_LEAF),
            _set(("witness", "box", "hi"), ["1/1"]),
            _set(("found",), False),
            _set(("witness", "box", "lo"), ["394/768"]),  # the same box, in unreduced text
        ],
        ids=["untampered", "stage-key", "stage-lowered", "too-short", "too-long", "stage-true",
             "stage-float", "stage-text", "stage-negative", "leaf-object", "box", "found", "box-text"],
    )
    def test_infinite_cube(self, tamper, capsys):
        assert _replayed(self.CUBE, tamper, capsys) is (tamper is _untampered)

    @pytest.mark.parametrize("stages", [[2, 3, 1], [1002, 2, 0], [2, 2, 0]])
    def test_infinite_cube_accepts_deeper_stages(self, stages, capsys):
        # A deeper stage shrinks the translate the box must miss, so the
        # witness still certifies what it claims.
        assert _replayed(self.CUBE, _set(("witness", "certificates"), stages), capsys)

    # grid 2 of kept 35 cubes of side 9/128 covers [0, 1922011/16777216)^3
    COROLLARY = ("corollary-demo", "--d", "3", "--delta", "1/8")
    OLD_LAYOUT = {
        "unit": "1/1", "placements": [{"index": 0, "position": [0] * 3}], "target": {"lo": ["0/1"] * 3, "hi": ["1/1"] * 3}
    }

    @pytest.mark.parametrize(
        "tamper",
        [
            _untampered,
            _set(("report", "grid"), 1),
            _set(("report", "grid"), 3),
            _set(("report", "grid"), 0),
            _set(("report", "grid"), True),
            _set(("report", "grid"), 2.0),
            _set(("report", "grid"), "2"),
            _set(("report", "grid"), 10**4000),  # refused before any power of it
            _set(("report", "kept"), 34),
            _set(("report", "kept"), 36),
            _set(("report", "covered_cube", "hi"), ["1/16"] * 3),
            _set(("report", "checks", "covers_target"), 1),
            _set(("report", "layout"), OLD_LAYOUT),
            _set(("report", "family"), {"dim": 3, "sides": ["9/128"] * 35}),
            _set(("report", "verified"), True),
        ],
        ids=["untampered", "grid-lowered", "grid-raised", "grid-zero", "grid-true", "grid-float",
             "grid-text", "grid-huge", "kept-lowered", "kept-raised", "covered-cube", "check-flag",
             "old-layout", "old-family", "old-verified"],
    )
    def test_corollary_demo(self, tamper, capsys):
        assert _replayed(self.COROLLARY, tamper, capsys) is (tamper is _untampered)

    def test_corollary_demo_checks_the_documents_grid(self, monkeypatch, capsys):
        # a run and its rebuild that agree on a lowered grid: the grid itself must cover
        run = cli.corollary_pipeline

        def lowered(*args, **kwargs):
            rep = run(*args, **kwargs)
            return dataclasses.replace(rep, grid=rep.grid - 1)

        monkeypatch.setattr(cli, "corollary_pipeline", lowered)
        ok, err = _replay(self.COROLLARY, _untampered, capsys)
        assert not ok and "verification crashed" not in err

    @pytest.fixture
    def cover_argv(self, tmp_path):
        # Element 0 misses [0, 1/4) at stage 1; elements 1 and 2 each cover it.
        pool = [
            {"gen": {"x": [x], "clip": {"lo": ["0/1"], "hi": [hi]}}}
            for x, hi in [("1/2", "1/1"), ("0/1", "1/1"), ("0/1", "1/2")]
        ]
        (tmp_path / "pool.json").write_text(json.dumps(pool))
        (tmp_path / "target.json").write_text(json.dumps({"lo": ["0/1"], "hi": ["1/4"]}))
        return (
            "cover-search", "--target-file", str(tmp_path / "target.json"),
            "--expr-file", str(tmp_path / "pool.json"), "--stage", "1",
        )

    @pytest.mark.parametrize("flags", [(), ("--no-clip",)], ids=["clip", "no-clip"])
    def test_a_found_cover_verifies(self, cover_argv, flags, capsys):
        assert _replayed((*cover_argv, *flags), _untampered, capsys)

    @pytest.mark.parametrize(
        "tamper",
        [
            _set(("attempt", "subset"), [-2, -1]),
            _set(("attempt", "subset"), [1, 2, 2]),
            _set(("attempt", "subset"), [2, 1]),
            _set(("attempt", "subset"), [True]),
            _set(("attempt", "stage"), 0),
            _set(("attempt", "stage"), 1.5),
            _set(("attempt", "verified"), False),
            _set(("attempt", "total_premeasure_upper"), "1/8"),
        ],
        ids=["negative", "repeated", "decreasing", "bool-index", "stage", "stage-float",
             "unverified", "total"],
    )
    def test_cover_search(self, cover_argv, tamper, capsys):
        assert not _replayed(cover_argv, tamper, capsys)

    @pytest.fixture
    def files(self, tmp_path):
        """Input files by placeholder: the default schedule's base set, a
        pool of it and its translate by 1/2, and a pool whose one element
        misses the target [0, 1/4) at stage 1."""
        base = serialize.expr_to_json(base_expr(CantorSchedule(1)))
        half = {"gen": {"x": ["1/2"], "clip": {"lo": ["0/1"], "hi": ["1/1"]}}}
        texts = {
            "@expr": base,
            "@pool": [base, half],
            "@missing": [half],
            "@quarter": {"lo": ["0/1"], "hi": ["1/4"]},
        }
        paths = {}
        for name, doc in texts.items():
            path = tmp_path / f"{name[1:]}.json"
            path.write_text(json.dumps(doc))
            paths[name] = str(path)
        return paths

    @pytest.mark.parametrize(
        "argv, path, value",
        [
            (("measure", "--expr-file", "@expr", "--stage", "3"), ("bounds", "leaf_count"), True),
            (("split-check", "--expr-file", "@expr", "--threshold", "1/3", "--stage", "2"),
             ("report", "stage"), 2.0),
            (("rn-enumerate", "--expr-file", "@pool", "--n", "1", "--reference-stage", "3"),
             ("count",), 2.0),
            (("cantor-info", "--stage", "3"), ("interval_count",), 8.0),
            (("hausdorff-bound", "--delta", "1/8"), ("cover", "stage"), 3.0),
            (("tile-check", "--q", "3/2,2"), ("report", "count"), 6.0),
            (("range-solve", "--target", "1/4"), ("solution", "iterations"), 1.0),
            (("range-solve", "--x", "1/3"), ("bounds", "leaf_count"), True),
            (("uncovered-box", "--expr-file", "@pool", "--stage-cap", "0"),
             ("needs_deeper_stage", "deepest_stage"), 0.0),
            (("uncovered-box", "--expr-file", "@pool"), ("found",), 1),
            (("cover-search", "--target-file", "@quarter", "--expr-file", "@missing", "--stage", "1"),
             ("attempt", "stage"), 1.0),
            # element 5 is the first the fold cannot dodge by the stage cap
            (("infinite-cube", "--pool-size", "10", "--stage-cap", "8"),
             ("needs_deeper_stage", "deepest_stage"), 8.0),
            (("infinite-cube", "--pool-size", "3", "--stage-cap", "12"), ("witness", "certificates", 1), 2.0),
        ],
        ids=["measure", "split-check", "rn-enumerate", "cantor-info", "hausdorff-bound",
             "tile-check", "range-solve-target", "range-solve-x", "uncovered-box-needs-deeper",
             "uncovered-box-found", "cover-search-infinite", "infinite-cube-inconclusive",
             "infinite-cube-found"],
    )
    def test_an_int_retyped_is_refused(self, argv, path, value, files, capsys):
        # 1, 1.0 and true are equal under ``==`` but not as JSON text.
        argv = [files.get(arg, arg) for arg in argv]
        assert _replayed(argv, _untampered, capsys)
        tamper = _set(path, value) if path == ("found",) else _retyped(path, value)  # true as 1
        assert not _replayed(argv, tamper, capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ("uncovered-box", "--expr-file", "@pool"),
            ("uncovered-box", "--expr-file", "@pool", "--stage-cap", "0"),
            ("cover-search", "--target-file", "@quarter", "--expr-file", "@pool", "--stage", "1"),
            ("cover-search", "--target-file", "@quarter", "--expr-file", "@missing", "--stage", "1"),
            ("infinite-cube", "--pool-size", "2", "--stage-cap", "8"),
            ("infinite-cube", "--pool-size", "2", "--stage-cap", "0"),
            PACK,
            ("corollary-demo", "--delta", "1/4"),
        ],
        ids=["uncovered-box", "uncovered-box-needs-deeper", "cover-search", "cover-search-infinite",
             "infinite-cube", "infinite-cube-inconclusive", "pack", "corollary-demo"],
    )
    def test_a_changed_shape_is_refused_not_a_crash(self, argv, files, capsys):
        """Each key deleted, each container replaced by another shape: the
        check refuses it, and never as an internal fault."""
        args = cli._parser().parse_args([files.get(arg, arg) for arg in argv])
        command = cli.COMMANDS[args.command]
        s = CantorSchedule(args.d, args.c, args.rho)
        inputs = cli._decode(serialize.to_json(command.inputs(args, s)))
        core = serialize.to_json(command.run(s, inputs)[0])
        assert cli._verify(command, s, inputs, core)
        tampers = _structural_tampers(core)
        assert tampers
        for path, tamper in tampers:
            tampered = dict(core)  # the tamper copies what it edits below this
            tamper(tampered)
            ok = cli._verify(command, s, inputs, tampered)
            err = capsys.readouterr().err
            assert "verification crashed" not in err, (path, err)
            assert not ok, path
