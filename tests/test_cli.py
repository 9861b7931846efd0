"""Command-line surface: formats, determinism, exit codes."""

import json
import os
import random
import re
import shlex
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ringcache import cli
from ringcache import converse as cv
from ringcache import verify as acceptance
from ringcache.model import ProblemInstance, build_demand_structure
from test_converse import row_built_counts

GOLDEN = Path(__file__).parent / "golden"
# What the installed ``ringcache`` script runs (``[project.scripts]``).
ENTRY_POINT = "import sys; from ringcache.cli import main; sys.exit(main())"


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def dump_headers(data: bytes) -> list:
    """(component ids, payload length) per message of a transcript dump."""
    (count,) = struct.unpack_from(">I", data)
    pos, messages = 4, []
    for _ in range(count):
        (n_comps,) = struct.unpack_from(">H", data, pos)
        comps = tuple(struct.unpack_from(">BII", data, pos + 2 + 9 * j) for j in range(n_comps))
        pos += 2 + 9 * n_comps
        (length,) = struct.unpack_from(">I", data, pos)
        pos += 4 + length
        messages.append((comps, length))
    assert pos == len(data)
    return messages


class TestTradeoff:
    def test_corner_curve_even_instance(self, capsys):
        code, out, _ = run(capsys, ["tradeoff", "--K", "4", "--a", "4", "--b", "2",
                                    "--m-grid", "0,6,10"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "M,R_ach,R_star_u,R_cutset"
        assert lines[1] == "0,4,4,2"
        assert lines[2] == "6,3/2,3/2,4/5"
        assert lines[3] == "10,0,0,0"

    def test_larger_shared_part(self, capsys):
        code, out, _ = run(capsys, ["tradeoff", "--K", "4", "--a", "10", "--b", "2",
                                    "--m-grid", "0,12,22"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [r[2] for r in rows] == ["4", "3/2", "0"]

    def test_uncoded_regime_is_linear(self, capsys):
        code, out, _ = run(capsys, ["tradeoff", "--K", "4", "--a", "1", "--b", "2",
                                    "--m-grid", "0,2,4"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [r[2] for r in rows] == ["4", "2", "0"]

    def test_deterministic_output(self, capsys):
        argv = ["tradeoff", "--K", "3", "--a", "2", "--b", "1", "--m-steps", "5"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_multiaccess_column(self, capsys):
        code, out, _ = run(capsys, ["tradeoff", "--K", "4", "--a", "1", "--b", "1",
                                    "--L", "2", "--m-grid", "0,1,2"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "M,R_ach,R_star_u,R_cutset,R_multi"
        assert lines[1].split(",")[4] == "4"
        assert lines[3].split(",")[4] == "0"

    def test_lp_column(self, capsys):
        code, out, _ = run(capsys, ["tradeoff", "--K", "2", "--a", "1", "--b", "1",
                                    "--m-grid", "0,2,3", "--lp"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].endswith(",R_lp")
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[2] == cells[-1]  # LP column equals R_star_u

    @pytest.mark.parametrize("K,a,b", [(3, 2, 1), (4, 1, 2)])
    @pytest.mark.parametrize("mode", ["aggregate", "per_node"])
    def test_lp_column_equals_a_solve_per_memory(self, capsys, K, a, b, mode):
        code, out, _ = run(capsys, ["tradeoff", "--K", str(K), "--a", str(a), "--b", str(b),
                                    "--m-steps", "5", "--memory-mode", mode, "--lp"])
        assert code == 0
        base = ProblemInstance(K, a, b)
        ds = build_demand_structure(base)
        family = cv.full_family(ds)
        for line in out.strip().split("\n")[1:]:
            cells = line.split(",")
            inst = base.with_m(Fraction(cells[0]))
            want = cv.solve_lp(cv.build_lp(inst, family, mode)).value
            assert Fraction(cells[-1]) == want

    def test_json_and_decimal(self, capsys):
        code, out, _ = run(capsys, ["tradeoff", "--K", "3", "--a", "2", "--b", "1",
                                    "--m-grid", "0,5", "--format", "json",
                                    "--decimal", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["points"][0]["R_star_u"] == "3.000"

    def test_decimal_is_exact(self, capsys):
        code, out, _ = run(capsys, ["tradeoff", "--K", "3", "--a", "1", "--b", "1",
                                    "--m-grid", "0,1/3,5/2", "--decimal", "20"])
        assert code == 0
        assert out.split("\n")[2].split(",")[0] == "0.33333333333333333333"

    def test_decimal_takes_up_to_the_limit(self, capsys):
        code, out, err = run(capsys, ["tradeoff", "--K", "2", "--a", "1", "--b", "1",
                                      "--m-grid", "1/3", "--decimal", str(cli.DECIMAL_LIMIT)])
        assert (code, err) == (0, "")
        assert out.split("\n")[1].split(",")[0] == "0." + "3" * 1000

    def test_decimal_rounds_half_up(self, capsys):
        code, out, _ = run(capsys, ["tradeoff", "--K", "3", "--a", "1", "--b", "1",
                                    "--m-grid", "0,1/3,5/2", "--decimal", "0"])
        assert code == 0
        # M = 5/2 and R = 1/2 round up; R_cutset 1/6 rounds down
        assert out.split("\n")[3] == "3,1,1,0"

    def test_grid_outside_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["tradeoff", "--K", "3", "--a", "2", "--b", "1",
                                    "--m-grid", "0,9"])
        assert code == 2
        assert "error" in err

    def test_budget_exceeded_exit_code(self, capsys):
        code, _, err = run(capsys, ["tradeoff", "--K", "9", "--a", "4", "--b", "3",
                                    "--m-grid", "0"])
        assert code == 3
        assert "budget" in err

    def test_grid_over_budget_is_refused_before_it_is_built(self, capsys, monkeypatch):
        def no_point(*_args, **_kwargs):
            raise AssertionError("a grid point was computed")

        monkeypatch.setattr(cli, "worst_case_load", no_point)
        steps = cli.GRID_BUDGET + 1
        code, out, err = run(capsys, ["tradeoff", "--K", "3", "--a", "2", "--b", "1",
                                      "--m-steps", str(steps)])
        assert (code, out) == (3, "")
        assert err == f"budget exceeded: {steps} grid points exceed the grid budget 100000\n"

    def test_explicit_grid_over_budget_is_refused_before_any_point(self, capsys, monkeypatch):
        def no_point(*_args, **_kwargs):
            raise AssertionError("a grid point was computed")

        monkeypatch.setattr(cli, "closed_form_points", no_point)
        monkeypatch.setattr(cli, "worst_case_load", no_point)
        points = cli.GRID_BUDGET + 1
        code, out, err = run(capsys, ["tradeoff", "--K", "2", "--a", "1", "--b", "1",
                                      "--m-grid", ",".join(["0"] * points)])
        assert (code, out) == (3, "")
        assert err == f"budget exceeded: {points} grid points exceed the grid budget 100000\n"


@pytest.mark.parametrize("K,a,b", acceptance.sweep_instances())
def test_every_tradeoff_cell_is_non_negative(capsys, K, a, b):
    # with the LP column where it is cheap (K <= 4), and with multiaccess columns
    instance = ["--K", str(K), "--a", str(a), "--b", str(b)]
    runs = [[], ["--L", "2"], ["--L", str(K)]] + ([["--lp"]] if K <= 4 else [])
    for extra in runs:
        code, out, err = run(capsys, ["tradeoff", *instance, *extra])
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 11
        assert all(Fraction(cell) >= 0 for row in rows for cell in row)


@pytest.mark.parametrize("argv, budget", [
    (["tradeoff", "--K", "10000", "--a", "1", "--b", "1", "--m-steps", "2"], "10000000"),
])
def test_budget_refusal_past_the_int_digit_limit(capsys, argv, budget):
    """3^10000 has 4,772 digits, more than str() renders by default."""
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert err == f"budget exceeded: at least 10^4771 demand vectors exceed {budget}\n"


def test_demand_budget_is_refused_before_the_demand_structure(capsys, monkeypatch):
    def no_structure(*_args):
        raise AssertionError("the demand structure was built")

    monkeypatch.setattr(cli, "build_demand_structure", no_structure)
    code, out, err = run(capsys, ["tradeoff", "--K", "100000", "--a", "1", "--b", "1",
                                  "--m-steps", "2"])
    assert (code, out) == (3, "")
    assert err == "budget exceeded: at least 10^47712 demand vectors exceed 10000000\n"


def test_library_budget_is_refused_before_the_demand_structure(capsys, monkeypatch):
    def no_structure(*_args):
        raise AssertionError("the demand structure was built")

    monkeypatch.setattr(cli, "build_demand_structure", no_structure)
    code, out, err = run(capsys, ["simulate", "--K", "200000", "--a", "1", "--b", "1"])
    assert (code, out) == (3, "")
    assert err == "budget exceeded: library of 400000 x 200000 bytes exceeds 268435456 bytes\n"


def test_lp_budgets_are_refused_before_the_demand_structure(capsys, monkeypatch):
    def no_structure(*_args):
        raise AssertionError("the demand structure was built")

    monkeypatch.setattr(cli, "build_demand_structure", no_structure)
    argv = ["tradeoff", "--K", "100000", "--a", "1", "--b", "1", "--m-steps", "2", "--lp"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert err == ("budget exceeded: 200000 * 2^100000 LP variables exceed the variable "
                   "budget 2097152\n")
    code, out, err = run(capsys, [*argv, "--L", "2"])  # the usage error still comes first
    assert (code, out) == (2, "")
    assert err == "error: the LP converse models L = 1 only; got L=2\n"


@pytest.mark.parametrize("extra, message", [
    ([], "14348907 demand vectors exceed 10000000"),  # 27^5, the demand budget
    (["--lp"], "14348907 demand vectors exceed the row budget 1000000"),  # the family's
])
def test_the_family_refuses_first_under_lp(capsys, extra, message):
    code, out, err = run(capsys, ["tradeoff", "--K", "5", "--a", "9", "--b", "9", *extra])
    assert (code, out, err) == (3, "", f"budget exceeded: {message}\n")


class TestSimulate:
    def test_running_example(self, capsys):
        code, out, _ = run(capsys, ["simulate", "--K", "3", "--a", "2", "--b", "1",
                                    "--M", "3", "--demand", "1,6,7"])
        assert code == 0
        doc = json.loads(out)
        assert doc["load"] == "1"
        assert doc["loads_agree"] is True
        assert all(doc["decode_ok"].values())

    def test_zero_memory(self, capsys):
        code, out, _ = run(capsys, ["simulate", "--K", "3", "--a", "2", "--b", "1",
                                    "--M", "0", "--seed", "3"])
        assert code == 0
        assert json.loads(out)["load"] == "3"

    def test_multiaccess_silent_corner(self, capsys):
        code, out, _ = run(capsys, ["simulate", "--K", "4", "--a", "1", "--b", "1",
                                    "--L", "2", "--M", "2", "--seed", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["load"] == "0" and doc["messages"] == 0

    def test_invalid_demand_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["simulate", "--K", "3", "--a", "2", "--b", "1",
                                    "--M", "3", "--demand", "9,6,7"])
        assert code == 2
        assert "region" in err

    def test_transcript_dump(self, capsys, tmp_path):
        dump = tmp_path / "transcript.bin"
        code, out, _ = run(capsys, ["simulate", "--K", "2", "--a", "1", "--b", "1",
                                    "--M", "2", "--demand", "1,3", "--seed", "9",
                                    "--dump", str(dump)])
        assert code == 0
        data = dump.read_bytes()
        assert int.from_bytes(data[:4], "big") == json.loads(out)["messages"]
        # one pair-XOR message: the subfile of W1 at node 2 xor that of W3 at node 1
        assert dump_headers(data) == [(((0, 1, 0b10), (0, 3, 0b01)), 1)]
        assert data == (GOLDEN / "simulate_211_m2_d13_seed9.bin").read_bytes()
        rng = random.Random(9)  # the demanded files only, in ascending order
        w1, w3 = rng.randbytes(2), rng.randbytes(2)
        assert data[-1] == w1[1] ^ w3[0]

    def test_seeded_dump_is_deterministic(self, capsys, tmp_path):
        dumps = []
        for name in ("one.bin", "two.bin"):
            code, _, _ = run(capsys, ["simulate", "--K", "3", "--a", "2", "--b", "1",
                                      "--M", "4", "--seed", "9", "--file-size", "60",
                                      "--dump", str(tmp_path / name)])
            assert code == 0
            dumps.append((tmp_path / name).read_bytes())
        assert dumps[0] == dumps[1]

    def test_mask_past_the_dump_field_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, ["simulate", "--K", "33", "--a", "1", "--b", "0",
                                      "--M", "1", "--dump", str(tmp_path / "wide.bin")])
        assert (code, out) == (2, "")
        assert err == "error: mask 0x100000000 does not fit the dump's u32 mask field (K <= 32)\n"

    def test_mask_past_the_dump_field_refused_before_drawing(self, capsys, monkeypatch, tmp_path):
        # The scheme alone (a pair-XOR segment on 33 nodes) decides the refusal.
        def no_draw(*_args):
            raise AssertionError("drew library bytes for a transcript that cannot be dumped")

        monkeypatch.setattr(cli, "random_library", no_draw)
        monkeypatch.setattr(cli, "subfile_layout", no_draw)
        code, out, err = run(capsys, ["simulate", "--K", "33", "--a", "1", "--b", "0", "--M", "1",
                                      "--file-size", "330000", "--dump", str(tmp_path / "w.bin")])
        assert (code, out) == (2, "")
        assert err == "error: mask 0x100000000 does not fit the dump's u32 mask field (K <= 32)\n"

    @pytest.mark.parametrize("M", ["0", "2"])
    def test_33_nodes_dump_without_a_pair_xor_segment(self, capsys, tmp_path, M):
        # Direct delivery names mask 0 and local caching sends nothing, so
        # only a pair-XOR component (M = 1 above) overflows the mask field.
        dump = tmp_path / "wide.bin"
        code, out, err = run(capsys, ["simulate", "--K", "33", "--a", "1", "--b", "0",
                                      "--M", M, "--dump", str(dump)])
        assert (code, err) == (0, "")
        masks = {mask for comps, _ in dump_headers(dump.read_bytes()) for _, _, mask in comps}
        assert masks == ({0} if M == "0" else set())
        assert json.loads(out)["messages"] == (33 if M == "0" else 0)

    @pytest.mark.parametrize("demand,message", [
        ("99,6,7", "error: file 99 is not demandable in region 1\n"),
        ("1,6", "error: demand vector must have 3 entries\n"),
    ])
    def test_invalid_demand_refused_before_drawing(self, capsys, monkeypatch, demand, message):
        def no_draw(self, n):
            raise AssertionError("drew library bytes for an invalid demand")

        monkeypatch.setattr(random.Random, "randbytes", no_draw)
        code, out, err = run(capsys, ["simulate", "--K", "3", "--a", "2", "--b", "1",
                                      "--M", "3", "--demand", demand])
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize("argv,files", [
        (["--demand", "5,4,1"], [1, 4, 5]),
        (["--demand", "4,4,7"], [4, 7]),  # regions 1 and 2 share file 4
        (["--seed", "5"], None),
    ])
    def test_draws_only_the_demanded_files_in_ascending_order(self, capsys, monkeypatch,
                                                               argv, files):
        named, drawn = [], []
        random_library, randbytes = cli.random_library, random.Random.randbytes

        def naming(rng, files, size_b):
            named.append(list(files))
            return random_library(rng, files, size_b)

        def counting(self, n):
            drawn.append(n)
            return randbytes(self, n)

        monkeypatch.setattr(cli, "random_library", naming)
        monkeypatch.setattr(random.Random, "randbytes", counting)
        code, out, _ = run(capsys, ["simulate", "--K", "3", "--a", "2", "--b", "1",
                                    "--M", "3", "--file-size", "6", *argv])
        assert code == 0
        want = files or sorted(set(json.loads(out)["demand"]))
        assert named == [want]
        assert drawn == [6] * len(want)

    def test_library_over_budget_exit_code(self, capsys, monkeypatch):
        def no_draw(self, n):
            raise AssertionError("drew library bytes past the budget")

        monkeypatch.setattr(random.Random, "randbytes", no_draw)
        code, out, err = run(capsys, ["simulate", "--K", "5", "--a", "4", "--b", "1",
                                      "--M", "3", "--file-size", "1000000000"])
        assert code == 3
        assert out == ""
        assert err.startswith("budget exceeded:")


    def test_indivisible_file_size_refused_before_drawing(self, capsys, monkeypatch):
        def no_draw(self, n):
            raise AssertionError("drew library bytes for an indivisible file size")

        monkeypatch.setattr(random.Random, "randbytes", no_draw)
        code, out, err = run(capsys, ["simulate", "--K", "5", "--a", "4", "--b", "1",
                                      "--M", "3", "--file-size", "200001"])
        assert (code, out) == (2, "")
        assert err == "error: file size 200001 not divisible for segment uncoded_direct\n"

    def test_size_check_lays_out_the_valid_demands_files(self, capsys, monkeypatch):
        laid_out, layout = [], cli.subfile_layout

        def recording(inst, ds, scheme, size_b, files):
            laid_out.append(list(files))
            return layout(inst, ds, scheme, size_b, files)

        monkeypatch.setattr(cli, "subfile_layout", recording)
        argv = ["simulate", "--K", "3", "--a", "2", "--b", "1", "--M", "3"]
        code, _, err = run(capsys, argv + ["--demand", "99,6,7", "--file-size", "7"])
        assert (code, err, laid_out) == (2, "error: file 99 is not demandable in region 1\n", [])
        code, _, err = run(capsys, argv + ["--demand", "4,4,7", "--file-size", "7"])
        assert (code, err) == (2, "error: file size 7 not divisible for segment man_t1\n")
        assert laid_out == [[4, 7]]


class TestLpCommand:
    def test_matches_closed_form(self, capsys):
        code, out, _ = run(capsys, ["lp", "--K", "3", "--a", "2", "--b", "1", "--M", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["lp_optimum"] == "1"
        assert doc["matches_rstar_u"] is True

    def test_case_split_example(self, capsys):
        # b(K-1) = 3 >= 2a = 2, so the uncoded-regime line applies: 4 - 8/3.
        code, out, _ = run(capsys, ["lp", "--K", "4", "--a", "1", "--b", "1", "--M", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["lp_optimum"] == "4/3"
        assert doc["matches_rstar_u"] is True

    def test_sum_all_reference(self, capsys):
        code, out, _ = run(capsys, ["lp", "--K", "3", "--a", "2", "--b", "1",
                                    "--M", "3", "--sum-all"])
        assert code == 0
        doc = json.loads(out)
        assert doc["sum_all_bound"] == "54/95"
        assert doc["matches_reference"] is True

    def test_running_example_report_matches_pinned_output(self, capsys):
        pinned = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
        code, out, err = run(capsys, ["lp", "--K", "3", "--a", "2", "--b", "1", "--M", "3",
                                      "--certificates", "--sum-all"])
        assert (code, err) == (0, "")
        assert out == (pinned / "lp_321_full_m3.txt").read_text()

    @pytest.mark.parametrize("name,options", [
        ("lp_531_high_m4", ["--M", "4", "--family", "high_m", "--certificates"]),
        ("lp_531_low_m2", ["--M", "2", "--family", "low_m", "--memory-mode", "per_node"]),
    ])
    def test_k5_reports_match_pinned_output(self, capsys, name, options):
        pinned = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
        code, out, err = run(capsys, ["lp", "--K", "5", "--a", "3", "--b", "1", *options])
        assert (code, err) == (0, "")
        assert out == (pinned / f"{name}.txt").read_text()

    @pytest.mark.parametrize("golden,options", [
        ("lp_321_m3_high_m_per_node_raw",
         ["--K", "3", "--a", "2", "--b", "1", "--M", "3", "--family", "high_m",
          "--memory-mode", "per_node"]),
        ("lp_211_m1_full_aggregate_raw", ["--K", "2", "--a", "1", "--b", "1", "--M", "1"]),
    ])
    def test_entry_point_export_is_the_golden_file(self, tmp_path, golden, options):
        # End to end, in a process of its own: the exported file's bytes.
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", ENTRY_POINT, "lp", *options, "--export", "p.lp"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, capture_output=True,
            text=True, timeout=120, check=False)
        assert (done.returncode, done.stderr) == (0, "")
        assert (tmp_path / "p.lp").read_bytes() == (GOLDEN / f"{golden}.txt").read_bytes()

    def test_certificates_and_export(self, capsys, tmp_path):
        lp_path = tmp_path / "program.lp"
        code, out, _ = run(capsys, ["lp", "--K", "2", "--a", "1", "--b", "1",
                                    "--M", "1", "--certificates",
                                    "--export", str(lp_path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["certificates"]["high_m"]["ok"] is True
        assert doc["certificates"]["large_b"]["ok"] is False
        text = lp_path.read_text()
        assert text.startswith("min R\n")

    @pytest.mark.parametrize("instance", [
        ["--K", "3", "--a", "2", "--b", "1", "--M", "3"],
        ["--K", "4", "--a", "1", "--b", "2", "--M", "2"],
        ["--K", "5", "--a", "3", "--b", "1", "--M", "4", "--family", "high_m"],
    ])
    def test_counted_certificates_print_the_row_built_bytes(self, capsys, monkeypatch, instance):
        argv = ["lp", *instance, "--certificates"]
        got = run(capsys, argv)
        monkeypatch.setattr(cv, "_block_counts", row_built_counts)
        assert run(capsys, argv) == got
        assert got[0] == 0 and got[2] == ""

    def test_full_family_at_k6(self, capsys):
        code, out, err = run(capsys, ["lp", "--K", "6", "--a", "1", "--b", "1", "--M", "2"])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["rows"] == 231840
        assert (doc["lp_optimum"], doc["matches_rstar_u"]) == ("2", True)
        # the corners and a+b: one collapse, solved at each M
        code, out, err = run(capsys, ["tradeoff", "--K", "6", "--a", "1", "--b", "1", "--lp",
                                      "--m-grid", "0,2,3"])
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [(r[0], r[2], r[-1]) for r in rows] == [("0", "6", "6"), ("2", "2", "2"),
                                                        ("3", "0", "0")]

    def test_orders_past_the_budget_exit_3(self, capsys, monkeypatch):
        def no_template(*_args):
            raise AssertionError("an order template was built")

        monkeypatch.setattr(cv, "_order_masks", no_template)  # 12! templates would not fit
        code, out, err = run(capsys, ["lp", "--K", "12", "--a", "6", "--b", "1", "--M", "1",
                                      "--certificates"])
        assert (code, out) == (3, "")
        assert err == "budget exceeded: 12! decoding orders exceed the row budget 1000000\n"

    def test_selected_family_past_the_budget_exit_3(self, capsys, monkeypatch):
        def no_block(*_args):
            raise AssertionError("a block was built")

        argv = ["lp", "--a", "4", "--b", "1", "--M", "1", "--family", "high_m"]
        with monkeypatch.context() as patch:
            patch.setattr(cv, "_order_masks", no_block)  # 2K a^(K-1) b = 1,179,648 rows
            code, out, err = run(capsys, [*argv, "--K", "9"])
        assert (code, out) == (3, "")
        assert err == "budget exceeded: 1179648 genie rows exceed budget 1000000\n"
        code, out, err = run(capsys, [*argv, "--K", "8"])
        assert (code, err) == (0, "")
        assert json.loads(out)["rows"] == 262144

    @pytest.mark.parametrize("K, a, b, n_vars", [(20, 1, 1, "40 * 2^20"),
                                                 (10000, 0, 3, "30000 * 2^10000")])
    def test_variables_past_the_budget_exit_3(self, capsys, monkeypatch, K, a, b, n_vars):
        def no_work(*_args):
            raise AssertionError("a demand structure or a family was built")

        monkeypatch.setattr(cli, "build_demand_structure", no_work)
        monkeypatch.setattr(cv, "_order_masks", no_work)
        family = "large_b" if a == 0 else "low_m"
        argv = ["lp", "--K", str(K), "--a", str(a), "--b", str(b), "--M", "1", "--family", family]
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err == f"budget exceeded: {n_vars} LP variables exceed the variable budget 2097152\n"
        code, out, err = run(capsys, [*argv, "--L", "2"])  # the usage error still comes first
        assert (code, out) == (2, "")
        assert err == "error: the LP converse models L = 1 only; got L=2\n"

    @pytest.mark.parametrize("argv, message", [
        (["--K", "7", "--family", "high_m"], "4248720 genie rows exceed budget 1000000"),
        (["--K", "9"], "2096720640 genie rows exceed budget 1000000"),
    ])
    def test_sum_all_keeps_the_full_familys_refusal(self, capsys, argv, message):
        code, out, err = run(capsys, ["lp", *argv, "--a", "1", "--b", "1", "--M", "1",
                                      "--sum-all"])
        assert (code, out, err) == (3, "", f"budget exceeded: {message}\n")

    def test_selected_family_flag(self, capsys):
        code, out, _ = run(capsys, ["lp", "--K", "3", "--a", "2", "--b", "1",
                                    "--M", "5", "--family", "high_m"])
        assert code == 0
        assert json.loads(out)["lp_optimum"] == "0"


@pytest.mark.parametrize("argv", [
    ["lp", "--K", "5", "--a", "3", "--b", "1", "--family", "high_m", "--certificates"],
    ["lp", "--K", "5", "--a", "3", "--b", "1", "--family", "low_m", "--memory-mode", "per_node"],
    ["tradeoff", "--K", "4", "--a", "1", "--b", "2", "--lp"],
])
def test_solves_list_no_raw_row(capsys, monkeypatch, argv):
    """The orbit rows come from pattern-reduced blocks, and witnesses are
    checked block by block, so no family is listed and no row deduplicated."""
    want = run(capsys, argv)

    def no_listing(*_args):
        raise AssertionError("raw rows were listed")

    monkeypatch.setattr(cv.Family, "__iter__", no_listing)
    assert run(capsys, argv) == want
    assert want[0] == 0


class TestGap:
    def test_odd_instance(self, capsys):
        code, out, _ = run(capsys, ["gap", "--K", "3", "--a", "2", "--b", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["ratio"] == "3" and doc["bound"] == 3 and doc["pass"] is True

    def test_l_flag_is_usage_error(self, capsys):
        # the gap is that of the L = 1 curves, so an L would only relabel it
        with pytest.raises(SystemExit) as exc:
            cli.main(["gap", "--K", "3", "--a", "1", "--b", "1", "--L", "3"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --L 3\n")

    @pytest.mark.parametrize("value", [3, 1])
    def test_config_l_is_usage_error(self, capsys, tmp_path, value):
        cfg = tmp_path / "instance.json"
        cfg.write_text(json.dumps({"K": 3, "a": 1, "b": 1, "L": value}))
        code, out, err = run(capsys, ["gap", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err == "error: --config field L is not used by gap\n"


class TestVerify:
    def test_single_instance_battery(self, capsys):
        code, out, _ = run(capsys, ["verify", "--K", "2", "--a", "1", "--b", "1",
                                    "--trials", "3"])
        assert code == 0
        lines = [ln for ln in out.strip().split("\n") if ln.startswith("[criterion")]
        assert len(lines) == 8
        assert all("PASS" in ln for ln in lines)

    def test_json_summary(self, capsys, tmp_path):
        path = tmp_path / "summary.json"
        code, _, _ = run(capsys, ["verify", "--K", "2", "--a", "0", "--b", "1",
                                  "--trials", "2", "--json", str(path)])
        assert code == 0
        doc = json.loads(path.read_text())
        assert [entry["criterion"] for entry in doc] == list(range(1, 9))

    def test_config_instance_runs_one_instance(self, capsys, tmp_path):
        cfg = tmp_path / "k2a1b1.json"
        cfg.write_text(json.dumps({"K": 2, "a": 1, "b": 1}))
        code, out, err = run(capsys, ["verify", "--config", str(cfg), "--trials", "1"])
        assert (code, err) == (0, "")
        assert out.startswith(
            "[criterion 1] PASS - Scheme optimality: worst-case load = R*_u at 21 (instance, M) points\n"
        )
        assert run(capsys, ["verify", *INSTANCE, "--trials", "1"]) == (0, out, "")

    @pytest.mark.parametrize("K,a", [(2, 1), (3, 1), (3, 2), (4, 1)])
    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_b_zero_is_refused_before_any_criterion(self, capsys, monkeypatch, tmp_path,
                                                    K, a, source):
        # the high_m certificate of criterion 4 needs b >= 1
        def no_battery(*_args, **_kwargs):
            raise AssertionError("a criterion ran")

        monkeypatch.setattr(acceptance, "run_acceptance", no_battery)
        if source == "flags":
            argv = ["verify", "--K", str(K), "--a", str(a), "--b", "0"]
        else:
            cfg = tmp_path / "instance.json"
            cfg.write_text(json.dumps({"K": K, "a": a, "b": 0}))
            argv = ["verify", "--config", str(cfg)]
        assert run(capsys, [*argv, "--trials", "1"]) == (
            2, "", "error: verify needs b >= 1; got b=0\n")

    @pytest.mark.parametrize("field,value", [("L", 2), ("M", "7"), ("L", 1), ("M", "0")])
    def test_config_with_l_or_m_is_usage_error(self, capsys, tmp_path, field, value):
        # the battery sets L and M itself, as for --L and --M
        cfg = tmp_path / "instance.json"
        cfg.write_text(json.dumps({"K": 2, "a": 1, "b": 1, field: value}))
        code, out, err = run(capsys, ["verify", "--config", str(cfg), "--trials", "1"])
        assert (code, out) == (2, "")
        assert err == f"error: --config field {field} is not used by verify\n"

    def test_battery_text_is_pinned(self, capsys, tmp_path):
        path = tmp_path / "summary.json"
        code, out, err = run(capsys, [*BATTERY_321, "--json", str(path)])
        assert (code, out, err) == (0, BATTERY_321_PASS, "")
        summary = [
            {"criterion": int(number), "name": name, "passed": True, "detail": detail}
            for number, name, detail in BATTERY_LINE.findall(BATTERY_321_PASS)
        ]
        assert path.read_text() == json.dumps(summary, indent=2)
        assert [entry["name"] for entry in summary] == list(CRITERION_NAMES)

    def test_failure_lines_are_pinned(self, capsys, monkeypatch):
        # One wrong closed form and one wrong decoder fail criteria 1, 2, 3, 6 and 7.
        rstar_u, rstar_multiaccess = acceptance.rstar_u, acceptance.rstar_multiaccess
        monkeypatch.setattr(acceptance, "rstar_u", lambda inst: rstar_u(inst) + 1)
        monkeypatch.setattr(acceptance, "rstar_multiaccess",
                            lambda inst: rstar_multiaccess(inst) + 1)
        monkeypatch.setattr(acceptance, "decode", lambda *_args: b"")
        code, out, err = run(capsys, BATTERY_321)
        assert (code, out, err) == (1, BATTERY_321_FAIL, "")


BATTERY_321 = ["verify", "--K", "3", "--a", "2", "--b", "1", "--trials", "2"]
BATTERY_LINE = re.compile(r"\[criterion (\d)\] \w+ - (.+?): (.*)")
CRITERION_NAMES = (
    "Scheme optimality",
    "Running example (3,2,1)",
    "LP converse tightness",
    "Certificate verification",
    "Order-optimality gap",
    "Multiaccess optimality",
    "Bit-exact round-trip",
    "Loose-bound probe",
)
BATTERY_321_PASS = """\
[criterion 1] PASS - Scheme optimality: worst-case load = R*_u at 21 (instance, M) points
[criterion 2] PASS - Running example (3,2,1): R*_u = 5/2 - M/2 on [3,5]; full-family LP optimum = 1 at M=3
[criterion 3] PASS - LP converse tightness: LP optimum = R*_u at all 12 corner points
[criterion 4] PASS - Certificate verification: matching regimes verified, mismatched regimes rejected, full sweep
[criterion 5] PASS - Order-optimality gap: ratio <= 2 (even K) / 3 (odd K); equals 2 resp. 2K/(K-1) at M=0
[criterion 6] PASS - Multiaccess optimality: zero load at M=a+b for all demands and L; load grid matches K-KM/(a+b), L-free
[criterion 7] PASS - Bit-exact round-trip: 2 randomized trials per instance; exhaustive demand sweeps for K<=3
[criterion 8] PASS - Loose-bound probe: sum_all_bound = 54/95 (reference 54/95 = 54/95), LP optimum = 1
"""
BATTERY_321_FAIL = """\
[criterion 1] FAIL - Scheme optimality: (K,a,b,M)=(3,2,1,0): load 3 != 4
[criterion 2] FAIL - Running example (3,2,1): R*_u(3) = 2 != 1
[criterion 3] FAIL - LP converse tightness: (K,a,b,M)=(2,1,1,0): LP 2 != 3
[criterion 4] PASS - Certificate verification: matching regimes verified, mismatched regimes rejected, full sweep
[criterion 5] PASS - Order-optimality gap: ratio <= 2 (even K) / 3 (odd K); equals 2 resp. 2K/(K-1) at M=0
[criterion 6] FAIL - Multiaccess optimality: (3,2,1,M=0): load 3 want 4
[criterion 7] FAIL - Bit-exact round-trip: (3,2,1,L=1,M=17/5): user 1 decoded wrong bytes for d=(3, 5, 2)
[criterion 8] PASS - Loose-bound probe: sum_all_bound = 54/95 (reference 54/95 = 54/95), LP optimum = 1
"""


class TestConfig:
    def test_config_document_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "instance.json"
        cfg.write_text(json.dumps({"K": 3, "a": 2, "b": 1, "M": "0"}))
        code, out, _ = run(capsys, ["simulate", "--config", str(cfg), "--M", "3",
                                    "--demand", "1,6,7"])
        assert code == 0
        assert json.loads(out)["instance"]["M"] == "3"

    def test_missing_parameters_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["gap", "--K", "3"])
        assert code == 2
        assert "missing" in err

    @pytest.mark.parametrize("command", [["gap"], ["simulate", "--M", "3"], ["verify"]])
    @pytest.mark.parametrize("field,value", [
        ("K", 3.7), ("b", 1.9), ("a", 2.0), ("L", 1.5), ("K", True), ("L", False), ("a", "2.5"),
    ])
    def test_non_integer_field_is_usage_error(self, capsys, tmp_path, command, field, value):
        cfg = tmp_path / "instance.json"
        cfg.write_text(json.dumps({"K": 3, "a": 2, "b": 1, field: value}))
        code, out, err = run(capsys, [*command, "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err == f"error: {field} must be an integer, got {value!r}\n"

    @pytest.mark.parametrize("command", [["tradeoff", "--m-grid", "0,1"], ["gap"]])
    @pytest.mark.parametrize("value", ["99", "1"])
    def test_config_m_is_usage_error_where_unused(self, capsys, tmp_path, command, value):
        # tradeoff takes its memories from the grid, gap from [0, 2a+b]
        cfg = tmp_path / "instance.json"
        cfg.write_text(json.dumps({"K": 3, "a": 2, "b": 1, "M": value}))
        code, out, err = run(capsys, [*command, "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err == f"error: --config field M is not used by {command[0]}\n"


SMALL = ["--K", "3", "--a", "2", "--b", "1"]
# Every subcommand bare and with its optional flags, with argparse
# rejections and --help requests between them.
PARSE_SEQUENCE = [
    ["tradeoff", *SMALL],
    ["tradeoff", *SMALL, "--config", "c.json", "--L", "2", "--m-grid", "0,1/2,5", "--lp",
     "--memory-mode", "per_node", "--format", "json", "--decimal", "3", "--out", "t.csv"],
    ["tradeoff", *SMALL, "--m-min", "1", "--m-max", "9/2", "--m-steps", "4"],
    ["tradeoff", *SMALL, "--m-grid", "0,x"],
    ["tradeoff", *SMALL],
    ["simulate", *SMALL, "--M", "3"],
    ["simulate", *SMALL, "--L", "2", "--M", "5/2", "--demand", "1,6,7", "--seed", "4",
     "--file-size", "12", "--dump", "d.bin", "--out", "s.json"],
    ["simulate", *SMALL, "--demand", "1,x"],
    ["simulate", *SMALL],
    ["lp", *SMALL, "--M", "3"],
    ["lp", *SMALL, "--M", "3", "--family", "high_m", "--memory-mode", "per_node",
     "--certificates", "--sum-all", "--export", "lp.txt", "--out", "lp.json"],
    ["lp", *SMALL, "--family", "bogus"],
    ["lp", *SMALL],
    ["gap", *SMALL, "--out", "g.json"],
    ["gap", *SMALL, "--M", "1"],
    ["gap", *SMALL],
    ["verify", *SMALL, "--trials", "3", "--json", "v.json"],
    ["verify", "--trials", "-1"],
    ["verify"],
    [],
    ["tradeoff", *SMALL, "--decimal", "2"],
    ["--help"],
    *([command, "--help"] for command in ("tradeoff", "simulate", "lp", "gap", "verify")),
    ["gap", *SMALL],
]


def _parsed(capsys, parser, argv):
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:  # a rejection (2) or a --help request (0)
        result = exc.code
    return result, capsys.readouterr()


def test_reused_parser_parses_like_a_fresh_one(capsys):
    """parse_args keeps no state on the parser: after every step of the
    sequence the shared parser's namespace, exit code and printed text
    equal those of a parser built afresh for that step."""
    shared = cli.build_parser()
    assert cli.build_parser() is shared
    exits = []
    for argv in PARSE_SEQUENCE:
        got = _parsed(capsys, shared, argv)
        assert got == _parsed(capsys, cli.build_parser.__wrapped__(), argv), argv
        exits += [got[0]] if isinstance(got[0], int) else []
    assert exits.count(2) == exits.count(0) == 6  # every rejection and --help ran


def _outcome(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", [
    ["tradeoff", *SMALL, "--m-steps", "3", "--lp"],
    ["simulate", *SMALL, "--M", "3", "--file-size", "12"],
    ["lp", *SMALL, "--M", "3", "--certificates"],
    ["gap", *SMALL],
    ["gap", *SMALL, "--L", "2"],
    ["lp", *SMALL, "--family", "bogus"],
    ["lp", "--help"],
])
def test_second_main_call_prints_what_the_first_printed(capsys, argv):
    cli.build_parser.cache_clear()  # so the first call builds the parser
    first = _outcome(capsys, argv)
    assert _outcome(capsys, argv) == first


INSTANCE = ["--K", "2", "--a", "1", "--b", "1"]
UNWRITABLE = "{tmp}/no-such-dir/file"
UNWRITABLE_CASES = [
    ["gap", *INSTANCE, "--out", UNWRITABLE],
    ["tradeoff", *INSTANCE, "--m-grid", "0,1", "--out", UNWRITABLE],
    ["simulate", *INSTANCE, "--M", "1", "--dump", UNWRITABLE],
    ["simulate", *INSTANCE, "--M", "1", "--out", UNWRITABLE],
    ["lp", *INSTANCE, "--M", "1", "--export", UNWRITABLE],
    ["verify", *INSTANCE, "--trials", "1", "--json", UNWRITABLE],
]


REFUSED_BEFORE_THE_WORK = [
    ["lp", "--K", "3", "--a", "1", "--b", "1", "--L", "2", "--M", "1"],
    ["tradeoff", "--K", "3", "--a", "1", "--b", "1", "--L", "2", "--lp", "--m-grid", "0,1,2"],
    ["tradeoff", *INSTANCE, "--m-grid", "0,1", "--decimal", "-1"],
    ["tradeoff", *INSTANCE, "--m-grid", "1/3", "--decimal", str(cli.DECIMAL_LIMIT + 1)],
    ["tradeoff", *INSTANCE, "--m-grid", "1/3", "--decimal", "100000"],
    ["gap", *INSTANCE, "--L", "3"],
]


@pytest.mark.parametrize(
    "argv",
    [
        ["gap", "--config", "{tmp}/missing.json"],
        ["gap", "--config", "{tmp}/list.json"],
        *UNWRITABLE_CASES,
        ["tradeoff", *INSTANCE, "--m-grid", "1/0"],
        ["simulate", *INSTANCE, "--M", "1", "--file-size", "-6"],
        ["simulate", *INSTANCE, "--M", "1", "--file-size", "0"],
        ["verify", *INSTANCE, "--trials", "-5"],
        ["verify", *INSTANCE, "--L", "2", "--trials", "1"],  # the battery sets L and M itself
        ["verify", *INSTANCE, "--M", "7", "--trials", "1"],
        ["verify", *INSTANCE, "--L", "2", "--M", "7", "--trials", "1"],
        *REFUSED_BEFORE_THE_WORK,
        *([command, "--config", "{tmp}/zero_m.json"]
          for command in ("lp", "simulate", "tradeoff", "gap", "verify")),
    ],
)
def test_bad_input_is_usage_error_without_traceback(capsys, tmp_path, argv):
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "zero_m.json").write_text('{"K": 3, "a": 2, "b": 1, "M": "1/0"}')
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a malformed flag value
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", UNWRITABLE_CASES)
def test_unwritable_output_fails_before_the_work(capsys, monkeypatch, tmp_path, argv):
    def no_work(*_args, **_kwargs):
        raise AssertionError("the command started its work")

    monkeypatch.setattr(cli, "_load_instance", no_work)
    code = cli.main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", REFUSED_BEFORE_THE_WORK)
def test_refusal_comes_before_any_family_or_grid_point(capsys, monkeypatch, argv):
    def no_work(*_args, **_kwargs):
        raise AssertionError("the command started its work")

    for name in ("full_family", "selected_family"):
        monkeypatch.setattr(cli.cv, name, no_work)
    monkeypatch.setattr(cli, "worst_case_load", no_work)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a malformed flag value
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error:" in err


def readme_cli_lines() -> list:
    """The `ringcache` command lines of the README's CLI block, the bare
    `verify` sweep left out."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines()
            if line.startswith("ringcache ") and line != "ringcache verify"]


def test_the_readme_lists_nine_cli_lines_past_the_sweep():
    assert len(readme_cli_lines()) == 9


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_line_exits_0(capsys, monkeypatch, tmp_path, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "instance.json").write_text('{"K": 2, "a": 1, "b": 1}', encoding="utf-8")
    code, _, err = run(capsys, shlex.split(line)[1:])
    assert (code, err) == (0, "")
