import csv
import hashlib
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time
from itertools import chain
from pathlib import Path

import pytest

from mary import cli, congruence, series
from mary.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CONFIG,
    EXIT_MISMATCH,
    EXIT_OK,
    GRID_MODULI,
    MAX_TERMS,
    MISMATCH_FIELDS,
    MISMATCH_RECORD_LIMIT,
    RESIDUE_SWEEP_LIMIT,
    _verify_cell,
    build_parser,
    configure,
    default_grid,
    grid_colour_specs,
    main,
    run_verification,
)
from mary import check_hypothesis
from mary.congruence import expand_b_product, expand_c_product
from mary.counting import PartitionProblem, count_b_series, count_c_series
from mary.series import ModSeries


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """os.environ with this checkout's src first on PYTHONPATH, for `python -m mary` children."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def expand_in_a_child(m, variant):
    """`mary expand --N 10` as JSON records, in a child process, so that a
    hang fails at the timeout instead of stalling the suite."""
    done = subprocess.run(
        [sys.executable, "-m", "mary", "expand", "--m", m, "--k", "1", "--variant", variant,
         "--N", "10", "--format", "json"],
        env=child_env(), capture_output=True, text=True, timeout=2,
    )
    assert done.returncode == EXIT_OK
    return json.loads(done.stdout)


class TestCount:
    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "count", "--m", "3", "--k", "2,1", "--variant", "b",
                           "--range", "0..4")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].split() == ["n", "count", "mod"]
        assert lines[-1].split() == ["4", "7", "1"]

    def test_json_records(self, capsys):
        code, out, _ = run(capsys, "count", "--m", "3", "--k", "2,1", "--variant", "b",
                           "--n", "4", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out) == [{"n": 4, "count": "7", "mod": 1}]

    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "count", "--m", "2", "--k", "1", "--variant", "c",
                           "--range", "5..6", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,count,mod"
        assert lines[1:] == ["5,3,1", "6,3,1"]

    def test_counts_are_decimal_strings_at_scale(self, capsys):
        code, out, _ = run(capsys, "count", "--m", "2", "--k", "6", "--variant", "b",
                           "--n", "800", "--format", "json")
        assert code == EXIT_OK
        record = json.loads(out)[0]
        assert record["count"].isdigit()
        assert int(record["count"]) % 2 == record["mod"]
        assert len(record["count"]) > 30

    def test_enum_agrees_with_series(self, capsys):
        _, series_out, _ = run(capsys, "count", "--m", "3", "--k", "2,1", "--variant", "c",
                               "--range", "0..25", "--format", "json")
        _, enum_out, _ = run(capsys, "count", "--m", "3", "--k", "2,1", "--variant", "c",
                             "--range", "0..25", "--enum", "--format", "json")
        assert json.loads(series_out) == json.loads(enum_out)

    def test_enum_cap_is_a_config_error(self, capsys):
        code, _, err = run(capsys, "count", "--m", "2", "--k", "1", "--variant", "b",
                           "--n", "301", "--enum")
        assert code == EXIT_CONFIG
        assert "cap" in err

    def test_one_row_text_table(self, capsys):
        code, out, _ = run(capsys, "count", "--m", "2", "--k", "1", "--variant", "b", "--n", "5")
        assert code == 0
        assert out == "n  count  mod\n5  4      0\n"

    @pytest.mark.parametrize("command", ["count", "residue"])
    def test_one_row_range(self, capsys, command):
        code, out, _ = run(capsys, command, "--m", "3", "--k", "2,1", "--variant", "b",
                           "--range", "7..7", "--format", "json")
        assert code == 0
        assert [record["n"] for record in json.loads(out)] == [7]

    @pytest.mark.parametrize("variant", ["b", "c"])
    def test_enum_range_ending_at_the_cap(self, capsys, variant):
        argv = ("count", "--m", "3", "--k", "1", "--variant", variant, "--range", "299..300",
                "--format", "csv")
        code, out, _ = run(capsys, *argv, "--enum")
        assert code == 0
        assert out == run(capsys, *argv)[1]
        assert len(out.splitlines()) == 3

    def test_gapfree_zero_is_zero(self, capsys):
        for extra in ((), ("--enum",)):
            code, out, _ = run(capsys, "count", "--m", "3", "--k", "1", "--variant", "c",
                               "--n", "0", "--format", "json", *extra)
            assert code == EXIT_OK
            assert json.loads(out) == [{"n": 0, "count": "0", "mod": 0}]


class TestResidue:
    def test_unrestricted_record(self, capsys):
        code, out, _ = run(capsys, "residue", "--m", "3", "--k", "2,1", "--variant", "b",
                           "--n", "4", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out) == [{"n": 4, "digits": "1,1", "residue": 1, "note": ""}]

    def test_gapfree_reports_lifted_digits(self, capsys):
        code, out, _ = run(capsys, "residue", "--m", "3", "--k", "1", "--variant", "c",
                           "--n", "4", "--format", "json")
        assert code == EXIT_OK
        # the query lifts to n = 6 with digits 0, 2
        assert json.loads(out) == [{"n": 4, "digits": "0,2", "residue": 2, "note": ""}]

    def test_hypothesis_failure_skips_with_witness(self, capsys):
        code, out, _ = run(capsys, "residue", "--m", "2", "--k", "3", "--variant", "b",
                           "--range", "0..3", "--format", "json")
        assert code == EXIT_OK
        records = json.loads(out)
        assert all(r["note"].startswith("skipped") for r in records)
        assert all("prime 2" in r["note"] for r in records)

    def test_huge_prime_base_answers_at_once(self, capsys):
        code, out, _ = run(capsys, "residue", "--m", "1000000000000000003", "--k", "1",
                           "--variant", "b", "--n", "5", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out) == [{"n": 5, "digits": "5", "residue": 1, "note": ""}]

    def test_gapfree_zero_is_a_domain_note(self, capsys):
        code, out, _ = run(capsys, "residue", "--m", "3", "--k", "1", "--variant", "c",
                           "--range", "0..1", "--format", "json")
        assert code == EXIT_OK
        records = json.loads(out)
        assert records[0]["note"] == "undefined for n = 0"
        assert records[1]["residue"] == 1


class TestExpand:
    def test_all_match_exits_zero(self, capsys):
        code, out, _ = run(capsys, "expand", "--m", "3", "--k", "1", "--variant", "b",
                           "--N", "27", "--format", "json")
        assert code == EXIT_OK
        records = json.loads(out)
        assert len(records) == 28
        assert all(r["match"] for r in records)
        assert all(r["lhs"] == r["rhs"] for r in records)

    def test_gapfree_constant_term(self, capsys):
        code, out, _ = run(capsys, "expand", "--m", "3", "--k", "2,1", "--variant", "c",
                           "--N", "9", "--format", "json")
        assert code == EXIT_OK
        first = json.loads(out)[0]
        assert first == {"exponent": 0, "lhs": 1, "rhs": 1, "match": True}

    def test_default_truncation_is_fourth_power(self, capsys):
        code, out, _ = run(capsys, "expand", "--m", "2", "--k", "1", "--format", "json")
        assert code == EXIT_OK
        assert len(json.loads(out)) == 17

    @pytest.mark.parametrize("m", ["1000000000000000003", "100000007"])
    def test_gapfree_at_a_huge_base_answers_at_once(self, m):
        records = expand_in_a_child(m, "c")
        assert len(records) == 11
        assert all(r["match"] is True for r in records)

    def test_unrestricted_at_a_huge_base_answers_at_once(self):
        # the position-0 row stops at the truncation, not at m entries
        records = expand_in_a_child("1000000000000000003", "b")
        assert [r["rhs"] for r in records] == [1] * 11
        assert all(r["match"] is True for r in records)

    def test_hypothesis_failure_is_config_error(self, capsys):
        code, _, err = run(capsys, "expand", "--m", "2", "--k", "3", "--N", "8")
        assert code == EXIT_CONFIG
        assert "prime 2" in err

    @pytest.mark.parametrize("variant", ["b", "c"])
    def test_hypothesis_is_checked_before_the_product(self, capsys, monkeypatch, variant):
        # the exact side of a huge --N takes seconds; a refused problem must not build it
        calls = []
        for name in ("expand_b_product", "expand_c_product"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
        code, out, err = run(capsys, "expand", "--m", "2", "--k", "3", "--variant", variant,
                             "--N", "10")
        assert (code, out) == (EXIT_CONFIG, "")
        assert "coprimality hypothesis fails for modulus 2" in err
        assert calls == []


class TestVerify:
    def test_restricted_grid_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "3", "--N", "50", "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["totals"]["mismatched"] == 0
        assert report["totals"]["checked"] > 0
        assert report["totals"]["checked"] == report["totals"]["matched"]
        assert report["mismatches"] == []

    def test_single_point(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "5", "--k", "2,3;1", "--N", "60",
                           "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["grid"]["points"] == 1
        assert report["totals"]["mismatched"] == 0

    def test_hypothesis_failing_point_yields_empty_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "2", "--k", "3", "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["grid"]["points"] == 0
        assert report["totals"]["checked"] == 0
        assert report["totals"]["skipped_hypothesis"] == 1

    def test_probe_mode_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "9", "--probe", "--N", "20",
                           "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["grid"]["probe"] is True
        assert report["totals"]["checked"] > 0

    def test_json_output_is_the_report(self, capsys):
        argv = ["verify", "--m", "9", "--probe", "--N", "60", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        report = run_verification(configure(build_parser().parse_args(argv)))
        assert report["mismatches"]
        assert json.loads(out) == report

    def test_text_summary(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "3", "--N", "30")
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "result: PASS"

    def test_wall_time_stays_off_stdout(self, capsys):
        _, out, err = run(capsys, "verify", "--m", "3", "--N", "30")
        assert "completed" in err
        assert "completed" not in out

    def test_output_identical_across_worker_counts(self, capsys):
        _, serial, _ = run(capsys, "verify", "--m", "3", "--N", "40", "--format", "json",
                           "--jobs", "1")
        _, parallel, _ = run(capsys, "verify", "--m", "3", "--N", "40", "--format", "json",
                             "--jobs", "3")
        assert serial == parallel

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_nonpositive_jobs_is_a_config_error(self, capsys, jobs):
        code, out, err = run(capsys, "verify", "--m", "3", "--N", "30", "--jobs", jobs)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == f"error: --jobs must be positive, got {jobs}\n"

    # one task per (point, variant)
    @pytest.mark.parametrize("jobs, points, workers",
                             [(2, 0, None), (2, 1, 2), (4, 1, 2), (4, 14, 4), (64, 14, 28)])
    def test_pool_starts_no_more_workers_than_tasks(self, capsys, monkeypatch, jobs, points,
                                                     workers):
        import concurrent.futures

        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        spec = {0: ("--m", "2", "--k", "3"), 1: ("--m", "5", "--k", "2,3;1"), 14: ("--m", "5")}
        code, out, _ = run(capsys, "verify", *spec[points], "--N", "30",
                           "--format", "json", "--jobs", str(jobs))
        assert code == EXIT_OK
        assert json.loads(out)["grid"]["points"] == points
        # no task, no pool
        assert started == ([] if workers is None else [workers])

    @pytest.mark.parametrize("argv", [("--N", "30"), ("--m", "9", "--probe", "--N", "300"),
                                      ("--m", "5", "--k", "2,3;1")])
    def test_pool_maps_the_tasks_in_order_one_chunk_per_worker(self, capsys, monkeypatch,
                                                               argv):
        import concurrent.futures

        sent = []

        class RecordingPool:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                tasks = list(tasks)
                sent.append((fn, tasks, self.max_workers, chunksize))
                return map(fn, tasks)

        serial_tasks = []
        cell = cli._verify_cell

        def recorded(task):
            serial_tasks.append(task)
            return cell(task)

        monkeypatch.setattr(cli, "_verify_cell", recorded)
        serial = run(capsys, "verify", *argv, "--format", "json", "--jobs", "1")
        monkeypatch.setattr(cli, "_verify_cell", cell)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        for jobs in (2, 3, 64):
            sent.clear()
            pooled = run(capsys, "verify", *argv, "--format", "json", "--jobs", str(jobs))
            assert pooled[:2] == serial[:2]

            (fn, tasks, workers, chunksize), = sent
            assert fn is cell
            assert tasks == serial_tasks
            assert workers == min(jobs, len(tasks))
            assert chunksize == math.ceil(len(tasks) / workers)

    # the report must not show the order in which the pool's checks arrive
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("argv", [("--N", "30"), ("--m", "9", "--probe", "--N", "300"),
                                      ("--m", "2", "--k", "3", "--probe", "--N", "300")])
    def test_report_does_not_depend_on_check_order(self, capsys, monkeypatch, argv, fmt):
        import concurrent.futures

        class ReversingPool:
            """Runs the tasks last first."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return [fn(task) for task in reversed(tasks)]

        serial = run(capsys, "verify", *argv, "--format", fmt, "--jobs", "1")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ReversingPool)
        for jobs in ("2", "3"):
            assert run(capsys, "verify", *argv, "--format", fmt, "--jobs", jobs)[:2] == serial[:2]

    def test_tasks_of_a_point_share_its_problem(self, monkeypatch):
        # the c task reads the digit table that the b task left on their
        # shared problem: no record is compared field by field, and each
        # point's table costs one witness call, where a problem per task
        # would cost two
        compares = []
        witnesses = []
        record_eq = series._Record.__eq__
        witness = congruence.coprimality_witness

        def counted(self, other):
            compares.append(type(self).__name__)
            return record_eq(self, other)

        def counted_witness(modulus, bound):
            witnesses.append(bound)
            return witness(modulus, bound)

        monkeypatch.setattr(series._Record, "__eq__", counted)
        monkeypatch.setattr(congruence, "coprimality_witness", counted_witness)
        report = run_verification(configure(
            build_parser().parse_args(["verify", "--m", "3", "--N", "30"])))
        calls = len(witnesses)
        assert report["totals"]["checked"] > 0
        assert compares == []
        points = default_grid((3,))
        assert report["grid"]["points"] == len(points) == 14
        assert calls == len(points) == 14

    @pytest.mark.parametrize("argv", [("--m", "5"), ("--m", "9", "--probe", "--N", "300")])
    def test_report_equal_at_one_two_and_three_workers(self, argv):
        ns = build_parser().parse_args(["verify", *argv])
        reports = []
        for jobs in (1, 2, 3):
            ns.jobs = jobs
            reports.append(run_verification(configure(ns)))
        assert reports[0]["totals"]["checked"] > 0
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]

    def test_zero_sweep_bound_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "3", "--N", "0")
        assert code == 0
        assert out.endswith("result: PASS\n")

    def test_csv_is_header_only_on_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "3", "--N", "30", "--format", "csv")
        assert code == EXIT_OK
        assert out.strip() == "check,m,k,n,oracle,formula"

    # the patch reaches a worker only if the worker is forked from this process
    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers are not forked")
    def test_coprimality_error_in_a_worker_reads_as_in_process(self, capsys, monkeypatch):
        def refuse(prob, limit, *, enforce_hypothesis=True):
            raise series.CoprimalityError("refused", prime=3, modulus=prob.m, index=1)

        monkeypatch.setattr(cli, "residues_b", refuse)
        results = [run(capsys, "verify", "--m", "3", "--N", "30", "--jobs", jobs)
                   for jobs in ("1", "2")]
        assert results[0] == results[1] == (EXIT_CONFIG, "", "error: refused\n")


class TestGrid:
    def test_default_grid_is_large_enough(self):
        grid = default_grid()
        assert len(grid) >= 50
        assert {p.m for p in grid} == set(GRID_MODULI)

    def test_every_point_passes_the_hypothesis(self):
        for prob in default_grid():
            assert check_hypothesis(prob, len(prob.colours.explicit) + 1)

    def test_failing_grid_points_fail(self):
        for prob in default_grid(failing=True):
            assert not check_hypothesis(prob, len(prob.colours.explicit) + 1)

    def test_grid_is_deterministic(self):
        first = [(p.m, p.colours) for p in default_grid()]
        second = [(p.m, p.colours) for p in default_grid()]
        assert first == second

    @pytest.mark.parametrize("failing, size, digest", [
        (False, 54, "e2ea1ace17ae18a0"),
        (True, 40, "36ddd65f40c46130"),
    ])
    def test_grids_are_pinned(self, failing, size, digest):
        grid = default_grid(failing=failing)
        text = "\n".join(f"{p.m}:{p.colours}" for p in grid)
        assert len(grid) == size
        assert hashlib.sha256(text.encode()).hexdigest().startswith(digest)

    # past the five default moduli, so every candidate rule is exercised
    @pytest.mark.parametrize("failing, size, digest", [
        (False, 240, "7aae9f711ca858a58f61b0a34ffeb50233f7cfce7bb2e2d8aee91ddbfa80afb0"),
        (True, 290, "fde86cabffba5cd148eeafee0f9e685134b1b93990dd5bd4e3f757b9dcc7d766"),
    ])
    def test_grids_for_moduli_2_to_39_are_pinned(self, failing, size, digest):
        grid = default_grid(range(2, 40), failing=failing)
        text = "\n".join(f"{p.m}:{p.colours}" for p in grid)
        assert len(grid) == size
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_no_duplicate_points(self):
        grid = [(p.m, p.colours) for p in default_grid()]
        assert len(grid) == len(set(grid))

    def test_boundary_specs_present(self):
        for m in GRID_MODULI:
            specs = grid_colour_specs(m, 10)
            assert any(s.explicit == (1,) and s.tail == 1 for s in specs)

    def test_run_verification_report_shape(self):
        cfg = configure(build_parser().parse_args(["verify", "--m", "3", "--N", "30"]))
        report = run_verification(cfg)
        totals = report["totals"]
        assert totals["checked"] == totals["matched"] + totals["mismatched"]
        assert totals["mismatched"] == 0
        assert report["grid"]["residue_limit"] == 30

    def test_probe_mismatch_records_are_sorted(self):
        cfg = configure(build_parser().parse_args(["verify", "--m", "9", "--N", "60", "--probe"]))
        mismatches = run_verification(cfg)["mismatches"]
        assert mismatches
        keys = [(r["m"], r["k"], r["n"], r["check"]) for r in mismatches]
        assert keys == sorted(keys)

    def test_probe_records_sort_by_modulus_before_spec(self, monkeypatch):
        # over every probe modulus some spec texts of m = 5 sort before those
        # of m = 2, so the capped head tells (m, k) order from (k, m) order
        cfg = configure(build_parser().parse_args(["verify", "--N", "2", "--probe"]))
        head = run_verification(cfg)["mismatches"]
        monkeypatch.setattr(cli, "MISMATCH_RECORD_LIMIT", 10**9)
        every = run_verification(cfg)["mismatches"]
        every.sort(key=lambda r: (r["m"], r["k"], r["n"], r["check"]))
        assert len(every) > MISMATCH_RECORD_LIMIT
        assert head == every[:MISMATCH_RECORD_LIMIT]

    @pytest.mark.parametrize("failing", [False, True])
    def test_shared_oracle_slices_equal_the_separate_oracles(self, monkeypatch, failing):
        # each check's slice of the cell's one reduced series, against the
        # oracle the check would build on its own: with the formulas replaced
        # by the separate oracles, every check matches in full
        def corollary_of(count_series):
            return lambda prob, limit, enforce_hypothesis: [
                c % prob.m for c in count_series(prob, limit).coeffs]

        def theorem_of(expand_product):
            return lambda prob, degree, enforce_hypothesis: expand_product(prob, degree)

        monkeypatch.setattr(cli, "residues_b", corollary_of(count_b_series))
        monkeypatch.setattr(cli, "residues_c", corollary_of(count_c_series))
        monkeypatch.setattr(cli, "expand_b_theorem", theorem_of(expand_b_product))
        monkeypatch.setattr(cli, "expand_c_theorem", theorem_of(expand_c_product))
        for prob in default_grid(failing=failing):
            for variant, start in (("b", 0), ("c", 1)):  # the gap-free corollary starts at n = 1
                corollary, theorem = _verify_cell((variant, prob, 200, failing))
                assert corollary == (201 - start, 201 - start, []), (prob, variant)
                assert theorem == (prob.m ** 4 + 1, prob.m ** 4 + 1, []), (prob, variant)

    def test_cells_call_the_module_names_at_call_time(self, monkeypatch):
        # perfbench's tracer times these layers by replacing the names in
        # mary.cli, so each cell must look them up when it runs
        names = ("expand_b_product", "expand_c_product", "expand_b_theorem", "expand_c_theorem")
        calls = dict.fromkeys(names, 0)

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        report = run_verification(configure(
            build_parser().parse_args(["verify", "--m", "3", "--N", "30"])))
        assert report["grid"]["points"] == 14
        assert calls == dict.fromkeys(names, 14)

    @pytest.mark.parametrize("argv, truncation", [
        (["verify"], RESIDUE_SWEEP_LIMIT),
        (["verify", "--N", "30"], 30),
        (["expand", "--m", "3", "--k", "1"], 81),
    ])
    def test_n_default_resolves_per_command(self, argv, truncation):
        assert configure(build_parser().parse_args(argv)).N == truncation

    def test_default_sweep_limit_in_summary(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "3", "--k", "1")
        assert code == EXIT_OK
        assert "residue_limit=2000" in out.splitlines()[0]

    def test_capped_records_are_the_sorted_head(self, monkeypatch):
        cfg = configure(build_parser().parse_args(
            ["verify", "--m", "2", "--k", "3", "--N", "600", "--probe"]))
        report = run_verification(cfg)
        prob = PartitionProblem(2, cfg.colours)
        (_, _, capped), _ = _verify_cell(("c", prob, 600, True))  # corollary, theorem
        assert len(capped) == MISMATCH_RECORD_LIMIT
        monkeypatch.setattr(cli, "MISMATCH_RECORD_LIMIT", 10**9)
        uncapped = []
        for variant in ("b", "c"):
            for _, _, records in _verify_cell((variant, prob, 600, True)):
                uncapped.extend(records)
        # records are tuples in MISMATCH_FIELDS order: check, m, k, n, ...
        uncapped.sort(key=lambda r: (r[1], r[2], r[3], r[0]))
        assert len(uncapped) == report["totals"]["mismatched"] > MISMATCH_RECORD_LIMIT
        assert report["mismatches"] == [dict(zip(MISMATCH_FIELDS, r))
                                         for r in uncapped[:MISMATCH_RECORD_LIMIT]]


class TestGoldenOutput:
    """Byte-exact stdout of the table commands, pinned by sha256."""

    COMMANDS = {
        "count": ("count", "--m", "5", "--k", "2,3;1", "--variant", "c", "--range", "0..150"),
        "expand": ("expand", "--m", "3", "--k", "2,1", "--variant", "c", "--N", "81"),
        # empty cells, skipped points and an empty trailing note column
        "residue": ("residue", "--m", "6", "--k", "1,1,2", "--variant", "c", "--range", "0..40"),
        # text only, past the pins above: n and the exponents cross 999/1000
        # and 9999/10000, and the tables span several EMIT_BLOCK_LINES blocks
        "count-20000": ("count", "--m", "2", "--k", "2;1", "--variant", "b",
                        "--range", "0..20000"),
        "count-990": ("count", "--m", "3", "--k", "2,1", "--variant", "c",
                      "--range", "990..10010"),
        "expand-78125": ("expand", "--m", "5", "--k", "1,4,3,3;4", "--variant", "c",
                         "--N", "78125"),
        "residue-990": ("residue", "--m", "6", "--k", "1,1,2", "--variant", "c",
                        "--range", "990..1010"),
    }

    @pytest.mark.parametrize("command, fmt, digest", [
        ("count", "text", "7252a9bb16a10fd4770aa842b59c5fdfa05f1278542dce2b459e8d22379567b9"),
        ("count", "json", "92150334efb6b894b45151cdbb2e799b5d8c67fed0910386281b56337461cc46"),
        ("count", "csv", "19ce47316a8422d6194490fbacfc3564ccbb417b1e8071ee577ccff06ab5ee5f"),
        ("expand", "text", "e27ae61c352a675a60aa84e62c9719cecdc264fca28f70d851b6f91d8e6df8d8"),
        ("expand", "json", "10787eeeea2442277d4ea8f485a7cb0f3f0f337c002c33ffa6ebd344b83d544b"),
        ("expand", "csv", "80d2828048fde0be26169fe6686090e759041ce77ba26fc58627945f7170f226"),
        ("residue", "text", "bdca18929c918add40aec5f408d56693c7f081ae945ef1aa6fa5177b53a7973d"),
        ("residue", "json", "d2ae6abdf2529413c8fc32b2f0eb34ec3d6cbbed21af2df71212cf2a5c916776"),
        ("residue", "csv", "22e225ad0789b837a4c1eba8d413cb683382ae8a7fb76c6c9ebe5e4166306c44"),
        ("count-20000", "text", "e3543455d7a42153cf9950788b57ee7d08362e0dd7830f584cf8fde5479e2c26"),
        ("count-990", "text", "bb041ec85f86349a4864eb700f56a0d1439bf7fa239379d6b22b307a82ebb13f"),
        ("expand-78125", "text",
         "da4e5e6176d6fb95ff899c02acb480eecc1cbf46ee21d479ef9b5133cf002539"),
        ("residue-990", "text", "9c55d072332e4535ab3a387df14c8af66cab5ac6ab1ee5a3f7ceb29b63190ddd"),
    ])
    def test_stdout_is_pinned(self, capsys, command, fmt, digest):
        code, out, _ = run(capsys, *self.COMMANDS[command], "--format", fmt)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # each probe run prints MISMATCH_RECORD_LIMIT records; m**4 < N at m = 3
    # and m**4 > N at m = 9, so the theorem checks reach past the corollaries
    # in one and stop short of them in the other
    VERIFY = {
        "probe-3": ("verify", "--probe", "--m", "3", "--N", "300"),
        "probe-9": ("verify", "--probe", "--m", "9", "--N", "200"),
        "pass-5": ("verify", "--m", "5", "--N", "300"),
        # equal (m, k, n) records, so the check name breaks the tie
        "probe-2": ("verify", "--probe", "--m", "2", "--k", "3", "--N", "10"),
    }

    @pytest.mark.parametrize("command, fmt, digest", [
        ("probe-3", "text", "8a9ba1d4befd1821ee45a3096ec33b5abb41e42bb323161bbd74b9f53831b845"),
        ("probe-3", "json", "c407e8d64bd0adc2cf26d37872706c934c390213a0ce5f3775ba6f2bbfe18b3b"),
        ("probe-3", "csv", "8a6d2e23408d29c340cc23505527d63bf19de5722de0f2d2681906783c39a7b3"),
        ("probe-9", "text", "683b8931204de075211e1c1fc9331cde2871633cdb50928d145b426929ac42cc"),
        ("probe-9", "json", "d287116202ff13ea6bfe08ae61f8bf015c05be0a11fd74e7e872ebc03a86cb3e"),
        ("probe-9", "csv", "ec842abd62ef3ec0598220e8c9894dbece4dd42223eff15e5af15f63e74b2a3d"),
        ("pass-5", "text", "df8168a00972f4e4e1a262e6f8a1884e76978dbf5cbe2ff4abadbe0628c8cbe6"),
        ("probe-2", "text", "dab7339251abf3f19844b3d5a1747f6d2e15e1d5bd12270de54dd5f7b81fb407"),
    ])
    def test_verify_stdout_is_pinned(self, capsys, command, fmt, digest):
        code, out, _ = run(capsys, *self.VERIFY[command], "--format", fmt)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_text_lines_carry_no_trailing_blanks(self, capsys):
        _, out, _ = run(capsys, *self.COMMANDS["residue"])
        lines = out.splitlines()
        assert lines[0] == "n   digits  residue  note"
        assert lines[1] == "0                    undefined for n = 0"
        assert lines[31] == "30  0,5     5"
        assert all(line == line.rstrip() for line in lines)


def line_by_line_emit(columns, fmt, fields):
    """_emit before block writes: CSV straight to stdout, text one row per
    writelines item, every line of which (a cell may hold a newline) is
    right-stripped."""
    rows = list(zip(*columns))
    if fmt == "json":
        print(json.dumps([dict(zip(fields, row)) for row in rows], indent=1))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(fields)
        writer.writerows(rows)
    else:
        widths = [max(map(len, map(str, column))) for column in zip(fields, *rows)]
        template = "  ".join(f"{{!s:<{w}}}" for w in widths)
        sys.stdout.writelines(
            "\n".join(map(str.rstrip, template.format(*cells).split("\n"))) + "\n"
            for cells in chain((fields,), rows)
        )


class TestBlockOutput:
    """Tables cut into blocks equal the line-by-line reference at every block boundary."""

    BLOCK = 7

    @staticmethod
    def argv(command, lines):
        # lines counts the header, so the table has lines - 1 rows
        return {
            "count": ("count", "--m", "5", "--k", "2,3;1", "--variant", "c",
                      "--range", f"0..{lines - 2}"),
            "residue": ("residue", "--m", "6", "--k", "1,1,2", "--variant", "c",
                        "--range", f"0..{lines - 2}"),
            "expand": ("expand", "--m", "3", "--k", "2,1", "--variant", "c",
                       "--N", str(lines - 2)),
        }[command]

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    @pytest.mark.parametrize("lines", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 2])
    @pytest.mark.parametrize("command", ["count", "residue", "expand"])
    def test_blocks_equal_line_by_line(self, capsys, monkeypatch, command, lines, fmt):
        argv = (*self.argv(command, lines), "--format", fmt)
        monkeypatch.setattr(cli, "EMIT_BLOCK_LINES", self.BLOCK)
        writes = []
        real_write = sys.stdout.write
        monkeypatch.setattr(sys.stdout, "write", lambda text: writes.append(text) or real_write(text))
        blocks = run(capsys, *argv)
        monkeypatch.undo()
        monkeypatch.setattr(cli, "_emit", line_by_line_emit)
        assert blocks == run(capsys, *argv)
        assert blocks[1].count("\n") == lines
        assert len(writes) == -(-lines // self.BLOCK)

    @pytest.mark.parametrize("argv", [
        # ranges not starting at 0; count's n widen from 2 to 3 digits in a later block
        *(("count", "--m", "3", "--k", "2,1", "--variant", "b", "--range", "90..130",
           "--format", fmt) for fmt in ("text", "csv")),
        *(("residue", "--m", "6", "--k", "1,1,2", "--variant", "c", "--range", "5..40",
           "--format", fmt) for fmt in ("text", "csv")),
        # no mismatches: a header-only table (verify's text report has no table)
        ("verify", "--m", "3", "--N", "30", "--format", "csv"),
    ], ids=["count-offset-text", "count-offset-csv", "residue-offset-text",
            "residue-offset-csv", "verify-header-only-csv"])
    def test_commands_equal_line_by_line(self, capsys, monkeypatch, argv):
        def timeless(result):
            # verify's wall time on stderr differs between any two runs
            code, out, err = result
            return code, out, re.sub(r"completed in [0-9.]+s", "completed in Ts", err)

        monkeypatch.setattr(cli, "EMIT_BLOCK_LINES", self.BLOCK)
        blocks = run(capsys, *argv)
        monkeypatch.undo()
        monkeypatch.setattr(cli, "_emit", line_by_line_emit)
        assert timeless(blocks) == timeless(run(capsys, *argv))

    def test_only_blocks_with_empty_notes_are_stripped(self, capsys, monkeypatch):
        # the gap-free hypothesis fails from n = 31 on, where every row has a note
        argv = ("residue", "--m", "6", "--k", "1,1,2", "--variant", "c", "--range", "0..50")
        monkeypatch.setattr(cli, "EMIT_BLOCK_LINES", self.BLOCK)
        writes = []
        real_write = sys.stdout.write
        monkeypatch.setattr(sys.stdout, "write", lambda text: writes.append(text) or real_write(text))
        blocks = run(capsys, *argv)
        monkeypatch.undo()
        monkeypatch.setattr(cli, "_emit", line_by_line_emit)
        assert blocks == run(capsys, *argv)
        rows = [block.splitlines() for block in writes]
        del rows[0][0]  # the header
        # a row's note is empty or tells why it has no residue
        empty_notes = [any("skipped" not in line and "undefined" not in line for line in block)
                       for block in rows]
        assert True in empty_notes and False in empty_notes


class TestColumnarEmit:
    """_emit on hand-made columns equals the row-by-row reference, block by block."""

    BLOCK = 7
    FIELDS = ("n", "middle", "last")
    ROWS = range(20)
    CASES = {
        "header-only": ([], [], []),
        # n goes from 2 to 3 digits in the second block
        "range-not-at-0": (range(90, 110), [str(n * n) for n in range(90, 110)],
                           [n % 7 for n in range(90, 110)]),
        # a range counting down, with n crossing 1000, takes the by-value cells
        "range-counting-down": (range(1010, 990, -1), ["x"] * 20, list(ROWS)),
        "wider-in-a-later-block": (ROWS, ["x"] * 19 + ["a much wider cell"], list(ROWS)),
        # as in residue's notes: empty last cells leave blanks to strip
        "ints-among-empty-strings": (ROWS, ["" if n % 3 else n * 1000 for n in ROWS],
                                     ["" if n % 4 else "note" for n in ROWS]),
        "bools": (ROWS, [n % 3 == 0 for n in ROWS], [n % 3 == 0 for n in ROWS]),
        # one kind of last cell per block of 7 lines: a tab, nothing, a blank
        "blank-ended-last-cells": (ROWS, ["x"] * 20,
                                   [("y\t", "", "z ")[(n + 1) // 7] for n in ROWS]),
    }

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_equals_line_by_line(self, capsys, monkeypatch, case, fmt):
        columns = self.CASES[case]
        monkeypatch.setattr(cli, "EMIT_BLOCK_LINES", self.BLOCK)
        writes = []
        real_write = sys.stdout.write
        monkeypatch.setattr(sys.stdout, "write", lambda text: writes.append(text) or real_write(text))
        cli._emit(columns, fmt, self.FIELDS)
        out = capsys.readouterr().out
        monkeypatch.undo()
        line_by_line_emit(columns, fmt, self.FIELDS)
        assert out == capsys.readouterr().out
        if fmt != "json":
            lines = len(columns[0]) + 1
            assert out.count("\n") == lines
            assert len(writes) == -(-lines // self.BLOCK)

    def test_text_width_is_global(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "EMIT_BLOCK_LINES", self.BLOCK)
        cli._emit(self.CASES["wider-in-a-later-block"], "text", self.FIELDS)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n   middle             last"
        assert lines[1] == "0   x                  0"

    def test_no_line_ends_in_blanks_before_a_newline_in_a_cell(self, capsys):
        # no last cell is empty or blank-ended: only the newline can leave blanks
        cli._emit([range(3), ["a", "b \nc", "d"], [1, 2, 3]], "text", self.FIELDS)
        assert capsys.readouterr().out == "n  middle  last\n0  a       1\n1  b\nc    2\n2  d       3\n"

    @pytest.mark.parametrize("argv", [
        ("count", "--m", "3", "--k", "2,1", "--variant", "b", "--range", "0..40"),
        ("count", "--m", "3", "--k", "2,1", "--variant", "c", "--range", "0..40", "--enum"),
        ("residue", "--m", "6", "--k", "1,1,2", "--variant", "c", "--range", "0..40"),
        ("residue", "--m", "2", "--k", "3", "--variant", "b", "--range", "0..9"),
        ("expand", "--m", "3", "--k", "2,1", "--variant", "c", "--N", "81"),
        ("expand", "--m", "2", "--k", "1", "--variant", "b"),
        ("verify", "--m", "9", "--probe", "--N", "20", "--format", "csv"),
    ])
    def test_no_table_column_mixes_bools_and_ints(self, capsys, monkeypatch, argv):
        # the text width pass measures each distinct value once, and the
        # text cells are made once per distinct value, looked up in a dict:
        # both a set and a dict fold True into 1
        tables = []
        real_emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda columns, fmt, fields: (
            tables.append(columns) or real_emit(columns, fmt, fields)))
        run(capsys, *argv)
        (columns,) = tables
        assert len(columns[0]) > 0
        for column in columns:
            ints = {type(cell) for cell in column if isinstance(cell, int)}
            assert not {bool, int} <= ints


@pytest.mark.parametrize("last, reads_header", [
    # megabytes, far more than a pipe holds: the command is mid-table when the reader goes
    (100000, True),
    # a few hundred bytes, still buffered when main flushes stdout to a reader long gone
    (10, False),
])
def test_reader_closing_early_exits_141_quietly(last, reads_header):
    env = child_env()
    # stdout block-buffered, as Python sets it up for a pipe by default
    env.pop("PYTHONUNBUFFERED", None)
    read_fd, write_fd = os.pipe()
    if not reads_header:
        os.close(read_fd)
    proc = subprocess.Popen(
        [sys.executable, "-m", "mary", "count", "--m", "2", "--k", "2;1", "--variant", "b",
         "--range", f"0..{last}"],
        stdout=write_fd, stderr=subprocess.PIPE, env=env,
    )
    os.close(write_fd)
    try:
        if reads_header:
            with open(read_fd, "rb") as reader:
                assert reader.readline().split() == [b"n", b"count", b"mod"]
        assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


def test_import_leaves_unused_modules_unloaded():
    # every command is a fresh process, so what the import loads is paid on each run
    env = child_env()
    code = ("import sys; before = set(sys.modules); import mary.cli; "
            "print(*sorted(set(sys.modules) - before))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    added = set(done.stdout.split())
    assert "mary.cli" in added
    assert not added & {"dataclasses", "inspect", "json", "csv", "concurrent.futures"}


class TestSizeLimits:
    @pytest.mark.parametrize("argv", [
        ("expand", "--m", "1000", "--k", "1"),
        ("expand", "--m", "3", "--k", "1", "--N", str(MAX_TERMS)),
        ("verify", "--m", "1000000000000000003"),
        ("verify", "--N", str(MAX_TERMS)),
        ("count", "--m", "2", "--k", "1", "--variant", "b", "--n", "100000000"),
        ("residue", "--m", "3", "--k", "1", "--variant", "b", "--range", f"0..{MAX_TERMS}"),
    ])
    def test_oversized_requests_exit_2_at_once(self, capsys, argv):
        started = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - started < 2
        assert code == EXIT_CONFIG
        assert out == ""
        assert "limit" in err

    def test_verify_sweep_bound_at_the_limit(self):
        # configure only: nothing runs
        parser = build_parser()
        assert configure(parser.parse_args(["verify", "--N", str(MAX_TERMS - 1)])).N == 999999
        with pytest.raises(ValueError) as exc:
            configure(parser.parse_args(["verify", "--N", str(MAX_TERMS)]))
        assert str(exc.value) == "--N asks for 1000001 terms, more than the limit of 1000000"

    def test_unbounded_hypothesis_search_is_refused(self, capsys):
        # trial division to min(10**12, isqrt(m)), 10**9 divisions, would take about a minute
        started = time.perf_counter()
        code, out, err = run(capsys, "residue", "--m", "1000000000000000003",
                             "--k", "1000000000000", "--variant", "b", "--n", "5")
        assert time.perf_counter() - started < 2
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == ("error: the coprimality hypothesis for modulus 1000000000000000003 "
                       "needs 999999999 trial divisions, more than the limit of 10000000\n")

    def test_small_factor_answers_a_search_past_the_limit(self, capsys):
        # the same search, but the candidate 2 divides m: the hypothesis
        # fails at index 0, so the point is skipped with its witness
        started = time.perf_counter()
        code, out, err = run(capsys, "residue", "--m", "1000000000000000000",
                             "--k", "1000000000000", "--variant", "b", "--n", "5")
        assert time.perf_counter() - started < 2
        assert code == EXIT_OK
        assert err == ""
        assert out.splitlines()[1].endswith(
            "skipped: coprimality hypothesis fails for modulus 1000000000000000000: "
            "prime 2 offends at digit index 0")

    def test_single_huge_n_is_not_a_size(self, capsys):
        code, out, _ = run(capsys, "residue", "--m", "3", "--k", "1", "--variant", "b",
                           "--n", str(10**100), "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)[0]["n"] == 10**100

    def test_grid_for_a_huge_prime_base_builds_at_once(self):
        started = time.perf_counter()
        prime = 1000000000000000003
        specs = grid_colour_specs(prime, 10)
        assert time.perf_counter() - started < 2
        assert len(specs) == 10
        assert all(check_hypothesis(cli.PartitionProblem(prime, s), 10) for s in specs)

    def test_unexpected_error_exits_2(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise MemoryError("no room")

        monkeypatch.setattr(cli, "expand_b_product", boom)
        code, out, err = run(capsys, "expand", "--m", "3", "--k", "1", "--N", "9")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == "error: unexpected MemoryError: no room\n"


class TestExitCodes:
    def test_codes_are_the_contract(self):
        assert (EXIT_OK, EXIT_MISMATCH, EXIT_CONFIG, EXIT_BROKEN_PIPE) == (0, 1, 2, 141)

    def test_expand_exits_0_1_and_2(self, capsys, monkeypatch):
        argv = ("expand", "--m", "3", "--k", "1", "--N", "9")
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, "expand", "--m", "2", "--k", "3", "--N", "8")[0] == 2
        theorem = cli.expand_b_theorem

        def off_by_one(prob, truncation):
            rhs = theorem(prob, truncation)
            return ModSeries(prob.m, truncation, [(c + 1) % prob.m for c in rhs.coeffs])

        monkeypatch.setattr(cli, "expand_b_theorem", off_by_one)
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 1
        assert not any(record["match"] for record in json.loads(out))


# (arguments, the one-line message after "error: ")
CONFIG_ERRORS = [
    (("count", "--m", "1", "--k", "1", "--variant", "b", "--n", "1"),
     "--m must be at least 2, got 1"),
    (("count", "--m", "3", "--k", "2,1;", "--variant", "b", "--n", "1"),
     "colour spec must look like 'k0,k1,...;tail', got '2,1;'"),
    (("count", "--m", "3", "--k", "0", "--variant", "b", "--n", "1"),
     "colour counts must be positive, got 0"),
    (("count", "--m", "3", "--k", "2;0", "--variant", "b", "--n", "1"),
     "tail colour count must be positive, got 0"),
    (("count", "--m", "3", "--k", "1", "--variant", "b", "--n", "-1"),
     "--n must be nonnegative, got -1"),
    (("count", "--m", "3", "--k", "1", "--variant", "b", "--range", "5..3"),
     "--range bounds must satisfy 0 <= a <= b, got '5..3'"),
    (("count", "--m", "3", "--k", "1", "--variant", "b", "--range", "5"),
     "--range must look like 'a..b', got '5'"),
    (("count", "--m", "3", "--k", "1", "--variant", "b", "--range", "a..b"),
     "--range must look like 'a..b', got 'a..b'"),
    (("expand", "--m", "3", "--k", "1", "--N", "-1"), "--N must be nonnegative, got -1"),
    (("verify", "--N", "-1"), "--N must be nonnegative, got -1"),
    (("verify", "--jobs", "0"), "--jobs must be positive, got 0"),
    # --N is checked before --jobs
    (("verify", "--N", "-1", "--jobs", "0"), "--N must be nonnegative, got -1"),
    (("count", "--m", "2", "--k", "1", "--variant", "b", "--n", "1000001"),
     "--n/--range asks for 1000002 terms, more than the limit of 1000000"),
    (("residue", "--m", "2", "--k", "1", "--variant", "b", "--range", "0..1000000"),
     "--n/--range asks for 1000001 terms, more than the limit of 1000000"),
    (("expand", "--m", "40", "--k", "1"),
     "--N (default m**4) asks for 2560001 terms, more than the limit of 1000000"),
    (("verify", "--m", "40"),
     "--m 40 (degree m**4) asks for 2560001 terms, more than the limit of 1000000"),
]


class TestConfigErrors:
    @pytest.mark.parametrize("argv, message", CONFIG_ERRORS,
                             ids=[" ".join(argv) for argv, _ in CONFIG_ERRORS])
    def test_message_is_pinned(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == f"error: {message}\n"

    def test_bad_colour_literal(self, capsys):
        code, _, err = run(capsys, "count", "--m", "3", "--k", "zebra", "--variant", "b",
                           "--n", "1")
        assert code == EXIT_CONFIG
        assert "colour spec" in err

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "count", "--m", "3", "--k", "1", "--variant", "b",
                           "--range", "9..2")
        assert code == EXIT_CONFIG

    def test_small_base(self, capsys):
        code, _, err = run(capsys, "count", "--m", "1", "--k", "1", "--variant", "b",
                           "--n", "1")
        assert code == EXIT_CONFIG

    def test_missing_span(self, capsys):
        code, _, _ = run(capsys, "count", "--m", "3", "--k", "1", "--variant", "b")
        assert code == EXIT_CONFIG

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["count", "--help"]) == 0
