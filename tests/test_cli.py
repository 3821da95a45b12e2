import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from oracles import random_problem

from xratio import cli, inscribed_polygon_triangulation
from xratio.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_degree_bundled_fixtures(capsys):
    code, rep = run_json(capsys, "degree", "triangulated_13gon.json")
    assert code == 0
    assert rep["n"] == 13
    assert rep["degree"] == 8
    assert rep["method"] == "recursion"
    # engine counters: 5 nodes, of which only the root takes a key (a miss);
    # the shortcut sides below it fire shortcuts of their own and take none
    assert (rep["nodes"], rep["cache_hits"], rep["cache_misses"]) == (5, 0, 1)

    code, rep = run_json(capsys, "degree", "snowflake.json")
    assert (code, rep["degree"]) == (0, 2)

    code, rep = run_json(capsys, "degree", "surplus_violating.json")
    assert (code, rep["degree"]) == (0, 0)


def test_python_m_xratio(tmp_path):
    # the package runs as a module from a source checkout, not only as the
    # installed console script
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("XRATIO_FIXTURES", None)
    proc = subprocess.run([sys.executable, "-m", "xratio", "degree", "snowflake.json"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["degree"] == 2


def test_degree_local_file(capsys, tmp_path):
    path = tmp_path / "hex.json"
    path.write_text(json.dumps({"n": 6, "diagonals": [[1, 3], [3, 5], [1, 5]]}))
    code, rep = run_json(capsys, "degree", str(path))
    assert code == 0
    assert rep["degree"] == 2


def test_degree_table_format(capsys):
    code, out = run(capsys, "--format", "table", "degree", "snowflake.json")
    assert code == 0
    assert "degree: 2" in out


def test_verify_counts(capsys):
    code, rep = run_json(capsys, "verify", "--nmax", "6")
    assert code == 0
    assert rep["ok"] is True
    assert rep["per_n"] == {"3": 1, "4": 2, "5": 5, "6": 14}
    assert rep["triangulations"] == 22
    assert rep["mismatches"] == []
    assert rep["per_internal_count"]["0"] > 0


def test_verify_table(capsys):
    code, out = run(capsys, "--format", "table", "verify", "--nmax", "5")
    assert code == 0
    assert "checked 8 triangulations" in out
    assert "all degrees match" in out


def test_verify_nmax_range(capsys):
    code, _ = run(capsys, "verify", "--nmax", "2")
    assert code == 3
    code, _ = run(capsys, "verify", "--nmax", "13")
    assert code == 3


def test_bad_global_options_exit(capsys):
    for threads in ("0", "-3"):
        code, _ = run(capsys, "--threads", threads, "verify", "--nmax", "5")
        assert code == 3
    # the engine has one cache policy; the option that bounded it is gone
    with pytest.raises(SystemExit) as exc:
        main(["--cache-cap", "0", "degree", "snowflake.json"])
    assert exc.value.code == 2


def test_degree_past_uint64_exits_invalid(capsys, tmp_path):
    # the inscribed 140-gon has 68 internal triangles: degree 2**68
    path = tmp_path / "inscribed140.json"
    path.write_text(json.dumps(inscribed_polygon_triangulation(140).to_json()))
    code = main(["degree", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith("error: degree ") and err.count("\n") == 1


def test_oracle_snowflake_agrees(capsys):
    code, rep = run_json(capsys, "--seed", "5", "oracle", "snowflake.json")
    assert code == 0
    assert rep["count"] == 2
    assert rep["engine_degree"] == 2
    assert rep["agrees"] is True
    assert rep["inconclusive"] is False


def test_oracle_reports_bound_and_chart(capsys):
    code, rep = run_json(capsys, "--seed", "5", "oracle", "snowflake.json")
    assert code == 0
    assert (rep["bound"], rep["paths_tracked"]) == (2, 6)
    assert len(set(rep["chart"])) == 3
    code, out = run(capsys, "--seed", "5", "--format", "table", "oracle", "snowflake.json")
    assert code == 0
    assert "paths 6: 2 per trial, labels " in out


def test_oracle_vanishing(capsys):
    code, rep = run_json(capsys, "--seed", "7", "oracle", "surplus_violating.json")
    assert code == 0
    assert rep["count"] == 0
    assert rep["engine_degree"] == 0
    assert rep["agrees"] is True


def test_oracle_path_budget(capsys):
    code, rep = run_json(capsys, "oracle", "snowflake.json", "--paths", "1")
    assert code == 4
    assert "error" in rep
    # a negative cap is an invalid value, not an inconclusive count
    code, _ = run(capsys, "oracle", "snowflake.json", "--paths", "-1")
    assert code == 3
    # so is a negative seed, named as the seed
    assert main(["--seed", "-1", "oracle", "snowflake.json"]) == 3
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err


def test_oracle_13gon_within_path_budget(capsys):
    # 10 unknowns, but a matching bound of 8: 24 paths over three trials
    code, rep = run_json(capsys, "oracle", "triangulated_13gon.json")
    assert code == 0
    assert rep["count"] == 8
    assert rep["paths_tracked"] == 24
    assert rep["agrees"] is True


def test_oracle_large_input_exits_inconclusive(capsys, tmp_path):
    # 37 unknowns: the chart scan runs out of its search steps and the
    # oracle refuses within seconds instead of searching for hours
    problem = random_problem(40, random.Random(4))
    path = tmp_path / "random40.json"
    path.write_text(json.dumps(problem.to_json()))
    t0 = time.perf_counter()
    code, rep = run_json(capsys, "oracle", str(path))
    assert code == 4
    assert "steps" in rep["error"]
    assert time.perf_counter() - t0 < 60


def test_oracle_large_vanishing_input_tracks_no_path(capsys, tmp_path):
    # 37 unknowns, but a label-deficient input: the Hall test gives bound
    # 0 before any matching is counted, and no start root is searched
    problem = random_problem(40, random.Random(5))
    path = tmp_path / "random40.json"
    path.write_text(json.dumps(problem.to_json()))
    t0 = time.perf_counter()
    code, rep = run_json(capsys, "oracle", str(path))
    assert code == 0
    assert (rep["count"], rep["bound"], rep["paths_tracked"]) == (0, 0, 0)
    assert rep["agrees"] is True
    assert time.perf_counter() - t0 < 30


def test_search_exhaustive_and_resume(capsys, tmp_path):
    out = str(tmp_path / "runs.jsonl")
    code, rep = run_json(capsys, "search", "--n", "6",
                         "--mode", "exhaustive", "--out", out)
    assert code == 0
    assert rep["best_degree"] == 2
    assert rep["certified"] is True
    assert len(open(out).read().strip().splitlines()) == 1

    code, rep = run_json(capsys, "search", "--n", "6",
                         "--mode", "exhaustive", "--out", out, "--resume")
    assert code == 0
    assert rep.get("resumed") is True
    assert len(open(out).read().strip().splitlines()) == 1  # no duplicate


def test_search_exhaustive_cap(capsys, tmp_path):
    out = tmp_path / "runs.jsonl"
    code, rep = run_json(capsys, "search", "--n", "7",
                         "--mode", "exhaustive", "--out", str(out))
    assert code == 0
    assert (rep["best_degree"], rep["certified"]) == (2, True)
    out.unlink()

    code, _ = run(capsys, "search", "--n", "10", "--mode", "exhaustive",
                  "--out", str(out))
    assert code == 3
    assert not out.exists()
    with pytest.raises(SystemExit):  # the exhaustive cap is not an option
        main(["search", "--n", "8", "--mode", "exhaustive", "--nmax", "8",
              "--out", str(out)])
    assert not out.exists()


def test_search_heuristic(capsys, tmp_path):
    out = str(tmp_path / "runs.jsonl")
    code, rep = run_json(capsys, "--seed", "3", "search", "--n", "7",
                         "--budget", "200", "--out", out)
    assert code == 0
    assert rep["mode"] == "heuristic"
    assert rep["best_degree"] >= 2
    assert rep["seed"] == 3
    back = json.loads(open(out).read())
    assert back["best_degree"] == rep["best_degree"]


def test_search_resume_after_torn_tail(capsys, tmp_path):
    out = tmp_path / "runs.jsonl"
    argv = ("search", "--n", "7", "--budget", "200", "--out", str(out))
    code, rep = run_json(capsys, *argv)
    assert code == 0
    whole = out.read_text()
    out.write_text(whole[:len(whole) // 2])  # interrupted mid-line
    code, rep = run_json(capsys, *argv, "--resume")
    assert code == 0
    assert "resumed" not in rep
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["best_degree"] == rep["best_degree"]
    code, rep = run_json(capsys, *argv, "--resume")
    assert code == 0
    assert rep["resumed"] is True


def test_search_resume_corrupt_results_exit(capsys, tmp_path):
    out = tmp_path / "runs.jsonl"
    out.write_text("{not json\n{}\n")
    code, _ = run(capsys, "search", "--n", "7", "--budget", "200",
                  "--out", str(out), "--resume")
    assert code == 2
    # mistyped records are refused, not coerced into a certified n=6 result
    bad = {"n": 6.9, "mode": "exhaustive", "best_degree": 7, "witnesses": [],
           "evaluations": 1, "elapsed": 0.0, "seed": None, "budget": None,
           "certified": "false"}
    for record in (bad, {**bad, "n": 6}, {**bad, "n": True, "certified": True}):
        out.write_text(json.dumps(record) + "\n")
        code, _ = run(capsys, "search", "--n", str(int(record["n"])), "--mode",
                      "exhaustive", "--out", str(out), "--resume")
        assert code == 2, record
    out.write_bytes(b"\xff\xfe" + json.dumps({**bad, "n": 6}).encode() + b"\n")
    code, _ = run(capsys, "search", "--n", "6", "--mode", "exhaustive",
                  "--out", str(out), "--resume")
    assert code == 2  # not UTF-8


def test_search_resume_refuses_records_the_search_cannot_write(capsys, tmp_path):
    out = tmp_path / "runs.jsonl"
    record = {"n": 6, "mode": "exhaustive", "best_degree": 7, "witnesses": [],
              "evaluations": 1, "elapsed": 0.0, "seed": None, "budget": None,
              "certified": True}
    # above the upper bound 2 at n=6, and no witness
    out.write_text("\n" + json.dumps(record) + "\n")
    code = main(["search", "--n", "6", "--mode", "exhaustive",
                 "--out", str(out), "--resume"])
    assert code == 2
    assert "line 2" in capsys.readouterr().err
    # a witness whose degree (0) is not the recorded best degree
    heuristic = {**record, "n": 7, "mode": "heuristic", "best_degree": 2,
                 "witnesses": [[[1, 2, 3, 4]] * 4], "seed": 1, "budget": 200,
                 "certified": False}
    out.write_text(json.dumps(heuristic) + "\n")
    code, _ = run(capsys, "search", "--n", "7", "--budget", "200",
                  "--out", str(out), "--resume")
    assert code == 2
    # a certified exhaustive record where the search refuses to run
    out.write_text(json.dumps({**record, "n": 12, "best_degree": 22}) + "\n")
    code, _ = run(capsys, "search", "--n", "12", "--mode", "exhaustive",
                  "--out", str(out), "--resume")
    assert code == 3


def test_search_results_directory_exit(capsys, tmp_path):
    # a directory is no results file, to resume from or to append to
    for resume in (("--resume",), ()):
        code = main(["search", "--n", "6", "--mode", "exhaustive",
                     "--out", str(tmp_path), *resume])
        assert code == 2, resume
        assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def no_search(*args, **kwargs):
    raise AssertionError("search started")


def test_search_results_in_missing_directory_exit(capsys, tmp_path, monkeypatch):
    # refused before any search runs: a search here would be thrown away
    monkeypatch.setattr(cli, "exhaustive_cn", no_search)
    monkeypatch.setattr(cli, "heuristic_cn", no_search)
    missing = tmp_path / "no_such_dir" / "runs.jsonl"
    for out in (str(missing), ""):
        for resume in (("--resume",), ()):
            code = main(["search", "--n", "6", "--mode", "exhaustive",
                         "--out", out, *resume])
            assert code == 2, (out, resume)
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot write {out!r}: [Errno 2]"), err
    assert not missing.parent.exists()


def test_search_results_under_regular_file_exit(capsys, tmp_path, monkeypatch):
    # a path through a regular file is refused as the append would refuse it
    monkeypatch.setattr(cli, "exhaustive_cn", no_search)
    plain = tmp_path / "README.md"
    plain.write_text("text\n")
    for out in (plain / "runs.jsonl", plain / "sub" / "runs.jsonl"):
        for resume in (("--resume",), ()):
            code = main(["search", "--n", "6", "--mode", "exhaustive",
                         "--out", str(out), *resume])
            assert code == 2, (out, resume)
            assert "[Errno 20]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [plain]
    assert plain.read_text() == "text\n"


def test_search_results_in_unwritable_directory_exit(capsys, tmp_path, monkeypatch):
    # os.access stands in for a read-only directory, which root could write
    monkeypatch.setattr(cli, "exhaustive_cn", no_search)
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    out = str(tmp_path / "runs.jsonl")
    code = main(["search", "--n", "6", "--mode", "exhaustive", "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out!r}: [Errno 13]"), err
    assert list(tmp_path.iterdir()) == []
    # an existing file is appended to in place: its own access is what counts
    Path(out).write_text("")
    monkeypatch.setattr(cli.os, "access", lambda path, mode: path == out)
    assert cli._append_error(out) is None
    monkeypatch.setattr(cli.os, "access", lambda path, mode: path != out)
    assert cli._append_error(out).errno == 13


def test_search_rejects_bad_n(capsys, tmp_path):
    out = str(tmp_path / "runs.jsonl")
    code, _ = run(capsys, "search", "--n", "5", "--out", out)
    assert code == 3


def test_missing_file_exit(capsys):
    code, _ = run(capsys, "degree", "no_such_file.json")
    assert code == 2


def test_malformed_json_exit(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run(capsys, "degree", str(path))
    assert code == 2
    path2 = tmp_path / "nokeys.json"
    path2.write_text(json.dumps({"points": [1, 2]}))
    code, _ = run(capsys, "degree", str(path2))
    assert code == 2
    # bytes that are not UTF-8 are unreadable input for both commands
    path3 = tmp_path / "utf16.json"
    path3.write_bytes(b"\xff\xfe" + json.dumps(
        {"n": 6, "quads": [[1, 2, 3, 6], [2, 3, 4, 5], [1, 4, 5, 6]]}).encode())
    for command in ("degree", "oracle"):
        code, _ = run(capsys, command, str(path3))
        assert code == 2, command


def test_invalid_problem_exit(capsys, tmp_path):
    path = tmp_path / "badcount.json"
    path.write_text(json.dumps({"n": 6, "quads": [[1, 2, 3, 4]]}))
    code, _ = run(capsys, "degree", str(path))
    assert code == 3
    path2 = tmp_path / "badrange.json"
    path2.write_text(json.dumps(
        {"n": 6, "quads": [[1, 2, 3, 9], [2, 3, 4, 5], [1, 4, 5, 6]]}
    ))
    code, _ = run(capsys, "degree", str(path2))
    assert code == 3
    # n must be an integer: neither truncated nor parsed from a string
    for i, obj in enumerate(({"n": 5.9, "quads": [[1, 2, 3, 4], [2, 3, 4, 5]]},
                             {"n": "6", "diagonals": [[1, 3], [3, 5], [1, 5]]})):
        path3 = tmp_path / f"badn{i}.json"
        path3.write_text(json.dumps(obj))
        code, _ = run(capsys, "degree", str(path3))
        assert code == 3, obj


def test_fixture_dir_override(capsys, tmp_path, monkeypatch):
    fx = tmp_path / "fx"
    fx.mkdir()
    (fx / "mine.json").write_text(json.dumps(
        {"n": 6, "quads": [[1, 2, 3, 6], [2, 3, 4, 5], [1, 4, 5, 6]]}
    ))
    monkeypatch.setenv("XRATIO_FIXTURES", str(fx))
    code, rep = run_json(capsys, "degree", "mine.json")
    assert code == 0
    assert rep["degree"] == 2
    # bundled names are shadowed by the override directory
    code, _ = run(capsys, "degree", "snowflake.json")
    assert code == 2


def test_verify_threads_match_serial(capsys):
    code1, rep1 = run_json(capsys, "verify", "--nmax", "6")
    code2, rep2 = run_json(capsys, "--threads", "2", "verify", "--nmax", "6")
    assert code1 == code2 == 0
    assert rep1 == rep2


def test_verify_pool_never_exceeds_tasks(capsys, monkeypatch):
    # a stand-in executor: records its size and maps serially, so no
    # process is started whatever --threads asks for
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    code, rep = run_json(capsys, "--threads", "1000", "verify", "--nmax", "5")
    assert code == 0
    assert sizes == [3]
    assert rep["per_n"] == {"3": 1, "4": 2, "5": 5}
