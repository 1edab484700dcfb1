import hashlib
import json
import os
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from caching_game import cli, strategies
from caching_game.cli import CACHE_ENV, main
from caching_game.strategies import LEMMA_GRIDS, TABLE_ONE, searcher_table_report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_solve_writes_canonical_json(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "solve", "--n", "2", "--k", "2", "--h", "1", "--m", "2",
            "--cache-dir", str(tmp_path),
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] == "1/3"
        assert "cache hit" not in err

    def test_repeat_run_hits_cache_with_identical_bytes(self, capsys, tmp_path):
        _, first, _ = run(
            capsys, "solve", "--n", "2", "--k", "2", "--h", "1", "--m", "2",
            "--cache-dir", str(tmp_path),
        )
        code, second, err = run(
            capsys, "solve", "--n", "2", "--k", "2", "--h", "1", "--m", "2",
            "--cache-dir", str(tmp_path),
        )
        assert code == 0
        assert second == first
        assert "cache hit" in err

    def test_no_cache_leaves_no_files(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(
            capsys, "solve", "--n", "2", "--k", "2", "--h", "1", "--m", "2",
            "--no-cache",
        )
        assert code == 0
        assert json.loads(out)["value"] == "1/3"
        assert not list(tmp_path.iterdir())

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "sol.json"
        code, out, _ = run(
            capsys, "solve", "--n", "2", "--k", "2", "--h", "1", "--m", "2",
            "--no-cache", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["value"] == "1/3"

    @pytest.mark.parametrize(
        "entry",
        [
            "{}",
            '{"config": {"n"',
            "not json\n",
            "[]",
            # json.loads raises RecursionError, not ValueError, this deep
            pytest.param("[" * 100000, id="deep-nesting"),
        ],
    )
    def test_unreadable_cache_entry_is_solved_again(self, capsys, tmp_path, entry):
        argv = ["solve", "--n", "2", "--k", "2", "--h", "1", "--m", "2"]
        _, want, _ = run(capsys, *argv, "--no-cache")
        run(capsys, *argv, "--cache-dir", str(tmp_path))
        (path,) = tmp_path.iterdir()
        path.write_text(entry)
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 0
        assert out == want
        assert "unreadable cache entry" in err
        assert path.read_text() == want
        assert list(tmp_path.iterdir()) == [path]
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert (code, out) == (0, want)
        assert "cache hit" in err

    @pytest.mark.parametrize(
        "move",
        [
            '"location":0,"to_step":0',  # the dug depth itself
            '"location":0,"to_step":3',  # below the grid
            '"location":2,"to_step":1',  # no such location
            '"location":-1,"to_step":1',
        ],
    )
    def test_cache_entry_with_a_move_that_cannot_advance_is_solved_again(
        self, capsys, tmp_path, move
    ):
        # loading must refuse the move: a policy that asks for it again and
        # again never finishes a simulation
        argv = ["solve", "--n", "2", "--k", "2", "--h", "1", "--m", "2"]
        _, want, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        (path,) = tmp_path.iterdir()
        first = '"location":0,"to_step":1'
        assert first in want
        path.write_text(want.replace(first, move, 1))
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert (code, out) == (0, want)
        assert "unreadable cache entry" in err and "cannot advance" in err
        assert path.read_text() == want

    def test_cache_entry_holding_a_non_integer_is_solved_again(self, capsys, tmp_path):
        # a string among the dug depths cannot be sorted when the policy is
        # written back out
        argv = ["solve", "--n", "2", "--k", "2", "--h", "1", "--m", "2"]
        _, want, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        (path,) = tmp_path.iterdir()
        second = '"dug":[1,0]'
        assert want.count(second) == 1
        path.write_text(want.replace(second, '"dug":["x",0]'))
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert (code, out) == (0, want)
        assert "unreadable cache entry" in err and "non-integer" in err
        assert path.read_text() == want

    def test_cache_entry_with_a_zero_searcher_probability_is_solved_again(
        self, capsys, tmp_path
    ):
        # the Searcher mix is listed over its support, and must sum to 1
        argv = ["solve", "--n", "2", "--k", "2", "--h", "1", "--m", "2"]
        _, want, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        (path,) = tmp_path.iterdir()
        last = '"prob":"1/3"}'
        assert want.count(last) == 1
        path.write_text(want.replace(last, '"prob":"0"}'))
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert (code, out) == (0, want)
        assert "unreadable cache entry" in err and "cache hit" not in err
        assert path.read_text() == want

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"budget":2,"m":2,"moves":[]', '"budget":3,"m":2,"moves":[]'),
            ('"budget":2,"m":2,"moves":[]', '"budget":2,"m":3,"moves":[]'),
            ('"moves":[],"n":2', '"moves":[],"n":3'),
            ('"iterations":2', '"iterations":true'),
            ('"iterations":2', '"iterations":0'),
        ],
        ids=["policy-budget", "policy-m", "policy-n", "iterations-bool", "iterations-zero"],
    )
    def test_cache_entry_with_a_foreign_policy_or_bad_iterations_is_solved_again(
        self, capsys, tmp_path, old, new
    ):
        # a policy for another game, or an iteration count no solve gives,
        # parses but is not this request's solution
        argv = ["solve", "--n", "2", "--k", "2", "--h", "1", "--m", "2"]
        _, want, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        (path,) = tmp_path.iterdir()
        assert want.count(old) == 1
        path.write_text(want.replace(old, new))
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert (code, out) == (0, want)
        assert "unreadable cache entry" in err and "cache hit" not in err
        assert path.read_text() == want

    @pytest.mark.parametrize(
        "request_args, name",
        [
            ("--n 3 --k 2 --h 3/2 --m 2", "solve-v2-n3-k2-h3_2-m2.json"),
            ("--n 2 --k 2 --h 1 --m 3", "solve-v2-n2-k2-h1_1-m3.json"),
        ],
        ids=["another-config", "another-grid"],
    )
    def test_cache_entry_for_another_request_is_solved_again(
        self, capsys, tmp_path, request_args, name
    ):
        # the n=2, m=2 entry, copied under another request's name, parses
        # but must not be served for that request
        argv = ["solve", *request_args.split()]
        _, want, _ = run(capsys, *argv, "--no-cache")
        _, other, _ = run(
            capsys, "solve", "--n", "2", "--k", "2", "--h", "1", "--m", "2",
            "--cache-dir", str(tmp_path),
        )
        assert other != want
        path = tmp_path / name
        path.write_text(other)
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert (code, out) == (0, want)
        assert "entry is for solve-v2-n2-k2-h1_1-m2" in err and "cache hit" not in err
        assert path.read_text() == want

    @pytest.mark.parametrize(
        "env, flags, where",
        [
            ("env", [], "env"),
            ("env", ["--cache-dir", "flag"], "flag"),
            (None, [], ".cache"),
            ("env", ["--no-cache"], None),
        ],
        ids=["env", "flag-beats-env", "default", "no-cache-beats-env"],
    )
    def test_cache_directory_source(self, capsys, tmp_path, monkeypatch, env, flags, where):
        monkeypatch.chdir(tmp_path)
        if env is None:
            monkeypatch.delenv(CACHE_ENV, raising=False)
        else:
            monkeypatch.setenv(CACHE_ENV, env)
        argv = ["solve", "--n", "2", "--k", "2", "--h", "1", "--m", "2", *flags]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        if where is None:
            assert files == []
        else:
            assert files == [tmp_path / where / "solve-v2-n2-k2-h1_1-m2.json"]
            assert files[0].read_text() == out

    def test_cache_entry_mode_follows_the_umask(self, capsys, tmp_path):
        # a cache directory shared between users needs readable entries
        old = os.umask(0o022)
        try:
            code, _, _ = run(
                capsys, "solve", "--n", "2", "--k", "2", "--h", "1", "--m", "2",
                "--cache-dir", str(tmp_path),
            )
        finally:
            os.umask(old)
        assert code == 0
        (entry,) = tmp_path.iterdir()
        assert stat.S_IMODE(entry.stat().st_mode) == 0o644

    def test_cache_entry_is_named_by_the_request(self, capsys, tmp_path):
        argv = ["solve", "--n", "4", "--k", "2", "--h", "11/6", "--m", "2"]
        code, out, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 0
        (entry,) = tmp_path.iterdir()
        assert entry.name == "solve-v2-n4-k2-h11_6-m2.json"
        assert entry.read_text() == out

    def test_cli_import_loads_no_hashlib(self):
        # hashlib loads OpenSSL, about 3.7 MB of resident memory per process
        code = "import sys, caching_game.cli; sys.exit('hashlib' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_cache_write_leaves_the_umask_alone(self, capsys, tmp_path, monkeypatch):
        # os.umask sets the mask of the whole process, racing other threads
        def umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", umask)
        argv = ["solve", "--n", "2", "--k", "2", "--h", "1", "--m", "2"]
        code, out, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 0
        (entry,) = tmp_path.iterdir()
        assert entry.suffix == ".json"
        assert entry.read_text() == out

    def test_cache_dir_below_a_file_is_an_error(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run(
            capsys, "solve", "--n", "2", "--k", "2", "--h", "1", "--m", "2",
            "--cache-dir", str(blocker / "cache"),
        )
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_malformed_budget_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys, "solve", "--n", "2", "--k", "2", "--h", "1.5", "--m", "2",
            "--no-cache",
        )
        assert code == 2
        assert "error:" in err

    def test_budget_out_of_range_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys, "solve", "--n", "2", "--k", "2", "--h", "5/2", "--m", "2",
            "--no-cache",
        )
        assert code == 2
        assert "error:" in err

    # sha256 of the canonical JSON. The solution depends on the LP's pivot
    # path (a degenerate game has several optimal mixes), so any change to
    # the simplex's pivoting rule, or to the float basis that starts it,
    # shows up here. Each value equals the one that Bland's rule alone gave.
    @pytest.mark.parametrize(
        "n,h,m,digest",
        [
            (3, "3/2", 6, "e7b43a85a9f72bc9931ab9c8004f148f37523bfed3672c318cb6a870ca947a2d"),
            (4, "3/2", 8, "69c3d52d57f252ef484e7c5c8c370c95b04b9c3d4c631edc2599f2dd306b40d3"),
            (4, "11/6", 6, "bd58561cb515040b72c03de5e62b006fb8ca11b2b24baa2e009fe664b05360c7"),
            (4, "5/3", 6, "78e5b37b697cce606dbe6abbd399295fdb52acbfb7f23993a937ce6d9749ab70"),
            (4, "2", 5, "f88dc3963c72463be7df16902a111b3444a3b97fd00d92ae43c8df3c1c52cc55"),
            (4, "11/5", 5, "253cfacca62e5d82974bb48c8962d056d22f0aef45ab92d6fb2eead49bb65116"),
            (5, "2", 4, "91f825458e5e3c570b62fc54ddef5b67c7365f0e009a1f29a3ba6a8e36bddb5b"),
        ],
    )
    def test_golden_output_bytes(self, capsys, n, h, m, digest):
        code, out, _ = run(
            capsys, "solve", "--n", str(n), "--k", "2", "--h", h, "--m", str(m),
            "--no-cache",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestGoldenReports:
    # sha256 of stdout for the report commands: a refactor must keep every
    # report byte for byte.
    @pytest.mark.parametrize(
        "argv,code,digest",
        [
            ("verify-lemma 2 --scan-m 12", 0, "1d8f8252f0f0b81892bc4f2108f95ed4fa5cf43c58a0c4f4827bf4d80996c268"),
            ("verify-lemma 4 --scan-m 12", 0, "e01c5d48e1442c5360dccd59fd382657844da1dbf5b0105c27bf04fae31af6d3"),
            ("verify-lemma 5 --scan-m 12", 0, "4a4bf00b8303ded2b4718d104d75a6db72bc9dbbd9fb54722ae90d6862d94f94"),
            ("verify-lemma 3 --scan-m 20", 1, "74201baf18ed11c7f62497ab0d0626d09962d10dbe9faabec3be4607ed3a069f"),
            ("verify-lemma 2 --scan-m 60", 0, "1b70a98b857365acfd4b41c83f67cff74c07a524c7751698c2dcca45875386d9"),
            ("verify-lemma 3 --scan-m 60", 1, "1b4919b639ce8b5bcec2e7c7379cb85c964523aa766433f32c760ff01bdf088d"),
            ("verify-lemma 4 --scan-m 60", 0, "ab922be932a01cbfd375f30e6789df39807b6a6355f58a08717eda7e9d7dbdd4"),
            ("verify-lemma 5 --scan-m 60", 0, "96483654aed30538cf1fdf7920110478f0f8220f531aa5fcaa3290a268eb11e2"),
            ("verify-lemma 2 --scan-m 210", 0, "2738b7ab732ade660f17ee04ea50ae9058766b6b9d29412dca3f144d82dee1ee"),
            ("verify-lemma 3 --scan-m 210", 1, "cc372998bf17c5f8dac3b190caf29d686accf77abea15cbab4fd5289005b18ee"),
            ("verify-lemma 4 --scan-m 210", 0, "880baa12ce3bd41feeb29bcd350553f121513f71107f4ef1c5ec0e40feb44685"),
            ("verify-lemma 5 --scan-m 210", 0, "16d287ac35deb142774f88f779b1f236dc29d7f9c0463ead2f9d907496f57b83"),
            ("enumerate --n 3 --k 2 --m 3", 0, "8b20a7380c6a61cf0dbff0c50779945bc4d832e0dedb8a7d369ec1694ec2e666"),
            ("enumerate --n 3 --k 2 --m 3 --reduce", 0, "60271f43ea360d8009deb82cd0046cee1f33f1ac636234b459d4a4b0572c38d1"),
            ("proposition --n 4 --k 2", 0, "b197a73ba5f584abf7219c4d70824a63879e35f451ec281f09f9e153cce128b3"),
            ("asymptotic --n 10 --h 7", 0, "715d3a18e092582a2742874fdec73793952e8db8e4f63815ad18c12934dee2a8"),
            ("asymptotic --n 10 --h 7 --y 1/3", 0, "64639b6c6263a8661b51f299492f15f2cc8c6c4543a6d1e5c75c3b42393e8c1f"),
        ],
    )
    def test_golden_output_bytes(self, capsys, argv, code, digest):
        got, out, _ = run(capsys, *argv.split())
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_searcher_table_report_bytes(self):
        report = searcher_table_report(60)
        digest = "a5d169ce08fb2918d8e1a23b1872ed8f50694d0b071b87230e45b3e4cd2d8883"
        assert hashlib.sha256(report.encode()).hexdigest() == digest

    # Regime edges and witness order move with the scan grid. Every grid
    # here reproduces the published table, so the reports equal m=60's.
    @pytest.mark.parametrize(
        "m,digest",
        [
            (20, "a5d169ce08fb2918d8e1a23b1872ed8f50694d0b071b87230e45b3e4cd2d8883"),
            (120, "a5d169ce08fb2918d8e1a23b1872ed8f50694d0b071b87230e45b3e4cd2d8883"),
        ],
    )
    def test_searcher_table_report_bytes_on_other_grids(self, m, digest):
        report = searcher_table_report(m)
        assert hashlib.sha256(report.encode()).hexdigest() == digest


class TestVerifyLemma:
    def test_first_interval_passes(self, capsys):
        code, out, _ = run(capsys, "verify-lemma", "2")
        assert code == 0
        assert out.rstrip().endswith("PASS")
        assert "[ok]" in out
        assert "IS(1234)" in out

    def test_unknown_lemma_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "verify-lemma", "7")
        assert code == 2
        assert "unknown lemma" in err

    def test_third_interval_reports_the_script_shortfall(self, capsys):
        # the published script misses its stated guarantee; the report must
        # say so honestly rather than pass
        code, out, _ = run(capsys, "verify-lemma", "3", "--scan-m", "20")
        assert code == 1
        assert out.rstrip().endswith("FAIL")
        assert "best response to the Hider mix (m=15): 9/20 [ok]" in out
        assert "MISMATCH" in out

    def test_reports_are_byte_deterministic(self, capsys):
        _, a, _ = run(capsys, "verify-lemma", "2", "--scan-m", "12")
        _, b, _ = run(capsys, "verify-lemma", "2", "--scan-m", "12")
        assert a == b

    def test_readme_example_is_the_output(self, capsys):
        # the README's example block must stay what the command prints
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        prompt = "$ caching-game verify-lemma 2\n"
        start = readme.index(prompt) + len(prompt)
        example = readme[start : readme.index("```", start)]
        code, out, _ = run(capsys, "verify-lemma", "2")
        assert code == 0
        assert out == example

    def test_huge_scan_grid_is_a_usage_error(self, capsys, monkeypatch):
        # 10^8 scan points: refused by size, before any value is built
        def scanned(*args):
            raise AssertionError("scan values built past the limit")

        monkeypatch.setattr(strategies, "_scan_values", scanned)
        code, out, err = run(capsys, "verify-lemma", "2", "--scan-m", "100000000")
        assert code == 2
        assert out == ""
        assert "error:" in err and "limited to" in err


class TestAsymptotic:
    def test_same_location(self, capsys):
        code, out, _ = run(capsys, "asymptotic", "--n", "4", "--h", "2")
        assert code == 0
        assert "same-location win probability: 1/2" in out

    def test_split_reports_bound(self, capsys):
        code, out, _ = run(capsys, "asymptotic", "--n", "2", "--h", "3/2", "--y", "1/2")
        assert code == 0
        assert "split(1/2) win probability: 1" in out
        assert "[ok]" in out

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "asymptotic", "--n", "4", "--h", "2", "--y", "3/5")
        assert code == 2
        assert "error:" in err


class TestProposition:
    def test_counts_and_listing(self, capsys):
        code, out, _ = run(capsys, "proposition", "--n", "4", "--k", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "uniform allocations: 10"
        assert "value for h < 1 + 1/2: 1/10" in lines[1]
        assert lines[-1] == "PASS"
        assert len([l for l in lines if l.startswith("  ")]) == 10

    def test_unwritable_out_path_is_an_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.txt"
        code, out, err = run(capsys, "proposition", "--n", "4", "--k", "2", "--out", str(target))
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_huge_listing_is_a_usage_error(self, capsys, monkeypatch):
        # C(89, 30) allocations: refused by count, before any is listed
        def enumerated(*args):
            raise AssertionError("allocations listed past the limit")

        monkeypatch.setattr(strategies, "_weak_compositions", enumerated)
        code, out, err = run(capsys, "proposition", "--n", "60", "--k", "30")
        assert code == 2
        assert out == ""
        assert "error:" in err and "limited to" in err

    @pytest.mark.parametrize("n,k", [("0", "2"), ("-1", "2"), ("4", "0")])
    def test_no_locations_or_objects_is_a_usage_error(self, capsys, n, k):
        code, out, err = run(capsys, "proposition", "--n", n, "--k", k)
        assert code == 2
        assert out == ""
        assert "error:" in err


class TestEnumerate:
    def test_unreduced_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--k", "2", "--m", "2")
        assert code == 0
        rows = out.rstrip("\n").splitlines()
        assert len(rows) == 7
        assert all(row.endswith("\t1") for row in rows)

    def test_reduced_listing_weights(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--n", "2", "--k", "2", "--m", "2", "--reduce"
        )
        assert code == 0
        rows = out.rstrip("\n").splitlines()
        weights = [int(row.split("\t")[1]) for row in rows]
        assert sum(weights) == 7


class TestTableOne:
    # One cache for the class: the first test solves every row cold, the
    # second reads the same solutions back.
    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("table1-cache")

    @pytest.mark.slow
    def test_full_table_recomputation(self, capsys, cache_dir):
        code, out, _ = run(capsys, "table1", "--cache-dir", str(cache_dir))
        assert code == 0
        lines = out.rstrip("\n").splitlines()
        assert len(lines) == 10
        assert "MISMATCH" not in out
        digest = "cba9e6cc378cc8189278f85bc897ed69c3af68c333d396c0265186651a870e88"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.slow
    def test_csv_shape(self, capsys, cache_dir):
        code, out, _ = run(capsys, "table1", "--csv", "--cache-dir", str(cache_dir))
        assert code == 0
        lines = out.rstrip("\n").splitlines()
        assert lines[0] == "h_lo,h_hi,value,computed,method,status"
        assert len(lines) == 11
        assert all(len(line.split(",")) == 6 for line in lines[1:])
        digest = "beb251e35167e21b6cadc524752d9c72a983b5177c923074c9a919b28c5edb6b"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("csv", [False, True], ids=["text", "csv"])
    @pytest.mark.parametrize(
        "method, offset, status, code",
        [
            ("solver", 1, "upper bound", 0),
            ("solver", -1, "MISMATCH", 1),
            ("lemma", 1, "MISMATCH", 1),
            ("lemma", -1, "MISMATCH", 1),
            ("proposition", 1, "MISMATCH", 1),
            ("proposition", -1, "MISMATCH", 1),
        ],
    )
    def test_statuses_off_the_row_value(
        self, capsys, monkeypatch, csv, method, offset, status, code
    ):
        # every row's computation stubbed: one method's rows are off by 1/1000
        rows = {row.h_lo: row for row in TABLE_ONE}
        lemma_rows = {row.lemma_id: row for row in TABLE_ONE if row.lemma_id}

        def value(row):
            return row.value + (Fraction(offset, 1000) if row.method == method else 0)

        monkeypatch.setattr(
            cli,
            "solve_game_cached",
            lambda cfg, grid, cache: SimpleNamespace(value=value(rows[cfg.h])),
        )
        monkeypatch.setattr(
            cli,
            "_lemma_best_response",
            lambda lemma_id: (value(lemma_rows[lemma_id]), LEMMA_GRIDS[lemma_id]),
        )
        monkeypatch.setattr(cli, "proposition_value", lambda n, k: value(TABLE_ONE[0]))
        argv = ["table1", "--no-cache"] + (["--csv"] if csv else [])
        got, out, _ = run(capsys, *argv)
        assert got == code
        lines = out.rstrip("\n").splitlines()
        if csv:
            assert lines.pop(0) == "h_lo,h_hi,value,computed,method,status"
            statuses = [line.split(",")[-1] for line in lines]
        else:
            statuses = [line[line.rindex("[") + 1 : -1] for line in lines]
        assert statuses == [
            status if row.method == method else "exact" for row in TABLE_ONE
        ]
