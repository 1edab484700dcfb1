import hashlib
import json

import pytest

from caching_game.cli import main


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
    # the simplex's pivoting rule shows up here.
    @pytest.mark.parametrize(
        "n,h,m,digest",
        [
            (3, "3/2", 6, "b3cfbe6a9396dd1245f655ed16f2f04a6f832e3aa295792a43ded1b83e900171"),
            (4, "3/2", 8, "1f0d0b20040e0edc920035389b1c1d6cf3f79c86aeb57b60d06e9f863708fed6"),
            (4, "11/6", 6, "7952f9dacb71096de7e2b0248552a2e565526a63a45fa04b3b589283358b3bec"),
        ],
    )
    def test_golden_output_bytes(self, capsys, n, h, m, digest):
        code, out, _ = run(
            capsys, "solve", "--n", str(n), "--k", "2", "--h", h, "--m", str(m),
            "--no-cache",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    @pytest.mark.slow
    def test_csv_shape(self, capsys, cache_dir):
        code, out, _ = run(capsys, "table1", "--csv", "--cache-dir", str(cache_dir))
        assert code == 0
        lines = out.rstrip("\n").splitlines()
        assert lines[0] == "h_lo,h_hi,value,computed,method,status"
        assert len(lines) == 11
        assert all(len(line.split(",")) == 6 for line in lines[1:])
