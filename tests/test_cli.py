import json

import pytest

from lgschubert import cli, suites
from lgschubert.cli import build_parser, code_fingerprint, main
from lgschubert.qtilde import VerificationError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cache_header(**fields) -> str:
    """Header line of an n = 2 constants cache written by the current code."""
    return json.dumps({"format": 1, "n": 2, "engine": "constants", "code": code_fingerprint(),
                       **fields}) + "\n"


class TestProduct:
    def test_quantum_point_cube(self, capsys):
        code, out, _ = run(
            capsys, "product", "--ring", "quantum", "--n", "3",
            "--lambda", "3,2,1", "--mu", "3,2,1",
        )
        assert code == 0
        assert out.strip() == "q^3"

    def test_classical(self, capsys):
        code, out, _ = run(
            capsys, "product", "--ring", "classical", "--n", "2",
            "--lambda", "1", "--mu", "1",
        )
        assert code == 0
        assert out.strip() == "2*s[2]"

    def test_quantum_json(self, capsys):
        code, out, _ = run(
            capsys, "product", "--ring", "quantum", "--n", "2",
            "--lambda", "2", "--mu", "2", "--json",
        )
        assert code == 0
        assert json.loads(out) == {"1|1": 1}

    @pytest.mark.parametrize("engine", ["constants", "quotient", "pieri"])
    def test_engines_selectable(self, capsys, engine):
        code, out, _ = run(
            capsys, "product", "--ring", "quantum", "--n", "2",
            "--lambda", "2,1", "--mu", "2,1", "--engine", engine,
        )
        assert code == 0
        assert out.strip() == "q^2"

    def test_empty_partition_forms(self, capsys):
        for text in ("0", ""):
            code, out, _ = run(
                capsys, "product", "--ring", "quantum", "--n", "2",
                "--lambda", text, "--mu", "2",
            )
            assert code == 0
            assert out.strip() == "s[2]"

    def test_default_engine_is_pieri(self, capsys):
        argv = ("product", "--n", "4", "--lambda", "4,2", "--mu", "3,2,1")
        outs = {run(capsys, *argv, *extra)[1] for extra in
                ((), ("--engine", "pieri"), ("--engine", "constants"))}
        assert len(outs) == 1
        assert build_parser().parse_args(argv).engine == "pieri"

    def test_out_of_range_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "product", "--ring", "quantum", "--n", "2",
            "--lambda", "3", "--mu", "1",
        )
        assert code == 2
        assert "error" in err

    def test_rank_below_one_is_usage_error(self, capsys):
        for n in ("0", "-2"):
            with pytest.raises(SystemExit) as exc:
                run(capsys, "product", "--n", n, "--lambda", "", "--mu", "")
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""

    def test_malformed_partition(self, capsys):
        code, _, err = run(
            capsys, "product", "--ring", "quantum", "--n", "2",
            "--lambda", "1,2", "--mu", "1",
        )
        assert code == 2
        assert "error" in err

    def test_internal_error_has_its_own_exit_code(self, capsys, monkeypatch):
        """An exception other than ValueError is neither a verification
        failure (1) nor a usage error (2)."""
        def broken(lam, mu, n):
            raise VerificationError("engine bug")

        monkeypatch.setitem(cli.ENGINES, "pieri", broken)
        code, out, err = run(capsys, "product", "--n", "2", "--lambda", "1", "--mu", "1")
        assert code == 3
        assert out == ""
        assert err == "internal error: VerificationError: engine bug\n"


class TestGW:
    def test_cubic_through_three_points(self, capsys):
        code, out, _ = run(
            capsys, "gw", "--n", "3", "--d", "3",
            "--lambda", "3,2,1", "--mu", "3,2,1", "--nu", "3,2,1",
        )
        assert code == 0
        assert out.startswith("1")
        assert "within bounds" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "gw", "--n", "2", "--d", "1",
            "--lambda", "2", "--mu", "2", "--nu", "2", "--json",
        )
        assert code == 0
        assert json.loads(out) == {"value": 1, "within_bounds": True}


class TestVerify:
    def test_passing_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "relations", "--n", "4")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["failures"] == []

    def test_dawson(self, capsys):
        code, out, _ = run(capsys, "verify", "dawson", "--pmax", "10")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_engines_agree(self, capsys):
        code, out, _ = run(capsys, "verify", "engines-agree", "--n", "2")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_suite_with_no_cases_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "pfaffian-double-prime", "--m", "3")
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        assert report["failures"] == [
            {"suite": "pfaffian-double-prime", "error": "no cases checked"}
        ]
        code, out, _ = run(capsys, "verify", "pfaffian-double-prime", "--m", "4")
        assert code == 0

    @pytest.mark.parametrize("suite, runner", [
        ("pieri-oracle", "suite_pieri_oracle"),
        ("stembridge", "suite_stembridge"),
        ("qtilde-properties", "suite_qtilde_properties"),
    ])
    def test_wmax_zero_is_a_bound(self, capsys, monkeypatch, suite, runner):
        """--wmax 0 reaches the suite as 0, not as the default bound."""
        calls = []
        monkeypatch.setattr(suites, runner, lambda *args: calls.append(args) or [])
        code, out, _ = run(capsys, "verify", suite, "--wmax", "0")
        assert code == 0
        assert calls[0][-1] == 0
        assert json.loads(out)["params"]["wmax"] == 0

    def test_seed_defaults_to_sample_seed(self):
        args = build_parser().parse_args(["verify", "engines-agree"])
        assert args.seed == suites.DEFAULT_SAMPLE_SEED

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "nope")
        assert exc.value.code == 2


class TestTable:
    def test_cache_round_trip_and_workers(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(tmp_path / "cache"))
        out1 = tmp_path / "t1.json"
        out2 = tmp_path / "t2.json"
        out8 = tmp_path / "t8.json"
        assert main(["table", "--n", "2", "--out", str(out1)]) == 0
        cache_file = tmp_path / "cache" / "table-n2-constants.jsonl"
        assert cache_file.exists()
        header = json.loads(cache_file.read_text().splitlines()[0])
        assert header == {"format": 1, "n": 2, "engine": "constants", "code": code_fingerprint()}
        # warm-cache rerun and multi-worker rerun are byte-identical
        assert main(["table", "--n", "2", "--out", str(out2)]) == 0
        assert main(["table", "--n", "2", "--workers", "8", "--out", str(out8)]) == 0
        assert out1.read_bytes() == out2.read_bytes() == out8.read_bytes()
        capsys.readouterr()

    def test_table_contents(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "table.json"
        assert main(["table", "--n", "2", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["n"] == 2
        assert len(data["entries"]) == 16  # |D_2| = 4 classes
        by_key = {
            (e["lambda"], e["mu"]): e["product"] for e in data["entries"]
        }
        assert by_key[("2,1", "2,1")] == {"|2": 1}
        assert by_key[("1", "1")] == {"2|0": 2}

    def test_table_size_grows_with_rank(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "table3.json"
        assert main(["table", "--n", "3", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["entries"]) == 64  # 8 x 8

    def test_stale_cache_ignored(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        bad = cache_dir / "table-n2-constants.jsonl"
        bad.write_text(cache_header(format=99))
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(cache_dir))
        out = tmp_path / "t.json"
        assert main(["table", "--n", "2", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["entries"]) == 16

    def test_wrong_shape_cache_record_ignored(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        bad = cache_dir / "table-n2-constants.jsonl"
        bad.write_text(cache_header() + "[1,2]\n")
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(cache_dir))
        out = tmp_path / "t.json"
        assert main(["table", "--n", "2", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["entries"]) == 16

    @pytest.mark.parametrize("lam, mu, product", [
        ("1", "1", '{"9,9|0": 7}'),  # index outside D_2
        ("1", "1", '{"2,1|0": 1}'),  # |lam| + |mu| != |nu| + d(n+1)
        ("2,1", "", '{"|1": 1}'),  # d > len(mu), weight identity holds
        ("1", "1", '{"2|0": -2}'),  # negative coefficient
        ("1", "1", '{"2|0": 0}'),  # zero coefficient
        ("1", "1", '{"2|0": 2.5}'),  # not an integer
        ("1", "3", '{"3,1|0": 1}'),  # mu outside D_2
    ])
    def test_poisoned_cache_record_ignored(self, tmp_path, monkeypatch, capsys, lam, mu, product):
        """One bad record voids the whole file: the plausible but wrong
        record beside it (s[2] * 1 = 5 s[2]) must not be served either."""
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(tmp_path / "clean"))
        code, clean, _ = run(capsys, "table", "--n", "2", "--format", "tsv")
        assert code == 0
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "table-n2-constants.jsonl").write_text(
            cache_header() +
            '{"lambda": "2", "mu": "", "product": {"2|0": 5}}\n'
            f'{{"lambda": "{lam}", "mu": "{mu}", "product": {product}}}\n'
        )
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(cache_dir))
        code, out, _ = run(capsys, "table", "--n", "2", "--format", "tsv")
        assert code == 0
        assert out == clean

    @pytest.mark.parametrize("header", [
        cache_header(code="0" * 16),  # written by other code
        '{"format": 1, "n": 2, "engine": "constants"}\n',  # no fingerprint
    ])
    def test_cache_from_other_code_ignored(self, tmp_path, monkeypatch, capsys, header):
        """A record that passes every validity check but is wrong (s[2] * 1
        = 5 s[2]) is served only under the current code fingerprint."""
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(tmp_path / "clean"))
        code, clean, _ = run(capsys, "table", "--n", "2", "--format", "tsv")
        assert code == 0
        record = '{"lambda": "2", "mu": "", "product": {"2|0": 5}}\n'
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        cache_file = cache_dir / "table-n2-constants.jsonl"
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(cache_dir))
        cache_file.write_text(header + record)
        code, out, _ = run(capsys, "table", "--n", "2", "--format", "tsv")
        assert code == 0
        assert out == clean
        # the fingerprint alone decides: under the current one the record is served
        cache_file.write_text(cache_header() + record)
        code, out, _ = run(capsys, "table", "--n", "2", "--format", "tsv")
        assert "2\t\t2|0=5\n" in out

    def test_rank_below_one_is_usage_error(self, tmp_path, monkeypatch, capsys):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(cache_dir))
        with pytest.raises(SystemExit) as exc:
            run(capsys, "table", "--n", "0")
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not cache_dir.exists()

    def test_unwritable_out_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "missing" / "t.json"
        code, stdout, err = run(capsys, "table", "--n", "2", "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and str(out) in err
        assert not out.exists()

    def test_tsv_format(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "table.tsv"
        assert main(["table", "--n", "2", "--format", "tsv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda\tmu\tproduct"
        assert len(lines) == 17
