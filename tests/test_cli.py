import hashlib
import json
from pathlib import Path

import pytest

from lgschubert import cli, qtilde, quantum, suites, symplectic
from lgschubert.cli import build_parser, code_fingerprint, main
from lgschubert.partitions import all_strict_upto, partition_to_str
from lgschubert.quantum import quantum_to_json
from lgschubert.qtilde import VerificationError

# sha256 of the report of ``verify <suite>`` at the command-line defaults
PASSING_REPORT_SHA256 = {
    "cprime-expansion": "fdf0453636374e07e2ab0060317f99409ac6f67d35b060a75fd6e6885ed26531",
    "dawson": "6bca37d93d5cc76619759ea3bb6a9038a97698879648a25b2697bfc9b7e49277",
    "duality": "43adb71c07f0d05a63c78c53ddb5d9bb4f7c55caaef62093f8641e85f209d449",
    "eightfold": "a309265ba3b252a72462bc5c33c7898f52717d68fed558aa157a81e8974cedaf",
    "engines-agree": "5df0bd8dd27ab6251019986a57236fab8cf2e7340401520621fb46e5eabad086",
    "extension": "57a1470b92fdfc2c0b257f6972e213fcdd9611a80b1d969517be54faaf8c6601",
    "fform": "b8c077954b5ab30a9fbca625f0f8efc7530ae9104548a3768952b22951d9fdf4",
    "giambelli-classical": "c5175a4a063497f965f4f7e4ca570e3428ab585926a034f335360f3753c32d2e",
    "lem2": "fd4ff3e370f9d5b960f7e9c46a7e62b281c94c2d14843a0cbd8df8e140082a97",
    "lines": "fa9249536ea5bb20ae03fa356eab678dedc5bace248b9edaaf190c20a593007f",
    "pfaffian-double-prime": "abef3c27f48b077a1a903f1b66aa3c7b050ac1bf3356d4f7f549af0ec78c3851",
    "pfaffian-prime": "926efed2eaa009c71d4fad40b0673f28ae48ab6e8c4a7f382c8ad0c2cea18740",
    "pieri-operators": "71be6bc7f3f0737ad64e0b4b212b0eab02a0e34979b644231bce76af93cf4adc",
    "pieri-oracle": "fe921c3166d49fdc69b27c9729d77da96bc03f1d16038876a48ced161f8553ea",
    "qlr": "46b70d2cfbfacc634aff10f4c3abf86a75df066cdf5c1ad7b803fe9095b358ec",
    "qtilde-properties": "c1f4f1155936dd509887939e5f46ae3d66a881b8a5366718ea98c2c8cc32cde3",
    "relations": "40ef8808126075cfd0036c7918f5c7aa7e81082b06bab20a0e6038b8f489845f",
    "rho": "78d1eb76adfa0736a2e5d220fbc8cbd4e5b360f9f1e75c808e2f5549c40dc146",
    "sigma-ij": "f7aa0345bdbd1312432fe70673d660035b886279a848d368e417f5b8cf09a5bc",
    "stembridge": "0490bdccc5f5aebbd58c784de61c516567a26953417092cbb40f361c7570a1ae",
    "vanishing": "88312771b18d1c5875521a431111867a32b945121719a2e5329b4d7610229cd8",
}

FAILING_EIGHTFOLD_REPORT = """\
{
  "suite": "eightfold",
  "params": {
    "n": 1,
    "m": 5,
    "pmax": 12,
    "seed": 20030503
  },
  "pass": false,
  "failures": [
    {
      "suite": "eightfold",
      "lam": [],
      "mu": [],
      "nu": [
        1
      ],
      "d": 0,
      "n": 1,
      "error": "forced"
    },
    {
      "suite": "eightfold",
      "lam": [
        1
      ],
      "mu": [
        1
      ],
      "nu": [
        1
      ],
      "d": 1,
      "n": 1
    }
  ]
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cache_header(**fields) -> str:
    """Header line of an n = 2 constants cache written by the current code."""
    return json.dumps({"format": 1, "n": 2, "engine": "constants", "code": code_fingerprint(),
                       **fields}) + "\n"


def cache_pairs(n: int) -> list:
    """Every pair of D_n as (lambda, mu) index strings, in the order of the
    table's entries and cache records: by |lambda|, |mu|, then descending
    lex."""
    classes = all_strict_upto(n)
    pairs = sorted(((l, m) for l in classes for m in classes),
                   key=lambda p: (sum(p[0]), sum(p[1]), [-x for x in p[0]], [-x for x in p[1]]))
    return [(partition_to_str(l), partition_to_str(m)) for l, m in pairs]


def cache_records(source: Path, cells: dict) -> str:
    """The records of the n = 2 cache that a clean run wrote under
    ``source``, one product per line, with the product at each
    (lambda, mu) of ``cells`` replaced by the given JSON text."""
    records = (source / "table-n2-constants.jsonl").read_text().splitlines()[1:]
    pairs = cache_pairs(2)
    for pair, text in cells.items():
        records[pairs.index(pair)] = text
    return "".join(record + "\n" for record in records)


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

    @pytest.mark.parametrize("engine", ["constants", "quotient", "pieri"])
    def test_classical_runs_the_chosen_engine(self, capsys, monkeypatch, engine):
        """The classical ring prints the q-degree-0 part of the product of
        the engine --engine names (here s[3,2,1] + 2*s[2]*q), and that
        engine is the one that runs."""
        calls, real = [], cli.ENGINES[engine]
        monkeypatch.setitem(cli.ENGINES, engine, lambda *args: calls.append(args) or real(*args))
        code, out, _ = run(capsys, "product", "--ring", "classical", "--n", "3",
                           "--lambda", "3,1", "--mu", "2", "--engine", engine)
        assert (code, out, calls) == (0, "s[3,2,1]\n", [((3, 1), (2,), 3)])

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

    @pytest.mark.parametrize("lam", [(), (4, 2), (6, 3, 1), (7, 5, 3, 1), (7, 6, 5, 4, 3, 2, 1)],
                             ids=partition_to_str)
    def test_route_b_matches_the_benchmark_digests(self, capsys, lam):
        """``product --engine pieri --json --n 7`` of lam against every mu of
        D_7, byte for byte as in the benchmark's reference: the first 8 hex
        digits of the sha256 of stdout, row lam, columns in
        ``all_strict_upto(7)`` order."""
        ref = json.loads((Path(cli.__file__).parents[2] / "bench" / "ref" / "pieri_n7.json")
                         .read_text())
        classes = all_strict_upto(7)
        assert (ref["n"], ref["engine"], ref["order"]) == (7, "pieri", "all_strict_upto")
        digests = ""
        for mu in classes:
            code, out, _ = run(capsys, "product", "--engine", "pieri", "--json", "--n", "7",
                               "--lambda", partition_to_str(lam), "--mu", partition_to_str(mu))
            assert code == 0
            digests += hashlib.sha256(out.encode()).hexdigest()[:8]
        assert digests == ref["rows"][classes.index(lam)]

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

    @pytest.mark.parametrize("n", ["1_0", "+3", "٣", " 3"])
    def test_rank_in_anything_but_ascii_digits_is_usage_error(self, capsys, monkeypatch, n):
        """``int`` reads each of these ("1_0" as 10), the rank argument
        does not, and no engine runs."""
        monkeypatch.setitem(cli.ENGINES, "pieri", lambda *args: pytest.fail("ran"))
        with pytest.raises(SystemExit) as exc:
            run(capsys, "product", "--n", n, "--lambda", "", "--mu", "")
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"argument --n: expected an integer >= 1, got {n!r}\n")

    @pytest.mark.parametrize("lam", ["1_0", "+3", "٣"])
    def test_partition_in_anything_but_ascii_digits_is_malformed(self, capsys, lam):
        code, out, err = run(capsys, "product", "--n", "3", "--lambda", lam, "--mu", "1")
        assert (code, out) == (2, "")
        assert err == f"error: malformed partition {lam!r}\n"

    def test_malformed_partition(self, capsys):
        code, _, err = run(
            capsys, "product", "--ring", "quantum", "--n", "2",
            "--lambda", "1,2", "--mu", "1",
        )
        assert code == 2
        assert "error" in err

    def test_non_partition_is_named_by_the_partition_rule(self, capsys):
        code, out, err = run(
            capsys, "product", "--ring", "quantum", "--n", "2",
            "--lambda", "1,2", "--mu", "1",
        )
        assert code == 2
        assert out == ""
        assert err == "error: (1, 2) is not a partition\n"

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

    @pytest.mark.parametrize("term", [((2, 1), 3), ((), 0)],
                             ids=["degree-beyond-mu", "inexact-shift"])
    def test_a_broken_symmetry_term_is_an_internal_error(self, capsys, monkeypatch, term):
        """sigma_rho^2 at n = 2 takes route B's symmetry path, which reads
        the product off sigma_(rho*) sigma_(): a term there of q-degree
        above len(mu) = 2, or one that the shift by 2^-2 of sigma_() does
        not divide, maps to no product term, and the CLI exits 3."""
        qmul = quantum.qmul

        def injected(x, mu, n):
            return {**qmul(x, mu, n), term: 1}

        monkeypatch.setattr(quantum, "qmul", injected)
        code, out, err = run(capsys, "product", "--n", "2", "--lambda", "2,1", "--mu", "2,1")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: RuntimeError: symmetry fails for (2, 1) x (2, 1)")


class TestParser:
    def test_main_calls_share_one_parser(self, capsys):
        build_parser.cache_clear()
        for _ in range(2):
            code, out, _ = run(capsys, "product", "--n", "2", "--lambda", "1", "--mu", "1")
            assert (code, out) == (0, "2*s[2]\n")
        info = build_parser.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_parse_error_leaves_no_state(self, capsys, monkeypatch):
        """Options given before a parse error do not reach the next call."""
        used = []
        for name, engine in list(cli.ENGINES.items()):
            def spy(lam, mu, n, name=name, engine=engine):
                used.append(name)
                return engine(lam, mu, n)

            monkeypatch.setitem(cli.ENGINES, name, spy)
        with pytest.raises(SystemExit) as exc:
            run(capsys, "product", "--engine", "quotient", "--json", "--lambda", "1",
                "--mu", "1", "--n", "0")
        assert exc.value.code == 2
        code, out, _ = run(capsys, "product", "--n", "2", "--lambda", "1", "--mu", "1")
        assert (code, out, used) == (0, "2*s[2]\n", ["pieri"])


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

    @pytest.mark.parametrize("sample", ["0", "-1"])
    def test_sample_below_one_is_usage_error(self, capsys, monkeypatch, sample):
        """A sample of no pairs would leave ranks beyond 4 unchecked and
        still pass; it is refused before any case runs."""
        monkeypatch.setattr(suites, "suite_engines_agree", lambda *args: pytest.fail("ran"))
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "engines-agree", "--n", "6", "--sample", sample)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("suite, runner, flag", [
        ("dawson", "suite_dawson", "--pmax"),
        ("extension", "suite_extension", "--wmax"),
        ("qtilde-properties", "suite_qtilde_properties", "--wmax"),
        ("stembridge", "suite_stembridge", "--wmax"),
        ("pieri-oracle", "suite_pieri_oracle", "--wmax"),
    ])
    def test_negative_bound_is_usage_error(self, capsys, monkeypatch, suite, runner, flag):
        """A negative sweep bound leaves no case to check; it is refused
        before the suite runs, not reported as a failed verification."""
        monkeypatch.setattr(suites, runner, lambda *args: pytest.fail("ran"))
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", suite, flag, "-1")
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

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

    def test_a_broken_pivot_is_a_failed_verification(self, capsys, monkeypatch):
        """A basis element with a non-unit pivot breaks the back-substitution
        that check (b) runs: the VerificationError is a failure record of
        the suite, exit 1, not an internal error."""
        real = qtilde.basis
        real.cache_clear()
        monkeypatch.setattr(qtilde, "basis",
                            lambda lam, m: real(lam, m).scale(2) if lam == (2, 1) else real(lam, m))
        try:
            code, out, err = run(capsys, "verify", "qtilde-properties", "--m", "3", "--wmax", "4")
        finally:
            monkeypatch.undo()
            real.cache_clear()
        assert (code, err) == (1, "")
        assert {"suite": "qtilde-properties", "check": "b", "lam": [2, 1], "m": 3,
                "error": "non-unit pivot for (2, 1)"} in json.loads(out)["failures"]

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

    @pytest.mark.parametrize("suite", [
        "extension", "cprime-expansion", "lem2", "pfaffian-prime", "pfaffian-double-prime",
    ])
    def test_var_limit_checked_before_the_sweep(self, capsys, suite):
        # every sweep fills at least one of these memos from its first case
        memos = (symplectic._peeled, symplectic.c_prime, symplectic.c_double_prime)
        for memo in memos:
            memo.cache_clear()
        code, out, err = run(capsys, "verify", suite, "--m", "11")
        assert code == 2
        assert out == ""
        assert err == "error: guarded to m <= 10, got 11\n"
        assert [memo.cache_info().currsize for memo in memos] == [0, 0, 0]

    def test_failing_report_bytes(self, capsys, monkeypatch):
        """A failing report writes tuple witnesses as JSON lists, an error
        record included; the bytes are pinned."""
        def check(lam, mu, nu, d, n):
            if lam == mu == nu == (1,):
                return False
            if not lam and not mu:
                raise VerificationError("forced")
            return True

        monkeypatch.setattr(quantum, "eightfold_check", check)
        code, out, _ = run(capsys, "verify", "eightfold", "--n", "1")
        assert code == 1
        assert out == FAILING_EIGHTFOLD_REPORT

    @pytest.mark.parametrize("suite", sorted(PASSING_REPORT_SHA256))
    def test_passing_report_bytes(self, capsys, suite):
        """Every suite's report at the command-line defaults, pinned by
        digest."""
        code, out, _ = run(capsys, "verify", suite)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PASSING_REPORT_SHA256[suite]

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
        ("0", "1", '{"1|0": 1}'),  # "0" is not the partition_to_str form of ()
        ("1", " 1", '{"2|0": 2}'),  # index string with a space
        ("1", "1", '{"2|00": 2}'),  # q-degree with a leading zero
        ("1", "1", '{"02|0": 2}'),  # part with a leading zero
    ])
    def test_poisoned_cache_record_ignored(self, tmp_path, monkeypatch, capsys, lam, mu, product):
        """One bad record voids the whole file: the plausible but wrong
        record beside it (s[2] * 1 = 5 s[2]) must not be served either.
        The bad product takes the place of (lambda, mu); a pair outside
        D_2 has no place, so its record names lambda and mu, as indexed
        records did, and takes the place of (1, 1)."""
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(tmp_path / "clean"))
        code, clean, _ = run(capsys, "table", "--n", "2", "--format", "tsv")
        assert code == 0
        cells = {("2", ""): '{"2|0": 5}'}
        if (lam, mu) in cache_pairs(2):
            cells[lam, mu] = product
        else:
            cells["1", "1"] = f'{{"lambda": "{lam}", "mu": "{mu}", "product": {product}}}'
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "table-n2-constants.jsonl").write_text(
            cache_header() + cache_records(tmp_path / "clean", cells))
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(cache_dir))
        code, out, _ = run(capsys, "table", "--n", "2", "--format", "tsv")
        assert code == 0
        assert out == clean

    def test_deeply_nested_cache_record_ignored(self, tmp_path, monkeypatch, capsys):
        """A record nested past the JSON parser's recursion limit voids the
        file like any other damage, rather than ending in an internal error."""
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(tmp_path / "clean"))
        code, clean, _ = run(capsys, "table", "--n", "2", "--format", "tsv")
        assert code == 0
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "table-n2-constants.jsonl").write_text(
            cache_header() + "[" * 200_000 + "]" * 200_000 + "\n")
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(cache_dir))
        code, out, err = run(capsys, "table", "--n", "2", "--format", "tsv")
        assert (code, out, err) == (0, clean, "")

    def test_json_layout_matches_json_dumps(self, tmp_path, monkeypatch, capsys):
        """The JSON table is written without ``json.dumps``; on a cold and a
        warm run it must equal that call on the same entries, computed here
        and listed by |lambda|, |mu|, then descending lex."""
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(tmp_path / "cache"))
        for n in range(1, 5):
            classes = all_strict_upto(n)
            pairs = sorted(((l, m) for l in classes for m in classes),
                           key=lambda p: (sum(p[0]), sum(p[1]), [-x for x in p[0]],
                                          [-x for x in p[1]]))
            entries = [{"lambda": partition_to_str(l), "mu": partition_to_str(m),
                        "product": quantum_to_json(cli.ENGINES["constants"](l, m, n))}
                       for l, m in pairs]
            oracle = json.dumps({"format": 1, "ring": "quantum", "n": n, "engine": "constants",
                                 "entries": entries}, sort_keys=True, indent=2) + "\n"
            for _ in ("cold", "warm"):
                code, out, _ = run(capsys, "table", "--n", str(n))
                assert (code, out) == (0, oracle)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2ddcf88099450ff8936770a044305963e0561644f45aba6174c6fe0d54db735d")
        code, tsv, _ = run(capsys, "table", "--n", "4", "--format", "tsv")
        assert hashlib.sha256(tsv.encode()).hexdigest() == (
            "a88d8fdb3fbfe86db26eb739074e8202e34b365c134e183f3946418881d3e0ca")

    def test_json_layout_of_an_empty_product(self, tmp_path, monkeypatch, capsys):
        """A cached product with no terms passes the record checks; it is
        written as ``json.dumps`` writes an empty object."""
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(tmp_path / "clean"))
        assert run(capsys, "table", "--n", "2")[0] == 0
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "table-n2-constants.jsonl").write_text(
            cache_header() + cache_records(tmp_path / "clean", {("", ""): "{}"}))
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(cache_dir))
        code, out, _ = run(capsys, "table", "--n", "2")
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
        assert '"product": {}' in out

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
        records = cache_records(tmp_path / "clean", {("2", ""): '{"2|0": 5}'})
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        cache_file = cache_dir / "table-n2-constants.jsonl"
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(cache_dir))
        cache_file.write_text(header + records)
        code, out, _ = run(capsys, "table", "--n", "2", "--format", "tsv")
        assert code == 0
        assert out == clean
        # the fingerprint alone decides: under the current one the record is served
        cache_file.write_text(cache_header() + records)
        code, out, _ = run(capsys, "table", "--n", "2", "--format", "tsv")
        assert "2\t\t2|0=5\n" in out

    @pytest.mark.parametrize("damage", [
        "truncated", "extra line", "non-dict record", "bool coefficient", "moved cell"])
    def test_damaged_cache_ignored_whole(self, tmp_path, monkeypatch, capsys, damage):
        """A damaged cache is ignored whole, so the plausible but wrong first
        cell beside the damage (s[] * s[] = 2 s[]) is not served either,
        and the table is the one a clean run prints."""
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(tmp_path / "clean"))
        code, clean, _ = run(capsys, "table", "--n", "2")
        assert code == 0
        cells = {("", ""): '{"|0": 2}'}
        damaged = {
            "non-dict record": {("2", ""): '["2|0"]'},  # holds only keys its cell may hold
            "bool coefficient": {("1", ""): '{"1|0": true}'},  # true == 1
            "moved cell": {("1", ""): '{"2|0": 1}', ("2", ""): '{"1|0": 1}'},  # swapped
        }
        cells.update(damaged.get(damage, {}))
        text = cache_header() + cache_records(tmp_path / "clean", cells)
        if damage == "truncated":
            text = text[:-4]
        elif damage == "extra line":
            text += '{"|2": 1}\n'
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "table-n2-constants.jsonl").write_text(text)
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(cache_dir))
        code, out, err = run(capsys, "table", "--n", "2")
        assert (code, out, err) == (0, clean, "")
        # the poisoned first cell alone is served, so the damage voided the file
        (cache_dir / "table-n2-constants.jsonl").write_text(
            cache_header() + cache_records(tmp_path / "clean", {("", ""): '{"|0": 2}'}))
        code, out, _ = run(capsys, "table", "--n", "2")
        assert out != clean and '"|0": 2' in out

    @pytest.mark.parametrize("n", range(1, 6))
    def test_layout_key_sets_follow_the_term_rule(self, n):
        """Each cell's key set is the rule every stored term must meet,
        applied here term by term: "nu|d" with nu in D_n in
        ``partition_to_str`` form, 0 <= d <= len(mu), and
        |lambda| + |mu| = |nu| + d(n+1)."""
        classes = all_strict_upto(n)
        layout = cli._layout(n)
        assert list(layout.names) == cache_pairs(n)
        assert [tuple(map(partition_to_str, pair)) for pair in layout.pairs] == cache_pairs(n)
        for (lam, mu), keys in zip(layout.pairs, layout.keys):
            rule = {f"{partition_to_str(nu)}|{d}" for nu in classes for d in range(n + 1)
                    if d <= len(mu) and sum(lam) + sum(mu) == sum(nu) + d * (n + 1)}
            assert keys == rule

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
        # the path is checked before any cell is computed or cached
        assert list((tmp_path / "cache").glob("table-*")) == []

    @pytest.mark.parametrize("blocked", ["dir", "file"])
    def test_unusable_cache_only_warns(self, tmp_path, monkeypatch, capsys, blocked):
        """The cache is an optimisation: a regular file where its directory
        goes, or a directory where its file goes, leaves stdout as a clean
        run prints it, with one warning on stderr, and leaves no temporary
        file behind."""
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(tmp_path / "clean"))
        code, clean, _ = run(capsys, "table", "--n", "2", "--format", "tsv")
        assert code == 0
        cache_dir = tmp_path / "cache"
        if blocked == "dir":
            cache_dir.write_text("")
        else:
            (cache_dir / "table-n2-constants.jsonl").mkdir(parents=True)
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(cache_dir))
        for _ in range(2):
            code, out, err = run(capsys, "table", "--n", "2", "--format", "tsv")
            assert (code, out) == (0, clean)
            assert err.startswith("warning: table cache not saved: ") and err.count("\n") == 1
            assert list(tmp_path.rglob("*.tmp")) == []

    def test_no_home_directory_only_warns(self, tmp_path, monkeypatch, capsys):
        """With no cache directory set and no home directory to be found,
        the cache is one that cannot be read or written: the table is
        printed as a clean run prints it, with one warning, exit code 0."""
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(tmp_path / "clean"))
        code, clean, _ = run(capsys, "table", "--n", "1", "--format", "tsv")
        assert code == 0

        def no_home(cls):
            raise RuntimeError("Could not determine home directory.")

        monkeypatch.delenv("SCHUBERT_CACHE_DIR")
        monkeypatch.setattr(Path, "home", classmethod(no_home))
        code, out, err = run(capsys, "table", "--n", "1", "--format", "tsv")
        assert (code, out) == (0, clean)
        assert err == "warning: table cache not saved: Could not determine home directory.\n"

    def test_tsv_format(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "table.tsv"
        assert main(["table", "--n", "2", "--format", "tsv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda\tmu\tproduct"
        assert len(lines) == 17
