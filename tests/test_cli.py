import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from koszulpow.poly import QQ, ZZ, RegularSequenceSpec
from koszulpow.homology import tor
import koszulpow.cli as cli
from koszulpow.cli import (ConfigError, parse_field, parse_sequence,
                           explicit_spec, run)


def _never_run(cfg, spec):
    raise AssertionError("the command ran despite a bad --out")


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


class TestConfigParsing:
    def test_fields(self):
        assert parse_field("Q") == QQ
        assert parse_field("Z") == ZZ
        assert parse_field("Fp:5").kind == "Fp"

    def test_bad_fields(self):
        for text in ("X", "Fp:", "Fp:one", "Fp:4", "q"):
            with pytest.raises(ConfigError):
                parse_field(text)

    def test_sequence_vars_and_powers(self):
        spec = parse_sequence("vars", 3, QQ)
        assert spec.n_gens == 3 and spec.kind == "variables"
        spec = parse_sequence("powers:2,3", 0, QQ)
        assert spec.powers == (2, 3)
        with pytest.raises(ConfigError):
            parse_sequence("powers:2,3", 3, QQ)      # n disagrees
        with pytest.raises(ConfigError):
            parse_sequence("mystery", 2, QQ)

    def test_sequence_file_json(self, tmp_path):
        f = tmp_path / "seq.json"
        f.write_text('["x1^2", "x2^2"]')
        spec = parse_sequence(f"file:{f}", 2, QQ)
        assert spec.n_gens == 2
        assert [str(p) for p in spec.gens] == ["x1^2", "x2^2"]

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_sequence_file_read_once_per_run(self, command, tmp_path,
                                             count_calls, capsys):
        f = tmp_path / "seq.json"
        f.write_text('["x1", "x2"]')
        calls = count_calls("cli._read_sequence_file")
        assert run([command, "--n", "2", "--s", "2",
                    "--sequence", f"file:{f}"]) == 0
        assert '"ok": true' in capsys.readouterr().out
        assert calls == {"cli._read_sequence_file": 1}

    def test_sequence_file_lines(self, tmp_path):
        f = tmp_path / "seq.txt"
        f.write_text("x1 + x2\nx1*x2\n")
        spec = parse_sequence(f"file:{f}", 2, QQ)
        assert spec.n_gens == 2

    def test_explicit_rejects_inhomogeneous(self):
        with pytest.raises(ConfigError, match="homogeneous"):
            explicit_spec(["x1 + 1"], 2, QQ)
        with pytest.raises(ConfigError):
            explicit_spec(["x1 -x1"], 2, QQ)         # zero
        with pytest.raises(ConfigError):
            explicit_spec(["x3"], 2, QQ)             # parse error

    def test_explicit_rejects_constant(self):
        with pytest.raises(ConfigError, match="degree 0"):
            explicit_spec(["3", "x2"], 2, QQ)

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 2, "s": 3, "field": "Q"}))
        code, doc = capture(capsys, ["tor", "--config", str(cfg), "--s", "2"])
        assert code == 0
        assert doc["config"]["s"] == 2               # flag wins
        assert doc["config"]["n_vars"] == 2

    def test_config_file_inline_sequence(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 2, "s": 2,
                                   "sequence": ["x1", "x2"]}))
        code, doc = capture(capsys, ["build", "--config", str(cfg)])
        assert code == 0
        assert doc["report"]["dims"] == [3, 6, 3]

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"n": 2, "surprise": 1}')
        code, _ = capture(capsys, ["build", "--config", str(cfg)])
        assert code == 2


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, doc = capture(capsys, ["build", "--n", "2", "--s", "2"])
        assert code == 0 and doc["ok"]

    def test_config_errors_are_two(self, capsys):
        assert capture(capsys, ["tor", "--n", "0", "--s", "2"])[0] == 2
        assert capture(capsys, ["tor", "--n", "2", "--s", "0"])[0] == 2
        assert capture(capsys, ["tor", "--n", "2", "--field", "X"])[0] == 2
        assert capture(capsys, ["tor", "--n", "2", "--workers", "0"])[0] == 2

    @pytest.mark.parametrize("body", [
        '{"n": "x"}', '{"s": null}', '{"max_degree": "3"}', '{"out": 5}',
        '{"max_internal": 2.5}', '{"n": 3.7}', '{"workers": true}',
        '{"sequence": [1, 2]}'])
    def test_config_value_of_wrong_type_is_two(self, body, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(body)
        code = run(["build", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_negative_max_degree_is_two(self, capsys):
        code = run(["build", "--n", "2", "--s", "2", "--max-degree", "-3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_constant_generator_is_two(self, tmp_path, capsys):
        f = tmp_path / "seq.json"
        f.write_text('["3", "x2"]')
        code = run(["tor", "--n", "2", "--s", "2", "--sequence", f"file:{f}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    @pytest.mark.parametrize("field,text", [
        ("Fp:3", "1/3*x1"), ("Q", "1/0*x1"), ("Z", "1/0*x1"),
        ("Fp:5", "1/0*x1")])
    def test_bad_denominator_is_two(self, command, field, text, capsys):
        code = run([command, "--n", "2", "--s", "2", "--field", field,
                    "--sequence", f'explicit:["{text}", "x2"]'])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot parse '{text}': ")

    @staticmethod
    def assert_config_error(argv, capsys):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_unwritable_out_is_two(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "x.json"
        self.assert_config_error(["tor", "--n", "2", "--s", "1",
                                  "--out", str(out)], capsys)

    def test_unwritable_out_from_config_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "missing" / "x")}))
        self.assert_config_error(["tor", "--n", "2", "--s", "1",
                                  "--config", str(cfg)], capsys)

    @pytest.mark.parametrize("out", ["missing/x.json", "."])
    def test_bad_out_is_two_before_any_computation(self, out, tmp_path,
                                                   capsys, monkeypatch):
        monkeypatch.setitem(cli._COMMANDS, "tor", _never_run)
        self.assert_config_error(["tor", "--n", "2", "--s", "1",
                                  "--out", str(tmp_path / out)], capsys)

    def test_empty_out_is_two_before_any_computation(self, tmp_path, capsys,
                                                     monkeypatch):
        # an empty path is not "no --out": the report would go to stdout
        # while the config echoed "out": ""
        monkeypatch.setitem(cli._COMMANDS, "tor", _never_run)
        self.assert_config_error(["tor", "--n", "2", "--s", "1",
                                  "--out", ""], capsys)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"out": ""}))
        self.assert_config_error(["tor", "--config", str(cfg)], capsys)

    def test_bad_out_from_config_is_two_before_any_computation(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli._COMMANDS, "tor", _never_run)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"out": str(tmp_path)}))
        self.assert_config_error(["tor", "--config", str(cfg)], capsys)

    def test_closed_stdout_is_two(self):
        # nobody reads the report: a write error, not a failed check (1)
        src = Path(__file__).resolve().parent.parent / "src"
        r, w = os.pipe()
        os.close(r)
        try:
            res = subprocess.run(
                [sys.executable, "-m", "koszulpow.cli", "tor", "--n", "2",
                 "--s", "1"],
                stdout=w, stderr=subprocess.PIPE, text=True, timeout=30,
                env={**os.environ, "PYTHONPATH": str(src)})
        finally:
            os.close(w)
        assert res.returncode == 2
        assert res.stderr.startswith("error: cannot write report:")
        assert len(res.stderr.splitlines()) == 1
        assert "Traceback" not in res.stderr

    def test_composite_modulus_is_two(self, capsys):
        self.assert_config_error(["tor", "--n", "2", "--s", "1",
                                  "--field", "Fp:561"], capsys)

    def test_non_utf8_sequence_file_is_two(self, tmp_path, capsys):
        f = tmp_path / "seq.json"
        f.write_bytes(b"\xff\xfe\x00bad")
        self.assert_config_error(["tor", "--n", "2", "--s", "1",
                                  "--sequence", f"file:{f}"], capsys)

    @pytest.mark.parametrize("seq", ["explicit:nope", 'explicit:"x1"',
                                     "explicit:[1, 2]"],
                             ids=["bad-json", "non-list", "non-string"])
    def test_malformed_explicit_sequence_is_two(self, seq, tmp_path, capsys):
        self.assert_config_error(["tor", "--n", "2", "--s", "1",
                                  "--sequence", seq], capsys)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 2, "sequence": seq}))
        self.assert_config_error(["tor", "--config", str(cfg)], capsys)

    def test_non_utf8_config_file_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(b"\xff\xfe\x00bad")
        self.assert_config_error(["tor", "--config", str(cfg)], capsys)

    def test_math_failure_is_one(self, tmp_path, capsys):
        # honest red: a repeated generator is not regular, so the built
        # complex cannot be exact and the verify grid must catch it
        f = tmp_path / "seq.json"
        f.write_text('["x1", "x1"]')
        code, doc = capture(capsys, ["verify", "--n", "2", "--s", "2",
                                     "--sequence", f"file:{f}",
                                     "--max-internal", "4"])
        assert code == 1
        assert not doc["ok"]
        assert doc["report"]["exactness"]["mismatches"]

    def test_coefficient_prime_above_five_is_one(self, tmp_path, capsys):
        # 7*x2 kills x1 modulo 7*x1: not regular over Z, and only an F_7
        # run sees the 7-torsion
        f = tmp_path / "seq.json"
        f.write_text('["7*x1", "7*x2"]')
        code, doc = capture(capsys, ["verify", "--n", "2", "--s", "2",
                                     "--field", "Z", "--sequence", f"file:{f}"])
        exact = doc["report"]["exactness"]
        assert code == 1
        assert exact["fields_checked"] == ["QQ", "F2", "F3", "F5", "F7"]
        assert "[F7] homology at n=1, d=3 has dim 6, expected 4" in \
            exact["mismatches"]
        assert all(m.startswith("[F7]") for m in exact["mismatches"])

    @pytest.mark.parametrize("seq", ['["2*x1", "x2"]', '["3*x1+x2", "x2"]',
                                     '["x1+3*x2", "x1-4*x2"]'])
    def test_integer_torsion_sequence_is_zero(self, seq, tmp_path, capsys):
        # regular over Z with torsion in R/I^2: the F_p runs see it as H_1
        f = tmp_path / "seq.json"
        f.write_text(seq)
        code, doc = capture(capsys, ["verify", "--n", "2", "--s", "2",
                                     "--field", "Z", "--sequence", f"file:{f}"])
        assert code == 0, doc["report"]["exactness"]["mismatches"]
        assert doc["report"]["exactness"]["fields_checked"] == \
            ["QQ", "F2", "F3", "F5"]

    def test_non_regular_over_integers_is_one(self, tmp_path, capsys):
        f = tmp_path / "seq.json"
        f.write_text('["x1*x2", "x1*x2"]')
        code, doc = capture(capsys, ["verify", "--n", "2", "--s", "2",
                                     "--field", "Z", "--sequence", f"file:{f}"])
        assert code == 1
        assert doc["report"]["exactness"]["mismatches"]


class TestStartup:
    def test_cli_import_skips_concurrent_futures(self):
        # the slices are ranked sequentially; no CLI run pays for the
        # thread-pool machinery at start-up
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import koszulpow.cli, sys; "
                "print('concurrent.futures' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "False"


class TestLargePrimeModulus:
    def test_eighteen_digit_prime_runs_promptly(self):
        # 10^18 + 3 is prime; a trial-division primality test never ends
        src = Path(__file__).resolve().parent.parent / "src"
        res = subprocess.run(
            [sys.executable, "-m", "koszulpow.cli", "tor", "--n", "2",
             "--s", "1", "--field", "Fp:1000000000000000003"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["report"]["ranks"] == [1, 2, 1]


class TestLargeCoefficients:
    @staticmethod
    def verify_file(tmp_path, gens):
        f = tmp_path / "seq.json"
        f.write_text(json.dumps(gens))
        src = Path(__file__).resolve().parent.parent / "src"
        return subprocess.run(
            [sys.executable, "-m", "koszulpow.cli", "verify", "--n", "2",
             "--s", "1", "--field", "Z", "--sequence", f"file:{f}"],
            capture_output=True, text=True, timeout=5,
            env={**os.environ, "PYTHONPATH": str(src)})

    def test_eighteen_digit_prime_coefficient_is_factored(self, tmp_path):
        # 10^18 + 3 is prime; trial division up to its root never ends
        res = self.verify_file(tmp_path, ["1000000000000000003*x1", "x2"])
        assert res.returncode == 0, res.stderr
        assert "F1000000000000000003" in \
            json.loads(res.stdout)["report"]["exactness"]["fields_checked"]

    def test_uncertifiable_prime_factor_is_two(self, tmp_path):
        # 2^89 - 1 is prime but above the Miller-Rabin certificate's range
        res = self.verify_file(tmp_path, [f"{2 ** 89 - 1}*x1", "x2"])
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr


class TestReports:
    def test_build_report(self, capsys):
        code, doc = capture(capsys, ["build", "--n", "2", "--s", "2"])
        assert code == 0
        assert doc["schema_version"] == 2
        assert doc["command"] == "build"
        r = doc["report"]
        assert r["dims"] == [3, 6, 3]
        assert r["d_squared"]["ok"] and r["identities"]["ok"]
        assert r["warning"] is False
        assert "1 <- e{1} : x1" in r["differentials"]["1"]

    def test_build_koszul_case(self, capsys):
        code, doc = capture(capsys, ["build", "--n", "3", "--s", "1"])
        assert code == 0
        assert doc["report"]["dims"] == [1, 3, 3, 1]

    def test_build_warns_on_nonregular_but_proceeds(self, tmp_path, capsys):
        f = tmp_path / "seq.json"
        f.write_text('["x1", "x1"]')
        code, doc = capture(capsys, ["build", "--n", "2", "--s", "2",
                                     "--sequence", f"file:{f}"])
        # d^2 and the identities hold, but (R/I)_1 = k x2 is not 0
        assert code == 1
        r = doc["report"]
        assert r["regularity"] == "not regular: (R/I)_1 has dimension 1, not 0"
        assert r["warning"] is True
        assert not r["regularity_probe"]["ok"]
        assert "NOT regular" in r["regularity_probe"]["summary"]

    @pytest.mark.parametrize("field", ["Q", "Z"])
    def test_build_fails_on_probe_homology(self, capsys, field):
        # two generators in three variables: no regularity defect, but
        # Koszul homology proves x1*x2, x1*x3 is not regular
        code, doc = capture(capsys, [
            "build", "--n", "3", "--s", "2", "--field", field,
            "--sequence", 'explicit:["x1*x2","x1*x3"]'])
        assert code == 1 and not doc["ok"]
        r = doc["report"]
        assert r["warning"] is True and not r["regularity_probe"]["ok"]
        assert r["d_squared"]["ok"] and r["identities"]["ok"]
        code, doc = capture(capsys, [
            "build", "--n", "3", "--s", "2", "--field", field,
            "--sequence", 'explicit:["x1*x2","x3^2"]'])
        assert code == 0 and doc["ok"] and doc["report"]["warning"] is False

    @pytest.mark.parametrize("command", ["build", "verify", "tor",
                                         "spectral", "splice"])
    def test_every_command_acts_on_probe_homology(self, command, capsys,
                                                  count_calls):
        # fewer generators than variables: only the Koszul probe decides,
        # and it runs once per run
        calls = count_calls("homology.koszul_regularity_probe")
        for seq, d, witness in (('["x1*x2","x1*x3"]', 3,
                                 "(-x3)*e{1} + (x2)*e{2}"),
                                ('["x1*x2","x1*x2"]', 2,
                                 "(-1)*e{1} + (1)*e{2}")):
            code, doc = capture(capsys, [command, "--n", "3", "--s", "2",
                                         "--sequence", f"explicit:{seq}"])
            assert code == 1 and not doc["ok"]
            assert doc["report"]["regularity"] == (
                f"homology detected at degree 1, internal degree {d} "
                f"(witness {witness}): sequence is NOT regular")
        code, doc = capture(capsys, [command, "--n", "3", "--s", "2",
                                     "--sequence",
                                     'explicit:["x1*x2","x3^2"]'])
        assert code == 0 and "regularity" not in doc["report"]
        assert calls == {"homology.koszul_regularity_probe": 3}

    def test_verify_over_integers(self, capsys):
        code, doc = capture(capsys, ["verify", "--n", "2", "--s", "2",
                                     "--field", "Z", "--max-internal", "6"])
        assert code == 0
        ex = doc["report"]["exactness"]
        assert ex["fields_checked"] == ["QQ", "F2", "F3", "F5"]
        free = doc["report"]["freeness"]
        assert free["ok"]
        assert all(d == 1 for divs in free["divisors"].values() for d in divs)

    def test_verify_prime_field_skips_divisors(self, capsys):
        code, doc = capture(capsys, ["verify", "--n", "2", "--s", "2",
                                     "--field", "Fp:3",
                                     "--max-internal", "5"])
        assert code == 0
        assert "skipped" in doc["report"]["freeness"]

    def test_tor_report(self, capsys):
        code, doc = capture(capsys, ["tor", "--n", "2", "--s", "2"])
        assert code == 0
        r = doc["report"]
        assert r["ranks"] == [1, 3, 2]
        assert r["routes_agree"] and len(r["routes"]) == 3
        assert r["products"]["all_zero"]
        assert r["induced_reduction"]["zero_in_positive_degrees"]
        assert r["torsion"] == [[], [], []]

    def test_tor_first_power_products_nonzero(self, capsys):
        # control case: the exterior-algebra product table is not zero
        code, doc = capture(capsys, ["tor", "--n", "2", "--s", "1"])
        assert code == 0
        assert doc["report"]["ranks"] == [1, 2, 1]
        assert doc["report"]["products"]["all_zero"] is False

    def test_tor_products_field(self, capsys):
        code, doc = capture(capsys, ["tor", "--n", "2", "--s", "2"])
        assert code == 0
        assert doc["report"]["products"] == {
            "all_zero": True, "certificate": "tag-length", "nonzero": [],
            "pairs": 25}

    def test_tor_first_power_products_field(self, capsys):
        code, doc = capture(capsys, ["tor", "--n", "3", "--s", "1"])
        products = doc["report"]["products"]
        lines = tor(RegularSequenceSpec.variables(3), 1).products.lines()
        assert code == 0
        assert products["certificate"] == "reduced"
        assert products["pairs"] == len(lines) == 49
        assert products["nonzero"] == [ln for ln in lines
                                       if not ln.endswith(" = 0")]
        assert products["nonzero"]

    def test_tor_induced_reduction_field(self, capsys):
        code, doc = capture(capsys, ["tor", "--n", "2", "--s", "3",
                                     "--field", "Fp:7"])
        red = doc["report"]["induced_reduction"]
        assert code == 0
        assert red["zero_in_positive_degrees"]
        # rows: Tor ranks of R/I^2 [1, 3, 2]; columns: of R/I^3 [1, 4, 3]
        assert red["matrices"] == {
            "0": {"shape": [1, 1], "nonzero": [[0, 0, "1"]]},
            "1": {"shape": [3, 4], "nonzero": []},
            "2": {"shape": [2, 3], "nonzero": []}}

    @pytest.mark.parametrize("command", ["build", "verify", "tor",
                                         "spectral", "splice"])
    def test_more_generators_than_variables_is_one(self, command, tmp_path,
                                                   capsys):
        f = tmp_path / "seq.json"
        f.write_text('["x1^2", "x1*x2", "x2^2"]')
        code, doc = capture(capsys, [command, "--n", "2", "--s", "2",
                                     "--sequence", f"file:{f}"])
        assert code == 1
        assert doc["ok"] is False
        assert doc["report"]["regularity"] == \
            "not regular: 3 generators, more than the 2 variables"

    @pytest.mark.parametrize("command", ["build", "verify", "tor",
                                         "spectral", "splice"])
    @pytest.mark.parametrize("seq,reason", [
        ('["x1*x2", "x1*x2"]', "(R/I)_3 has dimension 2, not 0"),
        ('["x1", "x1"]', "(R/I)_1 has dimension 1, not 0")],
        ids=["x1x2-twice", "x1-twice"])
    def test_square_nonregular_sequence_is_one(self, command, seq, reason,
                                               capsys):
        code, doc = capture(capsys, [command, "--n", "2", "--s", "2",
                                     "--sequence", f"explicit:{seq}"])
        assert code == 1 and doc["ok"] is False
        assert doc["report"]["regularity"] == f"not regular: {reason}"

    @pytest.mark.parametrize("command", ["build", "verify", "tor",
                                         "spectral", "splice"])
    @pytest.mark.parametrize("seq", [
        "powers:1,2,2", 'explicit:["x1+2*x2-x3", "x2-x3", "x3"]'],
        ids=["powers122", "linear3"])
    def test_square_regular_sequence_passes(self, command, seq, capsys):
        code, doc = capture(capsys, [command, "--n", "3", "--s", "2",
                                     "--field", "Z", "--sequence", seq])
        assert code == 0 and doc["ok"] is True
        assert "regularity" not in doc["report"]

    @pytest.mark.parametrize("command", ["build", "verify", "tor",
                                         "spectral", "splice"])
    def test_integral_torsion_sequence_passes_every_command(
            self, command, tmp_path, capsys):
        f = tmp_path / "seq.json"
        f.write_text('["2*x1", "x2"]')
        code, doc = capture(capsys, [command, "--n", "2", "--s", "2",
                                     "--field", "Z", "--sequence", f"file:{f}"])
        assert code == 0 and doc["ok"] is True
        assert "regularity" not in doc["report"]

    def test_spectral_report(self, capsys):
        code, doc = capture(capsys, ["spectral", "--n", "2", "--s", "2"])
        assert code == 0
        r = doc["report"]
        assert r["page2"]["off_support"] == []
        assert r["page2"]["ranks"] == {"0,0": 1, "0,1": 0, "0,2": 0,
                                       "1,0": 0, "1,1": 3, "1,2": 2}
        assert r["collapse"]["ok"]
        assert all(b["ok"] for b in r["blocks"].values())

    def test_splice_report_with_theta(self, capsys):
        code, doc = capture(capsys, ["splice", "--n", "2", "--s", "2"])
        assert code == 0
        r = doc["report"]
        assert r["identical"] is True
        assert r["theta"]["verdict"] == "nontrivial"
        assert "eps1(e{1}) = [x1]" in r["theta"]["lines"]
        assert r["theta_split_control"]["verdict"] == "trivial"

    def test_splice_deep_reconstruction(self, capsys):
        code, doc = capture(capsys, ["splice", "--n", "2", "--s", "4"])
        assert code == 0
        assert doc["report"]["identical"] is True
        assert doc["report"]["steps"] == 3
        assert "theta" not in doc["report"]

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = run(["tor", "--n", "2", "--s", "2", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["report"]["ranks"] == [1, 3, 2]


class TestDeterminism:
    def test_byte_identical_repeat_runs(self, capsys):
        run(["spectral", "--n", "3", "--s", "2"])
        first = capsys.readouterr().out
        run(["spectral", "--n", "3", "--s", "2"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("command", ["tor", "spectral"])
    def test_max_degree_read_by_build_only(self, command, capsys):
        _, default = capture(capsys, [command, "--n", "3", "--s", "3"])
        _, capped = capture(capsys, [command, "--n", "3", "--s", "3",
                                     "--max-degree", "0"])
        assert capped["config"].pop("max_degree") == 0
        assert default["config"].pop("max_degree") is None
        assert capped == default

    def test_worker_count_semantics_stable(self, capsys):
        _, one = capture(capsys, ["verify", "--n", "2", "--s", "2",
                                  "--max-internal", "6", "--workers", "1"])
        _, four = capture(capsys, ["verify", "--n", "2", "--s", "2",
                                   "--max-internal", "6", "--workers", "4"])
        one["config"].pop("workers")
        four["config"].pop("workers")
        assert one == four
