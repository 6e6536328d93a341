import argparse
import json
import pathlib

import pytest

from delta_forge import cli
from delta_forge.cli import main
from delta_forge.jets import JetPolynomial, parse_polynomial
from delta_forge.rings import SeriesRing


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, json.loads(out) if out else None

    return _run


class TestRingInfo:
    def test_inline_config(self, run):
        code, doc = run("ring-info", "--ring", '{"p":5,"prec":3,"m":1}')
        assert code == 0
        assert doc["p"] == 5 and doc["q"] == 5

    def test_flag_config_extension(self, run):
        code, doc = run("ring-info", "--p", "5", "--prec", "3", "--m", "2")
        assert code == 0
        assert doc["q"] == 25
        assert "phi_of_t" in doc

    def test_bad_prime(self, run):
        code, doc = run("ring-info", "--ring", '{"p":4,"prec":3}')
        assert code == 2
        assert "error" in doc


class TestDeltaEval:
    def test_small_case(self, run):
        code, doc = run("delta-eval", "--p", "3", "--prec", "4", "2")
        assert code == 0
        # -2 at the reduced precision 3
        assert doc["delta"] == [25]
        assert doc["prec"] == 3

    def test_precision_floor(self, run):
        code, doc = run(
            "delta-eval", "--ring", '{"p":3,"prec":2}', "[5]"
        )
        assert code == 0
        assert doc["prec"] == 1

    def test_kolchin_backend(self, run):
        code, doc = run("delta-eval", "--backend", "kolchin", "--trunc", "5",
                        '["0","0","1"]')
        assert code == 0
        assert doc["delta"] == ["0", "2", "0", "0"]


class TestTeichAndPsi:
    def test_teich(self, run):
        code, doc = run("teich", "--p", "5", "--prec", "2", "2")
        assert code == 0
        assert doc["teichmueller"] == [7]

    def test_psi_unit(self, run):
        code, doc = run("psi", "--p", "3", "--prec", "6", "4")
        assert code == 0
        assert doc["prec"] == 5

    def test_psi_large_prime(self, run, deadline):
        with deadline(1):
            code, doc = run("psi", "--p", "1000003", "--prec", "4", "5")
        assert code == 0
        assert doc == {"prec": 3, "psi": [449088409007311824], "value": [5]}

    def test_psi_non_unit(self, run):
        code, doc = run("psi", "--p", "3", "--prec", "6", "3")
        assert code == 2


class TestJets:
    def test_prolong_text(self, run):
        code, doc = run("jet-prolong", "--p", "3", "--prec", "5", "x0*x1")
        assert code == 0
        assert doc["text"] == "x0^3*x1' + x0'*x1^3 + 3*x0'*x1'"

    def test_prolong_kolchin_roundtrip(self, run):
        code, doc = run("jet-prolong", "--backend", "kolchin", "--trunc", "5",
                        "--times", "2", "x0^2 + x0*x1")
        assert code == 0
        ring = SeriesRing(5)
        want = parse_polynomial("x0^2 + x0*x1", ring).prolong().prolong()
        assert JetPolynomial.from_records(ring, doc["terms"]) == want
        assert doc["terms"] == want.to_records()

    def test_prolong_past_precision_exits_3(self, run):
        # each prolongation uses up one digit, of the zero polynomial too
        for argv in (
            ("--prec", "3", "--times", "3", "x0^2"),
            ("--prec", "2", "--times", "5", "9"),
            ("--prec", "2", "--times", "3", "x0-x0"),
        ):
            code, doc = run("jet-prolong", "--p", "3", *argv)
            assert code == 3
            assert doc["error"] == "precision-exhausted"

    def test_nabla(self, run):
        code, doc = run("jet-nabla", "--p", "3", "--prec", "5",
                        "--order", "2", "2")
        assert code == 0
        chain = doc["components"][0]
        assert chain[0] == [2]
        assert chain[1] == [79]  # -2 mod 81
        assert chain[2] == [2]


class TestHomCheck:
    def test_twisted_passes(self, run):
        code, doc = run("hom-check", "--p", "5", "--prec", "4",
                        "--law", "twisted", "--s", "-1",
                        "--params", '{"mu": 1}', "--samples", "50")
        assert code == 0
        assert doc["pass"] is True

    def test_multiplicative_psi_family_passes(self, run):
        code, doc = run("hom-check", "--p", "3", "--prec", "6",
                        "--law", "multiplicative",
                        "--params", '{"lambda": [1]}', "--samples", "50")
        assert code == 0
        assert doc["pass"] is True


class TestCocycles:
    def test_make_then_check(self, run, tmp_path):
        code, doc = run("cocycle-make", "--ring", '{"p":5,"prec":6}',
                        "--n", "2", "--seed", "5")
        assert code == 0
        payload = tmp_path / "cocycle.json"
        payload.write_text(json.dumps(doc))
        code, rep = run("cocycle-check", "--ring", '{"p":5,"prec":6}',
                        "--n", "2", "--cocycle", str(payload),
                        "--samples", "25", "--seed", "5")
        assert code == 0
        assert rep["pass"] is True

    def test_recover_roundtrip(self, run, tmp_path):
        code, doc = run("cocycle-make", "--ring", '{"p":5,"prec":6}',
                        "--n", "2", "--seed", "6")
        payload = tmp_path / "cocycle.json"
        payload.write_text(json.dumps(doc))
        code, rec = run("cocycle-recover", "--ring", '{"p":5,"prec":6}',
                        "--n", "2", "--cocycle", str(payload))
        assert code == 0
        assert rec["v"]["rows"][0][0] == [0]

    def test_cocycle_of_another_size_exits_2(self, run):
        # a 3x3 v against 2x2 samples used to pass on ragged products
        code, rep = run("cocycle-check", "--p", "5", "--prec", "3", "--n", "2",
                        "--samples", "2", "--map", "coboundary",
                        "--cocycle", '{"n":3,"rows":[[1,2,0],[0,1,3],[4,0,1]]}')
        assert code == 2
        assert rep["error"] == "ShapeError"

    def test_logderiv_coherence(self, run):
        code, rep = run("coherence-check", "--backend", "kolchin",
                        "--trunc", "8", "--n", "2", "--map", "logderiv",
                        "--subgroup", "torus", "--samples", "20")
        assert code == 0
        assert rep["pass"] is True


class TestDecomposeCli:
    def test_non_unit_minor_exit_code(self, run):
        code, doc = run("decompose", "--p", "5", "--prec", "3",
                        '{"n":2,"rows":[[0,1],[1,0]]}')
        assert code == 2

    def test_with_precondition(self, run):
        code, doc = run("decompose", "--p", "5", "--prec", "3",
                        "--precondition",
                        '{"n":2,"rows":[[0,1],[1,0]]}')
        assert code == 0
        assert "word" in doc

    def test_roundtrip_via_files(self, run, tmp_path):
        code, doc = run("decompose", "--p", "5", "--prec", "3",
                        '{"n":2,"rows":[[1,2],[3,4]]}')
        assert code == 0
        wordfile = tmp_path / "word.json"
        wordfile.write_text(json.dumps(doc["word"]))
        code, rec = run("reconstruct", "--p", "5", "--prec", "3",
                        str(wordfile))
        assert code == 0
        assert rec["matrix"]["rows"] == [[[1], [2]], [[3], [4]]]


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        argv = ["cocycle-make", "--ring", '{"p":3,"prec":5}', "--n", "3",
                "--seed", "42"]
        main(list(argv))
        first = capsys.readouterr().out
        main(list(argv))
        second = capsys.readouterr().out
        assert first == second

    def test_env_seed_override(self, run, monkeypatch):
        monkeypatch.setenv("DELTA_FORGE_SEED", "123")
        code1, doc1 = run("cocycle-make", "--ring", '{"p":3,"prec":5}', "--n", "2")
        monkeypatch.setenv("DELTA_FORGE_SEED", "124")
        code2, doc2 = run("cocycle-make", "--ring", '{"p":3,"prec":5}', "--n", "2")
        assert doc1 != doc2


@pytest.mark.parametrize("argv", [
    ("ring-info", "--ring", '{"p":5}'),
    ("decompose", "--p", "5", "--prec", "3", '{"n":2}'),
    ("delta-eval", "--p", "5", "--prec", "3", "abc"),
    ("delta-eval", "--backend", "kolchin", "--trunc", "4", "abc"),
    ("cocycle-check", "--p", "5", "--prec", "3", "--n", "2", "--cocycle", '{"v":1}'),
    ("cocycle-check", "--p", "5", "--prec", "3", "--n", "2", "--map", "coboundary"),
    ("ring-info", "--p", "4", "--prec", "3", "--m", "2"),
    ("ring-info", "--p", "5", "--prec", "3", "--m", "2", "--modulus", "[1,1"),
    ("teich", "--p", "5", "--prec", "2", "abc"),
    ("reconstruct", "--p", "5", "--prec", "3", '{"n":2}'),
    ("reconstruct", "--p", "5", "--prec", "3",
     '{"n":2,"factors":[{"kind":"perm","sigma":[0,"a"]},{"kind":"s","a":1,"b":[0]},'
     '{"kind":"perm","sigma":[0,1]}]}'),
    ("reconstruct", "--p", "5", "--prec", "3", '{"n":true,"factors":[{"kind":"perm","sigma":[0]}]}'),
    ("delta-eval", "--backend", "kolchin", "--trunc", "4", '["1/0"]'),
    ("jet-prolong", "--p", "3", "--prec", "3", '[{"exponents":1}]'),
    ("hom-check", "--p", "5", "--prec", "3", "--law", "additive", "--params", '{"lambda":5}'),
    ("cocycle-check", "--p", "5", "--prec", "3", "--n", "0", "--map", "logderiv"),
    ("decompose", "--p", "5", "--prec", "3", '{"n":0,"rows":[]}'),
    ("jet-nabla", "--p", "5", "--prec", "3", "--order", "-1", "2"),
    ("jet-prolong", "--p", "3", "--prec", "3", "--times", "-1", "x0"),
    ("hom-check", "--p", "5", "--prec", "3", "--law", "additive", "--samples", "0"),
    # TMP is a scratch directory holding bad.json, which reads "{bad"
    ("ring-info", "--ring", "TMP"),
    ("ring-info", "--ring", "TMP/bad.json"),
    ("DELTA_FORGE_SEED=abc", "cocycle-make", "--p", "5", "--prec", "3", "--n", "2"),
    ("--out", "TMP/missing/x.json", "ring-info", "--p", "5", "--prec", "3"),
], ids=" ".join)
def test_malformed_payload_is_input_error(run, argv, tmp_path, monkeypatch):
    (tmp_path / "bad.json").write_text("{bad")
    argv = [a.replace("TMP", str(tmp_path)) for a in argv]
    while "=" in argv[0]:
        monkeypatch.setenv(*argv.pop(0).split("=", 1))
    code, doc = run(*argv)
    assert code == 2
    assert "error" in doc


def test_selftest_quick_report(run):
    code, doc = run("selftest", "--profile", "quick")
    assert code == 0
    assert doc["pass"] is True
    assert len(doc["criteria"]) == 12
    assert all(c["pass"] and c["seconds"] >= 0 for c in doc["criteria"])


class TestOutFile:
    def test_writes_document(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code = main(["--out", str(target), "teich", "--p", "5", "--prec", "2", "2"])
        assert code == 0
        assert json.loads(target.read_text())["teichmueller"] == [7]
        assert capsys.readouterr().out == ""


# every subcommand's options as the parser built before the subcommand table
# declared them: name -> [(flag or name, add_argument's settings)]
OPTIONS = json.loads((pathlib.Path(__file__).parent / "cli_options.json").read_text())


def _surface(parser):
    return [
        [a.option_strings[0] if a.option_strings else a.dest, {
            "action": type(a).__name__, "choices": list(a.choices) if a.choices else None,
            "const": a.const, "default": a.default, "dest": a.dest, "help": a.help,
            "metavar": a.metavar, "nargs": a.nargs, "required": a.required,
            "type": a.type.__name__ if a.type else None,
        }]
        for a in parser._actions if not isinstance(a, argparse._HelpAction)
    ]


class TestParser:
    def test_every_option_surface_is_unchanged(self):
        assert list(cli.COMMANDS) == list(OPTIONS)
        for name, options in OPTIONS.items():
            assert _surface(cli._parser(name)) == options, name

    @pytest.mark.parametrize("name", list(OPTIONS))
    def test_a_call_adds_only_its_own_arguments(self, name, monkeypatch, capsys):
        added, real = [], argparse.ArgumentParser.add_argument

        def record(self, *args, **kwargs):
            added.append(args[0])
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", record)
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        # the top level's own, then one parser's: help and the subcommand's
        top = ["-h", "--out", "cmd", "rest"]
        assert added == top + ["-h"] + [flag for flag, _ in OPTIONS[name]]
        assert capsys.readouterr().out.startswith(f"usage: delta-forge {name} ")

    @pytest.mark.parametrize("argv", [
        ("nope",),
        ("cocycle-check", "--p", "5", "--prec", "3"),
        ("hom-check", "--p", "5", "--prec", "3", "--law", "nope"),
        ("--p", "5", "psi", "2"),
        ("psi", "--p", "5", "--prec", "3", "2", "--out", "TMP/x.json"),
    ], ids=" ".join)
    def test_argparse_rejects_with_exit_2(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([a.replace("TMP", str(tmp_path)) for a in argv])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not list(tmp_path.iterdir())

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert len(OPTIONS) == 14 and all(name in out for name in OPTIONS)
