import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from groupoid_growth import cli, matrix_recursion, selfsimilar, subshift, verify, words

GOLDEN = '{"kind":"sturmian","cf":[1],"cf_periodic":true}'
TM = '{"kind":"substitution","rules":{"0":"01","1":"10"},"seed":"0"}'
# Toeplitz skeletons, whose languages are read off a prefix.
PAPERFOLDING = '{"kind":"toeplitz","skeleton":"0?1?"}'
SKELETON_0_1_0 = '{"kind":"toeplitz","skeleton":"0?1?0"}'


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def without_prefix_mark(out: str, letters: int) -> str:
    """A table read off a prefix of ``letters`` letters without its
    ``#language`` row, which must follow the ``#config`` row."""
    config, mark, rest = out.split("\n", 2)
    assert mark == f"#language=prefix,{letters}"
    return f"{config}\n{rest}"


class TestComplexity:
    def test_csv_stdout(self, capsys):
        code, out, _ = run(capsys, ["complexity", "--source", GOLDEN, "--n-max", "5"])
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0].startswith("#config=") and len(lines[0]) == len("#config=") + 64
        assert lines[1] == "n,p_n"
        assert lines[2:] == ["1,2", "2,3", "3,4", "4,5", "5,6"]

    def test_csv_file_and_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys, ["complexity", "--source", GOLDEN, "--n-max", "8", "--csv", str(path)]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_source_from_file(self, capsys, tmp_path):
        path = tmp_path / "src.json"
        path.write_text(GOLDEN)
        code, out, _ = run(capsys, ["complexity", "--source", str(path), "--n-max", "3"])
        assert code == 0 and "3,4" in out

    def test_usage_error_exit_2(self, capsys):
        code, _, err = run(capsys, ["complexity", "--source", GOLDEN, "--n-max", "0"])
        assert code == 2 and "usage error" in err

    def test_zero_budget_exit_2(self, capsys):
        code, out, err = run(capsys, ["complexity", "--source", GOLDEN, "--n-max", "5", "--budget", "0"])
        assert code == 2 and "budget" in err and out == ""

    def test_budget_changes_digest(self, capsys):
        # The exact Thue-Morse language up to n = 100 reads 1024 letters.  A
        # smaller budget exits 3 instead of printing a truncated table (a
        # 250-letter prefix gives p(100) = 151, not 326); a sufficient one
        # prints the default table under its own digest.  The default-budget
        # digest is the value printed before the budget joined the payload.
        argv = ["complexity", "--source", TM, "--n-max", "100"]
        default = run(capsys, argv)[1].splitlines()
        assert default[0] == "#config=6ecf0b15c151c009529fcd5891cd3c04bf5f1c1e0859db2d4051c5ffd539a51b"
        assert default[-1] == "100,326"
        for budget in ("250", "1023"):
            code, out, err = run(capsys, argv + ["--budget", budget])
            assert (code, out) == (3, "") and f"budget of {budget}" in err
        code, out, _ = run(capsys, argv + ["--budget", "1024"])
        lines = out.splitlines()
        assert code == 0 and lines[1:] == default[1:] and lines[0] != default[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["complexity", "--n-max", "4"],
            ["algebra-growth", "--n-max", "2"],
            ["semigroup-growth", "--n-max", "4"],
            ["module-growth", "--n-max", "2"],
            ["expansive", "--n", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_budget_in_digest(self, capsys, argv):
        digests = [
            run(capsys, argv + ["--source", GOLDEN] + extra)[1].splitlines()[0]
            for extra in ([], ["--budget", "300"], ["--budget", "400"])
        ]
        assert len(set(digests)) == 3

    def test_factor_cap_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(subshift, "FACTOR_CAP", 100)
        code, out, err = run(capsys, ["complexity", "--source", GOLDEN, "--n-max", "40"])
        assert code == 3 and "resource cap: factor enumeration exceeded cap 100" in err and out == ""

    def test_missing_source_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["complexity", "--source", str(tmp_path / "nope.json"), "--n-max", "2"])
        assert code == 2 and "usage error" in err

    def test_bad_json_exit_2(self, capsys):
        code, _, _ = run(capsys, ["complexity", "--source", '{"kind":"nope"}', "--n-max", "2"])
        assert code == 2

    def test_paperfolding(self, capsys):
        # A two-hole Toeplitz word resolves at any depth; its complexity is
        # 4n from n = 7 on (Allouche 1992).  The default 8192-letter prefix
        # reaches 14 filling levels, and the table says it was read off it.
        # "depth_cap" is not a field of a Toeplitz source, so it exits 2 and
        # is named.
        code, out, _ = run(capsys, ["complexity", "--source", PAPERFOLDING, "--n-max", "12"])
        assert code == 0 and out.splitlines()[1] == "#language=prefix,8192"
        assert out.splitlines()[9:] == [f"{n},{4 * n}" for n in range(7, 13)]
        source = '{"kind":"toeplitz","skeleton":"0?1?","depth_cap":1}'
        code, out, err = run(capsys, ["complexity", "--source", source, "--n-max", "12"])
        assert (code, out) == (2, "") and "unknown key 'depth_cap'" in err


class TestWholeWordSources:
    # An explicit word and an eventually periodic word read their whole
    # language: below the letters it needs, the CLI exits 3 with no table
    # (a 100-letter prefix of a 300-letter word, or 20 letters of
    # 0^30 1|1, would print a smaller p(8)); at or above them it prints
    # the exact table.
    WORD = "".join(map(random.Random(7).choice, ["01"] * 300))
    EXPLICIT = {"kind": "explicit", "word": WORD}
    PERIODIC = {"kind": "eventually_periodic", "pre": "0" * 30 + "1", "period": "1"}

    @staticmethod
    def window_counts(word: str, n_max: int) -> list[str]:
        return [f"{n},{len({word[i : i + n] for i in range(len(word) - n + 1)})}" for n in range(1, n_max + 1)]

    @pytest.mark.parametrize(
        "source, need, text, short",
        [
            (EXPLICIT, 300, WORD, (100, 299)),
            (PERIODIC, 40, "0" * 30 + "1" * 10, (20, 39)),
            # An integer field may be a decimal string.
            ({**PERIODIC, "alphabet": "3"}, 40, "0" * 30 + "1" * 10, (20, 39)),
        ],
        ids=["explicit", "eventually_periodic", "alphabet-string"],
    )
    def test_complexity(self, capsys, source, need, text, short):
        argv = ["complexity", "--source", json.dumps(source), "--n-max", "8", "--budget"]
        for budget in short:
            code, out, err = run(capsys, argv + [str(budget)])
            assert (code, out) == (3, "") and f"needs {need} letters, more than the budget of {budget}" in err
        for budget in (need, 8192):
            code, out, _ = run(capsys, argv + [str(budget)])
            assert code == 0 and out.splitlines()[2:] == self.window_counts(text, 8)

    def test_delta(self, capsys):
        for budget, want in ((20, None), (39, None), (40, "4,9,exact")):
            model = json.dumps({"kind": "subshift", "source": self.PERIODIC, "n_max": 8, "budget": budget})
            code, out, err = run(capsys, ["delta", "--model", model, "--r", "4"])
            if want is None:
                assert (code, out) == (3, "") and "needs 40 letters" in err
            else:
                assert code == 0 and out.splitlines()[-1] == want


class TestParserReuse:
    def test_back_to_back_calls(self, capsys, tmp_path):
        # One parser serves every call in a process; no option of one call
        # reaches the next, and a rejected argv leaves the parser usable.
        calls = [
            ["complexity", "--source", TM, "--n-max", "6", "--budget", "64", "--csv", str(tmp_path / "p.csv")],
            ["complexity", "--source", TM, "--n-max", "6"],
            ["complexity", "--source", TM, "--n-max", "six"],
            ["semigroup-growth", "--source", GOLDEN, "--n-max", "4"],
        ]

        def call(argv):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
            return code, capsys.readouterr().out

        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(call(argv))
        cli.build_parser.cache_clear()
        assert [call(argv) for argv in calls] == fresh
        assert [code for code, _ in fresh] == [0, 0, 2, 0]
        assert fresh[0][1] == "" and fresh[1][1].startswith("#config=") and fresh[3][1].startswith("#config=")
        assert cli.build_parser() is cli.build_parser()


def subparsers(parser):
    """The subcommand parsers of ``parser``, by name, in declaration order."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def is_set_up(parser) -> bool:
    return type(parser) is argparse.ArgumentParser


def action_rows(parser):
    return [
        (
            tuple(a.option_strings),
            a.dest,
            a.default,
            a.type and a.type.__name__,
            a.required,
            a.choices and tuple(a.choices),
            type(a).__name__,
        )
        for a in parser._actions
        if not isinstance(a, argparse._SubParsersAction)
    ]


HELP = (("-h", "--help"), "help", argparse.SUPPRESS, None, False, None, "_HelpAction")
SOURCE = (("--source",), "source", None, None, True, None, "_StoreAction")
MODEL = (("--model",), "model", None, None, True, None, "_StoreAction")
GROUP = (("--group",), "group", None, None, True, None, "_StoreAction")
ELEMENT = (("--element",), "element", None, None, True, None, "_StoreAction")
N_MAX = (("--n-max",), "n_max", None, "int", True, None, "_StoreAction")
R = (("--r",), "r", None, "int", True, None, "_StoreAction")
BUDGET = (("--budget",), "budget", None, "int", False, None, "_StoreAction")
CSV = (("--csv",), "csv", None, None, False, None, "_StoreAction")
FIELD_Q = (("--field",), "field", "Q", None, False, None, "_StoreAction")

# Each subcommand's actions and defaults, as the parser built every
# subcommand up front before its parsers were set up on their first parse.
DECLARATIONS = {
    "complexity": ([HELP, SOURCE, N_MAX, BUDGET, CSV], "cmd_complexity"),
    "delta": (
        [HELP, MODEL, R, (("--units-policy",), "units_policy", "windows", None, False, None, "_StoreAction"), CSV],
        "cmd_delta",
    ),
    "ball": (
        [
            HELP,
            MODEL,
            (("--unit",), "unit", None, None, True, None, "_StoreAction"),
            R,
            (("--dot",), "dot", None, None, False, None, "_StoreAction"),
        ],
        "cmd_ball",
    ),
    "algebra-growth": (
        [
            HELP,
            SOURCE,
            N_MAX,
            FIELD_Q,
            BUDGET,
            (("--oracle-upto",), "oracle_upto", 0, "int", False, None, "_StoreAction"),
            CSV,
        ],
        "cmd_algebra_growth",
    ),
    "semigroup-growth": ([HELP, SOURCE, N_MAX, BUDGET, CSV], "cmd_semigroup_growth"),
    "module-growth": ([HELP, SOURCE, N_MAX, FIELD_Q, BUDGET, CSV], "cmd_module_growth"),
    "expansive": (
        [HELP, SOURCE, (("--n",), "n", None, "int", True, None, "_StoreAction"), BUDGET, CSV],
        "cmd_expansive",
    ),
    "nucleus": ([HELP, GROUP, (("--cap",), "cap", 10_000, "int", False, None, "_StoreAction")], "cmd_nucleus"),
    "germ": (
        [HELP, GROUP, ELEMENT, (("--point",), "point", None, None, True, None, "_StoreAction")],
        "cmd_germ",
    ),
    "matrix-recursion": (
        [
            HELP,
            GROUP,
            ELEMENT,
            FIELD_Q,
            (("--levels",), "levels", None, "int", True, None, "_StoreAction"),
            (("--print",), "print_matrix", False, None, False, None, "_StoreTrueAction"),
        ],
        "cmd_matrix_recursion",
    ),
    "thinned-growth": (
        [HELP, GROUP, N_MAX, (("--field",), "field", "F2", None, False, None, "_StoreAction"), CSV],
        "cmd_thinned_growth",
    ),
    "verify-all": (
        [HELP, (("--profile",), "profile", "quick", None, False, ("quick", "full"), "_StoreAction")],
        "cmd_verify_all",
    ),
}


class TestParserSetUp:
    def test_only_the_invoked_subcommand_is_set_up(self, capsys):
        cli.build_parser.cache_clear()
        parsers = subparsers(cli.build_parser())
        assert list(parsers) == list(DECLARATIONS) and not any(map(is_set_up, parsers.values()))
        code, out, _ = run(capsys, ["complexity", "--source", TM, "--n-max", "6"])
        assert code == 0 and out.startswith("#config=")
        assert [name for name, p in parsers.items() if is_set_up(p)] == ["complexity"]
        first = parsers["complexity"]
        actions = list(first._actions)
        code, _, _ = run(capsys, ["semigroup-growth", "--source", GOLDEN, "--n-max", "4"])
        assert code == 0
        assert [name for name, p in parsers.items() if is_set_up(p)] == ["complexity", "semigroup-growth"]
        assert parsers["complexity"] is first and first._actions == actions

    def test_declarations(self, capsys):
        cli.build_parser.cache_clear()
        parser = cli.build_parser()
        assert action_rows(parser) == [HELP, (("--seed",), "seed", 0, "int", False, None, "_StoreAction")]
        for name, p in subparsers(parser).items():
            with pytest.raises(SystemExit) as exit:
                p.parse_args(["--help"])  # sets the parser up, then prints its help
            assert exit.value.code == 0 and capsys.readouterr().out.startswith(f"usage: groupoid-growth {name} [-h]")
            actions, fn = DECLARATIONS[name]
            assert (name, action_rows(p), p._defaults) == (name, actions, {"fn": getattr(cli, fn)})


class TestCsvCells:
    CELLS = [
        (3, "3"),
        (True, "True"),
        ("plain", "plain"),
        ("", ""),
        ("a,b", '"a,b"'),
        ('say "hi"', '"say ""hi"""'),
        ("two\nlines", '"two\nlines"'),
        ('x,"y"\nz', '"x,""y""\nz"'),
    ]

    @pytest.mark.parametrize("value, cell", CELLS)
    def test_cell(self, value, cell):
        assert cli._csv_cell(value) == cell

    def test_mixed_table(self, capsys, tmp_path):
        rows = [[1, "a,b", True], [2, 'q"uote', False], [3, "", "line\nbreak"]]
        want = (
            "#config=a0da1fce57d0e4f9f0ae4e4cbe040d34dcc046255c6c8d18e97f55aaed0655f0\n"
            "n,text,flag\n"
            '1,"a,b",True\n'
            '2,"q""uote",False\n'
            '3,,"line\nbreak"\n'
        )
        cli._emit_csv(None, ["n", "text", "flag"], rows, {"k": 1})
        assert capsys.readouterr().out == want
        path = tmp_path / "t.csv"
        cli._emit_csv(str(path), ["n", "text", "flag"], rows, {"k": 1})
        assert path.read_bytes() == want.encode()


class TestDelta:
    def test_subshift_exact(self, capsys):
        model = json.dumps({"kind": "subshift", "source": json.loads(GOLDEN), "n_max": 10})
        code, out, _ = run(capsys, ["delta", "--model", model, "--r", "3"])
        assert code == 0
        assert out.strip().splitlines()[-1] == "3,7,exact"

    def test_germ_lower_bound(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "delta",
                "--model",
                "grigorchuk",
                "--r",
                "1",
                "--units-policy",
                "periodic:pre=1,period=1",
            ],
        )
        assert code == 0
        assert out.strip().splitlines()[-1].endswith(",lower_bound")

    def test_unit_family_over_cap_exit_3(self, capsys):
        # About 5e24 points: refused before the first one is built.
        argv = ["delta", "--model", "grigorchuk", "--r", "1", "--units-policy", "periodic:pre=40,period=40"]
        code, out, err = run(capsys, argv)
        assert code == 3 and "resource cap" in err and "periodic units" in err and out == ""

    def test_uncertified_language_lower_bound(self, capsys):
        # Paperfolding is read off a prefix, which certifies nothing, so
        # delta is a lower bound even with every window of the prefix.
        source = {"kind": "toeplitz", "skeleton": "0?1?"}
        model = json.dumps({"kind": "subshift", "source": source, "n_max": 12})
        code, out, _ = run(capsys, ["delta", "--model", model, "--r", "3"])
        assert code == 0
        assert out.strip().splitlines()[-1] == "3,23,lower_bound"

    def test_policy_mismatch(self, capsys):
        code, _, _ = run(
            capsys, ["delta", "--model", "grigorchuk", "--r", "1", "--units-policy", "windows"]
        )
        assert code == 2

    BASILICA = json.dumps(
        {
            "kind": "germ",
            "group": {
                "alphabet": 2,
                "generators": {"a": {"perm": [0, 1], "rest": ["", "b"]}, "b": {"perm": [1, 0], "rest": ["", "a"]}},
            },
        }
    )

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["delta", "--model", "grigorchuk", "--units-policy", "periodic:pre=3,period=3", "--r", "12"],
                "80f760b1ce84940d79301fc366ced984aa08f41f96b554f66a0b1c6b648ad7b2",
            ),
            (
                ["delta", "--model", BASILICA, "--units-policy", "periodic:pre=2,period=2", "--r", "6"],
                "fcccec3d30b0450d1f0c188fe4b0c67c13216aba1de63379c4602f769c0c306d",
            ),
            (
                ["ball", "--model", "grigorchuk", "--unit", "0|1", "--r", "4"],
                "fd8a1547b359b6b44e81dd41e387dd6fbbeafaba1caa665497ef71fc75282342",
            ),
        ],
        ids=["delta-grigorchuk", "delta-basilica", "ball-grigorchuk"],
    )
    def test_germ_output_bytes(self, capsys, argv, digest):
        code, out, _ = run(capsys, argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    # One source per kind (the Sturmian cf drawn with random.Random(26)),
    # and a substitution and a skeleton whose languages are read off a
    # prefix and so are not exact.
    SUBSHIFT_SOURCES = {
        "thue-morse": json.loads(TM),
        "sturmian": {"kind": "sturmian", "cf": [3, 1, 3, 1], "cf_periodic": True},
        "eventually_periodic": {"kind": "eventually_periodic", "pre": "0" * 30 + "1", "period": "1"},
        "explicit": {"kind": "explicit", "word": "".join(map(random.Random(7).choice, ["01"] * 300))},
        "0-001-1-1": {"kind": "substitution", "rules": {"0": "001", "1": "1"}, "seed": "0"},
        "toeplitz": {"kind": "toeplitz", "skeleton": "0?1?"},
    }

    # (source, r) -> delta row and sha256 of the whole stdout, at n_max = 2r.
    SUBSHIFT_DELTA = {
        ("thue-morse", 1): ("1,4,exact", "08cb073a587443f62b2ffebddfb0b038362895c238f345bc25fbd3bcabc1def6"),
        ("thue-morse", 5): ("5,28,exact", "099bb9763d7cc452b9cd67c785a7af270a6ba41be00272f1358bc47bacf2ff11"),
        ("thue-morse", 20): ("20,124,exact", "cafb792cb7ca977057cc6903453fbfffcc42ec6362e49e603b2f948552622a87"),
        ("sturmian", 1): ("1,3,exact", "13b36ab68799ae822591717494cb6d65bb30f8aaf19db034295f58cefaf0ddc2"),
        ("sturmian", 5): ("5,11,exact", "7511904066becba234ee243c5c79ccbf055ec44e52c56ef863f8af24cc155496"),
        ("sturmian", 20): ("20,41,exact", "ead5d8fe2f647e213be0b5436c880c904e2a3d10a7e9c8d745ed355c07146781"),
        ("eventually_periodic", 1): ("1,3,exact", "90b076a7d3d1144a25dbd27ad40f8e7ca665b6afcde303828120e1e8a376f2d8"),
        ("eventually_periodic", 5): ("5,11,exact", "e8205901674cd491e168e4aa1c5cd9dcb6dcb031d1a8831d4dfca85e26cdbe65"),
        ("eventually_periodic", 20): ("20,31,exact", "022283216e8c28da7985b5c498dfa994b9213df1693178385467ef2589ca0c10"),
        ("explicit", 1): ("1,4,exact", "6cd0341988cfd1249f0d0869a977b07c3c8e3c2968749d79e4fc1e2a5bb314ef"),
        ("explicit", 5): ("5,241,exact", "65cecef310a3e93faf952d776cffe5af874be5826bcf12d1181d2da2f6171373"),
        ("explicit", 20): ("20,261,exact", "cf415a6338ad45134aca9b38ce836648a93c37bb01076ee80b2cce8a31353359"),
        ("0-001-1-1", 1): ("1,4,lower_bound", "2156b09f62d7a1f53ae19e7e965a37288018955ac9bdc172804e9353bd6e82f2"),
        ("0-001-1-1", 5): ("5,43,lower_bound", "3d8c21e377e9d0cbf022c4bb374f481030991097900745400a9d32cc2cfb2a59"),
        ("0-001-1-1", 20): ("20,342,lower_bound", "9b412a7a2956021758e2a3996c68c41ea8ea83aa7fb347aed74da0cef495cbfa"),
        ("toeplitz", 1): ("1,4,lower_bound", "f17a1f6b904712373b85a10c932f35e6dfaa536f365170beade5f39351ec551e"),
        ("toeplitz", 5): ("5,40,lower_bound", "534599638a96eddf9dc6abe28635064ffd37e97d21625ad71e02440b034685dc"),
        ("toeplitz", 20): ("20,160,lower_bound", "5ac2faf09c4219bf18a74e1e7e96dd32354910aec78c90799e27a9bf3105b71b"),
    }

    @pytest.mark.parametrize("source, r", list(SUBSHIFT_DELTA), ids=[f"{s}-r{r}" for s, r in SUBSHIFT_DELTA])
    def test_subshift_output_bytes(self, capsys, source, r):
        # Digests recorded when delta still built and coded one ball per
        # window; it now prints p(2r), with the same bytes.  A lower bound
        # comes from a prefix-read language, whose table has since gained
        # a #language row: the rest is unchanged.
        model = json.dumps({"kind": "subshift", "source": self.SUBSHIFT_SOURCES[source], "n_max": 2 * r})
        code, out, _ = run(capsys, ["delta", "--model", model, "--r", str(r)])
        row, digest = self.SUBSHIFT_DELTA[source, r]
        assert code == 0 and out.splitlines()[-1] == row
        if row.endswith("lower_bound"):
            out = without_prefix_mark(out, max(8192, 40 * (2 * r) ** 2))
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_radius_past_n_max_exit_2(self, capsys):
        model = json.dumps({"kind": "subshift", "source": json.loads(GOLDEN), "n_max": 9})
        code, out, err = run(capsys, ["delta", "--model", model, "--r", "5"])
        assert (code, out) == (2, "") and "--r 5" in err and "n_max = 9" in err


class TestBall:
    def test_dot_output(self, capsys, tmp_path):
        model = json.dumps({"kind": "subshift", "source": json.loads(GOLDEN), "n_max": 10})
        path = tmp_path / "ball.dot"
        code, _, err = run(
            capsys, ["ball", "--model", model, "--unit", "0100:2", "--r", "2", "--dot", str(path)]
        )
        assert code == 0
        text = path.read_text()
        assert "doublecircle" in text and text.count("->") == 4
        assert "vertices=5" in err

    def test_germ_ball(self, capsys):
        code, out, _ = run(
            capsys, ["ball", "--model", "adding_machine", "--unit", "|0", "--r", "1"]
        )
        assert code == 0 and "digraph ball" in out

    # (source, unit, r) -> exit code, sha256 of stdout and the stderr line,
    # at n_max = 10.  The letter at position k is letters[origin + k], so
    # the ball spells the 2r letters from origin - r.
    SUBSHIFT_BALLS = {
        (GOLDEN, "01001010:4", 3): (0, "966c65ae0ac9ca406cd72b22591aa6b09e3db950eca72b030a9c06c4182f9bff", "vertices=7 edges=6\n"),
        (GOLDEN, "0100101:2", 2): (0, "81236b9313e0e3c5b3411fa8f3995622462a188794b99c2de85fd5333843c50d", "vertices=5 edges=4\n"),
        (TM, "0110100110:5", 5): (0, "e76a5de27a720efbe377678963fdc4912eaa76bfee33c9c31ee8c21f7806f228", "vertices=11 edges=10\n"),
        (GOLDEN, "0100:1", 2): (
            2,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "usage error: window too short for radius 2\n",
        ),
    }

    @pytest.mark.parametrize(
        "source, unit, r",
        list(SUBSHIFT_BALLS),
        ids=["golden-r3", "golden-off-centre", "thue-morse-r5", "window-too-short"],
    )
    def test_subshift_ball_bytes(self, capsys, source, unit, r):
        model = json.dumps({"kind": "subshift", "source": json.loads(source), "n_max": 10})
        code, out, err = run(capsys, ["ball", "--model", model, "--unit", unit, "--r", str(r)])
        assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == self.SUBSHIFT_BALLS[source, unit, r]


class TestAlgebraGrowth:
    def test_with_oracle(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "algebra-growth",
                "--source",
                GOLDEN,
                "--n-max",
                "4",
                "--field",
                "F2",
                "--oracle-upto",
                "3",
            ],
        )
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines()[2:]]
        assert [r[1] for r in rows] == ["4", "10", "20", "34"]
        assert all(r[4] == "True" for r in rows)

    def test_negative_oracle_upto_exit_2(self, capsys):
        argv = ["algebra-growth", "--source", GOLDEN, "--n-max", "4", "--oracle-upto", "-2"]
        code, out, err = run(capsys, argv)
        assert code == 2 and "--oracle-upto" in err and out == ""

    def test_oracle_over_cap_exit_3(self, capsys):
        # 5^9 = 1,953,125 generator words at n = 9: refused before level 1 is built.
        argv = ["algebra-growth", "--source", GOLDEN, "--n-max", "9", "--oracle-upto", "9"]
        code, out, err = run(capsys, argv)
        assert code == 3 and "1953125 generator words" in err and out == ""

    @pytest.mark.parametrize(
        "source, extra, digest",
        [
            # Thue-Morse and tribonacci are closed under reversal, the
            # eventually periodic word 1101|001 is not.
            (TM, ["--n-max", "12"], "3c13c67875c1616b3972476c032c994eaba6e61c234f486aa21bddcfcb465c9d"),
            (
                '{"kind":"substitution","rules":{"0":"01","1":"02","2":"0"},"seed":"0"}',
                ["--n-max", "10", "--field", "Fp:3", "--oracle-upto", "3"],
                "68ae13ea379e33227a6988a1038ff09cb1e17a7a8de31827dd81fa3c262b9b19",
            ),
            (
                '{"kind":"eventually_periodic","pre":"1101","period":"001"}',
                ["--n-max", "10"],
                "0909f399539a22c2fd1f96e6012f54dc34c59b566474385126b5bcf01e12d7a3",
            ),
        ],
        ids=["thue-morse-q", "tribonacci-f3", "eventually-periodic-q"],
    )
    def test_output_bytes(self, capsys, source, extra, digest):
        code, out, _ = run(capsys, ["algebra-growth", "--source", source] + extra)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    def test_semigroup(self, capsys):
        code, out, _ = run(capsys, ["semigroup-growth", "--source", GOLDEN, "--n-max", "3"])
        assert code == 0
        assert out.strip().splitlines()[2:] == ["0,1", "1,3", "2,6", "3,10"]

    def test_module(self, capsys):
        code, out, _ = run(capsys, ["module-growth", "--source", TM, "--n-max", "3"])
        assert code == 0
        assert out.strip().splitlines()[2:] == ["0,1,1", "1,3,3", "2,5,5", "3,7,7"]

    def test_expansive(self, capsys):
        code, out, _ = run(capsys, ["expansive", "--source", GOLDEN, "--n", "3"])
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines()[2:]]
        assert all(r[1] == r[2] for r in rows)


class TestLanguageTables:
    # The five commands that print a table of one source's language.
    ARGS = {
        "complexity": ["--n-max", "12"],
        "algebra-growth": ["--n-max", "4"],
        "semigroup-growth": ["--n-max", "8"],
        "module-growth": ["--n-max", "5"],
        "expansive": ["--n", "6"],
    }
    SOURCES = {"golden": GOLDEN, "thue-morse": TM, "0?1?": PAPERFOLDING}

    # (command, source, budget) -> sha256 of [exit code, stdout, stderr] as
    # JSON, recorded while each command still read, built and emitted its
    # table by itself.  A 0?1? table is read off a prefix and has since
    # gained a #language row; it is hashed without it.
    PINS = {
        ("complexity", "golden", None): "79f93d30cf946e62d78ad405309e850aea6f09104b6d158d09e7835eaaeb0ef7",
        ("complexity", "golden", 5000): "d54377cdfc1aa8cb45b22452e73377f5c303633e6909fdb74763ba7996d1424a",
        ("complexity", "golden", 0): "81798ac5aeda25d776cf1a5071d44789110a5b8a5e22a0bc123e1230808bcee4",
        ("complexity", "thue-morse", None): "a3f38b1b092f66c9e6c8661270776af4a452c4d3460b0101cb6d18378928557e",
        ("complexity", "thue-morse", 5000): "6b15da2f7e227f3d834125c44c9d45ad0d61e8b9e18a80be44646b7b141bc45d",
        ("complexity", "0?1?", None): "6fb7ccd9cf49b37a9d2d9652aadf6c796fcc3a2811d1f9a2b0f6c6aafddabba3",
        ("complexity", "0?1?", 5000): "31a53a04195261d04eb39660788e02ae42a499bf1e535378fc74938fa1522d8b",
        ("algebra-growth", "golden", None): "d287af6ca1ca1231fac8669d722d0acd17221133704fd7316f9fdd4138db482b",
        ("algebra-growth", "golden", 5000): "d9bc343fd7b580aabdc0f1af2f34ce3c0e8a299b6e39fd18febcca908f2723bf",
        ("algebra-growth", "golden", 0): "81798ac5aeda25d776cf1a5071d44789110a5b8a5e22a0bc123e1230808bcee4",
        ("algebra-growth", "thue-morse", None): "a905e571063f1365b281bae29a15d0925d3bbe0a19e2a10b25321bf505cadb02",
        ("algebra-growth", "thue-morse", 5000): "15abb662afa0de05274f9b89cf8bea3223866463fd5d43418afdb9cf4eda4973",
        ("algebra-growth", "0?1?", None): "e6d657ace97c6541678eaf237123b8750d1137c97161d76969bfab34876daae5",
        ("algebra-growth", "0?1?", 5000): "9b636a1ab17e393bb1da5ad13eee2e197d828b3b1719103ea36ad8c0bb17ef6d",
        ("semigroup-growth", "golden", None): "0e9d852e1dfa135e26a64fbb69e5328699de6973cadb4b403f15321ff9d293ff",
        ("semigroup-growth", "golden", 5000): "0394fe505e8d674a059664340416ee1cb10c704a03c27b77940bccdeb3c4e161",
        ("semigroup-growth", "golden", 0): "81798ac5aeda25d776cf1a5071d44789110a5b8a5e22a0bc123e1230808bcee4",
        ("semigroup-growth", "thue-morse", None): "3f8c40566016a5378efd29a8f7a6e5ad78775bfc2fe4283e1d73dbf149bc567f",
        ("semigroup-growth", "thue-morse", 5000): "c7c96d43320d85bc51822163730696e8a54c09b49f1d554dde119ba5c49110c7",
        ("semigroup-growth", "0?1?", None): "5c7e757a2a289213d32d2a43a731b5199292f78b13d84f1d220a87816475cd3b",
        ("semigroup-growth", "0?1?", 5000): "afe50e8436e7093e99ff95f813aa4ae70399cb28a920f6cd13a00fa6b293f574",
        ("module-growth", "golden", None): "3ef7c685e2b9b49590fd0a40d9fda9fa191475473f5aaaea888b507cf62ec724",
        ("module-growth", "golden", 5000): "5f970917c2f8257e5590c1b7fb1ad4cbad34c3830a0f34620a7a2506cbd036bf",
        ("module-growth", "golden", 0): "81798ac5aeda25d776cf1a5071d44789110a5b8a5e22a0bc123e1230808bcee4",
        ("module-growth", "thue-morse", None): "79c045ef3146ddd06528aa608a8196e34b248f434d8f2751223e7868581a7e12",
        ("module-growth", "thue-morse", 5000): "2b7598090cda11592ebab7a2545f329af05f4dd992636903661c9cf490552558",
        ("module-growth", "0?1?", None): "5fcd83e98abecee753cec69f734829520c47634f1f42ada23385f9dbfab42fc2",
        ("module-growth", "0?1?", 5000): "eb994f56682321d1a28d0d3f03ba06f7138443d95099bb20ccd7ed7e375387e0",
        ("expansive", "golden", None): "373ea30a69d274790a346f1af4f891b55f0b56a8a123f83066e661775826ea53",
        ("expansive", "golden", 5000): "83678de075c5b1e8784a39c54c2e61b6402cf42b3bae019cd28e4f2d59662c22",
        ("expansive", "golden", 0): "81798ac5aeda25d776cf1a5071d44789110a5b8a5e22a0bc123e1230808bcee4",
        ("expansive", "thue-morse", None): "461ee8c3812d068bedf8e3feb9dcdcc50976a5665b42354a70397168cd71b03a",
        ("expansive", "thue-morse", 5000): "9fd7414993429544bd67440d370a2f841195adb303e4179edfd341ff9f96dc3f",
        ("expansive", "0?1?", None): "b3e99e29d8cd06d3e2b715b0afb2bde866dea8fe5fdb33a280f7583574a75b89",
        ("expansive", "0?1?", 5000): "e2875b8fdcf232d87b75812c7db6f7e45b33d732d66d2c50d7bfa71169d6338e",
    }

    @pytest.mark.parametrize("cmd, source, budget", list(PINS), ids=lambda v: str(v))
    def test_output_bytes(self, capsys, cmd, source, budget):
        argv = [cmd, "--source", self.SOURCES[source], *self.ARGS[cmd]]
        code, out, err = run(capsys, argv + ([] if budget is None else ["--budget", str(budget)]))
        if source == "0?1?":
            # max(8192, 40 n^2) letters at every length asked for here.
            out = without_prefix_mark(out, budget or 8192)
        assert hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest() == self.PINS[cmd, source, budget]

    @pytest.mark.parametrize("cmd", list(ARGS))
    def test_prefix_mark(self, capsys, cmd):
        code, out, _ = run(capsys, [cmd, "--source", SKELETON_0_1_0, *self.ARGS[cmd]])
        assert code == 0 and out.splitlines()[1] == "#language=prefix,8192"

    def test_visibly_wrong_table_says_so(self, capsys):
        # 20 letters of 0?1? give p(6) = p(7) = p(8) = 13, which no
        # aperiodic word has (Morse-Hedlund 1938): the mark names the prefix.
        code, out, _ = run(capsys, ["complexity", "--source", PAPERFOLDING, "--n-max", "8", "--budget", "20"])
        assert code == 0 and out.splitlines()[1] == "#language=prefix,20"
        assert out.splitlines()[-3:] == ["6,13", "7,13", "8,13"]

    @pytest.mark.parametrize("n_max, letters", [(5, 8192), (25, 25_000)])
    def test_default_budget_is_build_languages(self, capsys, n_max, letters):
        code, out, _ = run(capsys, ["complexity", "--source", PAPERFOLDING, "--n-max", str(n_max)])
        lang = subshift.build_language(words.source_from_config(json.loads(PAPERFOLDING)), n_max)
        assert code == 0 and lang.prefix_len == letters
        assert out.splitlines()[1] == f"#language=prefix,{letters}"

    def test_delta_prefix_mark(self, capsys):
        model = json.dumps({"kind": "subshift", "source": json.loads(SKELETON_0_1_0), "n_max": 8})
        code, out, _ = run(capsys, ["delta", "--model", model, "--r", "3"])
        lines = out.splitlines()
        assert code == 0 and lines[1:3] == ["#language=prefix,8192", "r,delta,flag"]
        assert lines[-1].endswith(",lower_bound")

    def test_ball_prefix_mark(self, capsys):
        model = json.dumps({"kind": "subshift", "source": json.loads(SKELETON_0_1_0), "n_max": 8, "budget": 5000})
        code, out, _ = run(capsys, ["ball", "--model", model, "--unit", "0110100110:5", "--r", "2"])
        assert code == 0 and out.splitlines()[:2] == ["// language=prefix,5000", "digraph ball {"]


class TestGroupCommands:
    def test_nucleus(self, capsys):
        code, out, _ = run(capsys, ["nucleus", "--group", "grigorchuk"])
        assert code == 0
        assert "nucleus size 5" in out
        assert "1 a b c d" in out

    def test_nucleus_state_tags(self, capsys):
        # Basilica's nucleus holds two elements that are neither a generator
        # nor an inverse: they print as g<state id>.
        basilica = json.dumps(
            {"alphabet": 2, "generators": {"a": {"perm": [0, 1], "rest": ["", "b"]}, "b": {"perm": [1, 0], "rest": ["", "a"]}}}
        )
        code, out, _ = run(capsys, ["nucleus", "--group", basilica])
        assert code == 0
        assert out == "nucleus size 7 (closure complete: True)\nstates: 1 A B a b g8 g9\n"

    def test_nucleus_cap_exit_3(self, capsys):
        code, _, err = run(capsys, ["nucleus", "--group", "grigorchuk", "--cap", "1"])
        assert code == 3 and "resource cap" in err

    def test_germ(self, capsys):
        code, out, _ = run(
            capsys, ["germ", "--group", "grigorchuk", "--element", "d", "--point", "|0"]
        )
        assert code == 0 and out.strip() == "unit"
        code, out, _ = run(
            capsys, ["germ", "--group", "grigorchuk", "--element", "b", "--point", "|1"]
        )
        assert code == 0 and out.strip() == "nontrivial"

    @pytest.mark.parametrize("element", ["ab", ""])
    def test_germ_point_outside_alphabet_exit_2(self, capsys, element):
        code, _, err = run(
            capsys, ["germ", "--group", "grigorchuk", "--element", element, "--point", "|2"]
        )
        assert code == 2 and "outside the alphabet" in err

    def test_nucleus_not_contracting_exit_3(self, capsys):
        lamplighter = json.dumps(
            {
                "alphabet": 2,
                "generators": {
                    "a": {"perm": [1, 0], "rest": ["a", "b"]},
                    "b": {"perm": [0, 1], "rest": ["a", "b"]},
                },
            }
        )
        code, out, err = run(capsys, ["nucleus", "--group", lamplighter])
        assert code == 3 and "not contracting" in err and out == ""

    def test_matrix_recursion_print(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "matrix-recursion",
                "--group",
                "adding_machine",
                "--element",
                "a",
                "--levels",
                "1",
                "--print",
            ],
        )
        assert code == 0 and out.strip().splitlines() == ["[0  a]", "[1  0]"]

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--levels", "17"], "level-17 image on 2 letters exceeds cap 65536 on columns"),
            (["--levels", "9", "--print"], "level-9 image on 2 letters exceeds cap 65536 on cells"),
            (["--levels", "1000000000"], "level-1000000000 image on 2 letters exceeds cap 65536 on columns"),
        ],
        ids=["columns", "cells", "huge-level"],
    )
    def test_matrix_recursion_level_cap_exit_3(self, capsys, extra, message):
        # Refused before any column is built, so each call returns at once.
        argv = ["matrix-recursion", "--group", "grigorchuk", "--element", "a+b+1"] + extra
        code, out, err = run(capsys, argv)
        assert code == 3 and f"resource cap: {message}" in err and out == ""

    def test_identity_violation_exit_4(self, capsys, monkeypatch):
        from groupoid_growth.errors import IdentityError

        def boom(cap=10_000):
            raise IdentityError("forced")

        monkeypatch.setattr(
            "groupoid_growth.selfsimilar.SelfSimilarGroup.nucleus", lambda self, cap: boom()
        )
        code, _, err = run(capsys, ["nucleus", "--group", "grigorchuk"])
        assert code == 4 and "identity violated" in err

    def test_internal_key_error_propagates(self, monkeypatch):
        # No input path raises KeyError, so one is a bug: it must surface as
        # a traceback, not as a usage error with exit 2.
        def boom(self, cap):
            raise KeyError("forced")

        monkeypatch.setattr("groupoid_growth.selfsimilar.SelfSimilarGroup.nucleus", boom)
        with pytest.raises(KeyError, match="forced"):
            cli.main(["nucleus", "--group", "grigorchuk"])

    def test_thinned_growth_csv(self, capsys):
        code, out, _ = run(
            capsys, ["thinned-growth", "--group", "grigorchuk", "--n-max", "3"]
        )
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines()[2:]]
        assert [r[1] for r in rows] == ["5", "11", "19"]
        assert all(r[3] == "True" for r in rows)

    def test_thinned_growth_coordinate_cap_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(matrix_recursion, "COORDINATE_CAP", 50)
        code, out, err = run(capsys, ["thinned-growth", "--group", "grigorchuk", "--n-max", "16"])
        assert code == 3 and "exceeded cap 50 on coordinates" in err and out == ""

    def test_thinned_growth_rank_coordinate_cap_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(matrix_recursion, "RANK_COORDINATE_CAP", 1000)
        code, out, err = run(capsys, ["thinned-growth", "--group", "grigorchuk", "--n-max", "16"])
        assert code == 3 and "exceeded cap 1000 on rank x coordinates" in err and out == ""

    def test_long_element_words(self, capsys):
        word = "".join(random.Random(2).choice("abcd") for _ in range(2000))
        code, out, _ = run(capsys, ["germ", "--group", "grigorchuk", "--element", word, "--point", "0|1"])
        assert code == 0 and out.strip() in ("unit", "nontrivial")
        argv = ["matrix-recursion", "--group", "grigorchuk", "--element", word + "+1", "--levels", "3"]
        code, out, _ = run(capsys, argv)
        assert code == 0 and out.startswith("level 3: ")

    def test_thinned_growth_digests_the_group(self, capsys, tmp_path):
        # Two different groups written to one path print different #config
        # rows; a preset name digests as the name itself, as before.
        path = tmp_path / "group.json"
        configs = []
        for rest in (["", "a"], ["a", ""]):
            path.write_text(json.dumps({"alphabet": 2, "generators": {"a": {"perm": [1, 0], "rest": rest}}}))
            code, out, _ = run(capsys, ["thinned-growth", "--group", str(path), "--n-max", "2"])
            assert code == 0
            configs.append(out.splitlines()[0])
        assert configs[0] != configs[1]
        out = run(capsys, ["thinned-growth", "--group", "grigorchuk", "--n-max", "3"])[1]
        assert out.splitlines()[0] == "#config=022181fe34c6d24104f8bd477476e5b51664c0b106cb95c9cd34f738d8fe6a0f"

    def test_custom_group_json(self, capsys):
        grp = json.dumps(
            {"alphabet": 2, "generators": {"a": {"perm": [1, 0], "rest": ["", "a"]}}}
        )
        code, out, _ = run(capsys, ["nucleus", "--group", grp])
        assert code == 0 and "nucleus size 3" in out

    def test_one_letter_alphabet_exit_2(self, capsys):
        # One letter has one level-L column for every L, so no level cap
        # could stop a deep recursion: such a group is refused up front.
        grp = json.dumps({"alphabet": 1, "generators": {"a": {"perm": [0], "rest": ["a"]}}})
        argv = ["matrix-recursion", "--group", grp, "--element", "a", "--levels", "5000"]
        code, out, err = run(capsys, argv)
        assert code == 2 and "at least 2 letters" in err and out == ""

    def test_matrix_recursion_empty_word_exit_2(self, capsys):
        argv = ["matrix-recursion", "--group", "grigorchuk", "--element", "2*", "--levels", "1", "--print"]
        code, out, err = run(capsys, argv)
        assert code == 2 and "empty word" in err and out == ""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["matrix-recursion", "--group", "grigorchuk", "--element", "2*ab+3*b+1", "--levels", "2", "--print"],
                "6215239d89f10960711642d4c145457e378246a5f802135acaff0cf676280664",
            ),
            # bc+d is 0 over F2, and 3*a is 0 over F3.
            (
                ["matrix-recursion", "--group", "grigorchuk", "--element", "bc+d+a", "--levels", "3", "--field", "F2", "--print"],
                "5563204930208323afdb95b40568984a667fd2afa4c037df0465c372ea11b0fb",
            ),
            (
                ["matrix-recursion", "--group", "grigorchuk", "--element", "3*a+2*b+c+1", "--levels", "2", "--field", "Fp:3", "--print"],
                "a5fc54eab7c7e6e0b945fda5fea2c5d75e3e7a5d091dd6a51e29a2c87c2d1e73",
            ),
            (
                ["thinned-growth", "--group", "grigorchuk", "--n-max", "24", "--field", "Q"],
                "ae7f9eaf99457fb02c1731e130d1ab078602ffc4a4a11fabb156f0f9481e0e59",
            ),
            (
                ["thinned-growth", "--group", "adding_machine", "--n-max", "12", "--field", "Fp:5"],
                "fcc19cee04f1d21c22616966a26f57b76a45d78f55f94bcb8419dbfefa82115c",
            ),
            (
                ["expansive", "--source", TM, "--n", "12"],
                "03cc6ceff805b3f579436a7495fef854fcf7073e0b2d25765048cc7412c3f7ac",
            ),
        ],
        ids=[
            "matrix-recursion-q",
            "matrix-recursion-f2",
            "matrix-recursion-f3",
            "thinned-grig-q",
            "thinned-adding-f5",
            "expansive-thue-morse",
        ],
    )
    def test_output_bytes(self, capsys, argv, digest):
        code, out, _ = run(capsys, argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv",
        [
            ["thinned-growth", "--group", "grigorchuk", "--n-max", "32", "--field", "F2"],
            ["thinned-growth", "--group", "grigorchuk", "--n-max", "16", "--field", "Q"],
            ["verify-all", "--profile", "quick"],
            ["verify-all", "--profile", "full"],
            ["nucleus", "--group", "grigorchuk"],
            ["delta", "--model", "grigorchuk", "--units-policy", "periodic:pre=2,period=2", "--r", "3"],
            ["algebra-growth", "--source", GOLDEN, "--n-max", "32", "--field", "F2", "--oracle-upto", "4"],
            ["matrix-recursion", "--group", "grigorchuk", "--element", "ab+2*cda+1", "--levels", "7"],
            ["matrix-recursion", "--group", "grigorchuk", "--element", "bc+d+a", "--levels", "3", "--field", "F2", "--print"],
            ["complexity", "--source", SKELETON_0_1_0, "--n-max", "12"],
        ],
        ids=[
            "thinned-grig-f2",
            "thinned-grig-q",
            "verify-all-quick",
            "verify-all-full",
            "nucleus-grig",
            "delta-germ-grig",
            "algebra-growth-golden-oracle",
            "matrix-recursion-grig",
            "matrix-recursion-f2-print",
            "complexity-prefix-0?1?0",
        ],
    )
    def test_bytes_independent_of_hash_seed(self, argv):
        # Check 13 compares two runs in one interpreter, so it cannot see
        # iteration order that follows str or tuple hashes: two interpreters
        # under different hash seeds must print the same bytes.
        src = str(Path(cli.__file__).parents[1])
        outs = [
            subprocess.run(
                [sys.executable, "-m", "groupoid_growth.cli", *argv],
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                capture_output=True,
                check=True,
            ).stdout
            for seed in ("0", "1")
        ]
        assert outs[0] and outs[0] == outs[1]


class TestVerifyAll:
    def test_tiny_profile_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["verify-all", "--profile", "tiny"])
        capsys.readouterr()

    # (profile, seed) -> sha256 of the whole report.
    REPORTS = {
        ("quick", 0): "ba91103ac27d74bfe249d83ea1d277a000e655bc904bb921ccc6a90d4ca9348f",
        ("quick", 3): "5a8091ff210f6b3ca2d8d063c209fcb730e13e315fa931b525abd8f6f4fa5cc1",
        ("full", 0): "9d9e6a43a2d517a455af2d781589c4a978485eb8a037e0b1c9c65033bf29c880",
        ("full", 3): "38fdfef990d8635b476d378f2036a02b6d20cb2eac231f23ada8a6e236416854",
    }

    @pytest.mark.parametrize("profile, seed", list(REPORTS), ids=lambda v: str(v))
    def test_report_bytes(self, capsys, profile, seed):
        code, out, _ = run(capsys, ["--seed", str(seed), "verify-all", "--profile", profile])
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == self.REPORTS[profile, seed]

    def test_groups_built_per_run(self, monkeypatch):
        # Each run builds each preset once, and so does each of check 13's
        # two tiny runs: 3 x 2 groups.  No group is kept for a later run.
        built = []
        init = selfsimilar.SelfSimilarGroup.__init__

        def counting_init(self, recursion):
            built.append(recursion)
            init(self, recursion)

        monkeypatch.setattr(selfsimilar.SelfSimilarGroup, "__init__", counting_init)
        verify.run_checks("quick", seed=0)
        assert len(built) == 6
        verify.run_checks("quick", seed=0)
        assert len(built) == 12


class TestMalformedInput:
    # Each input is malformed: a descriptor is not an object, lacks a field,
    # has an unknown one or one of the wrong type, or a letter string holds a
    # letter outside the alphabet.  It is a usage error that names the field
    # or the input, not a traceback.
    @pytest.mark.parametrize(
        "argv, field",
        [
            (["nucleus", "--group", '{"alphabet":2,"generators":[]}'], "generators"),
            (["nucleus", "--group", '{"alphabet":2,"generators":{"a":{"perm":5,"rest":["",""]}}}'], "perm"),
            (["nucleus", "--group", '{"alphabet":2,"generators":{"a":{"perm":[1,0],"rest":[1,2]}}}'], "rest"),
            (["thinned-growth", "--group", "[1,2]", "--n-max", "3"], "group spec"),
            (["nucleus", "--group", '"grigorchuk"'], "group spec"),
            (["complexity", "--n-max", "4", "--source", '{"kind":"sturmian","cf":5}'], "cf"),
            (
                ["complexity", "--n-max", "4", "--source", '{"kind":"substitution","rules":["01","10"],"seed":"0"}'],
                "rules",
            ),
            (["complexity", "--n-max", "4", "--source", '{"kind":"toeplitz","skeleton":5}'], "skeleton"),
            (["delta", "--r", "1", "--model", '{"kind":"subshift","source":' + GOLDEN + ',"n_max":[1]}'], "n_max"),
            (["delta", "--r", "1", "--model", '{"kind":"subshift","source":' + GOLDEN + ',"budget":[1]}'], "budget"),
            (["delta", "--r", "1", "--model", '{"kind":"subshift","source":' + GOLDEN + ',"n_max":"abc"}'], "n_max"),
            (["delta", "--r", "1", "--model", '{"kind":"subshift","n_max":4}'], "no 'source' field"),
            (["delta", "--r", "1", "--model", '{"kind":"germ"}'], "no 'group' field"),
            (["delta", "--r", "1", "--model", '{"kind":"germ","group":"grigorchuk","n_max":3}'], "unknown key 'n_max'"),
            (["delta", "--r", "1", "--model", '{"kind":"subshift","source":' + GOLDEN + ',"r":1}'], "unknown key 'r'"),
            (["complexity", "--n-max", "4", "--source", '{"kind":"explicit","word":"01","depth":1}'], "unknown key 'depth'"),
            (["nucleus", "--group", '{"alphabet":2,"generators":{},"extra":1}'], "unknown key 'extra'"),
            (["nucleus", "--group", '{"alphabet":2,"generators":{"a":{"perm":[1,0],"rest":["",""],"x":1}}}'], "key 'x'"),
            (["complexity", "--n-max", "4", "--source", TM.replace('"0"}', "true}")], "seed"),
            (["complexity", "--n-max", "4", "--source", TM.replace('"0"}', "5}")], "seed 5"),
            (["complexity", "--n-max", "4", "--source", TM.replace('"0"}', '"-1"}')], "seed -1"),
            (["complexity", "--n-max", "4", "--source", GOLDEN.replace("true", '"false"')], "cf_periodic"),
            (["complexity", "--n-max", "4", "--source", '{"kind":"explicit","word":"01","alphabet":true}'], "field 'alphabet'"),
            (["germ", "--group", "grigorchuk", "--element", "a", "--point", "|x"], "point '|x'"),
            (
                ["germ", "--group", "grigorchuk", "--element", "a", "--point", "0|"],
                "point '0|': the period must be nonempty",
            ),
            (["ball", "--model", "grigorchuk", "--unit", "0|", "--r", "1"], "point '0|': the period must be nonempty"),
            (["ball", "--model", '{"kind":"subshift","source":' + GOLDEN + "}", "--unit", "0a:1", "--r", "1"], "'0a:1'"),
            (["ball", "--model", '{"kind":"subshift","source":' + GOLDEN + "}", "--unit", "110:1", "--r", "1"], "window 11"),
            (
                ["ball", "--model", '{"kind":"subshift","source":' + GOLDEN + ',"n_max":4}', "--unit", "0100100:3", "--r", "3"],
                "n_max = 4",
            ),
            (["matrix-recursion", "--group", "grigorchuk", "--element", "x*a", "--levels", "1"], "'x*a'"),
            (
                ["complexity", "--source", "/nonexistent/file.json", "--n-max", "5"],
                "No such file or directory: '/nonexistent/file.json'",
            ),
            (["nucleus", "--group", "/nonexistent.json"], "No such file or directory: '/nonexistent.json'"),
        ],
        ids=[
            "generators-list",
            "perm-int",
            "rest-ints",
            "group-list",
            "group-json-string",
            "sturmian-cf-int",
            "substitution-rules-list",
            "toeplitz-skeleton-int",
            "subshift-n_max-list",
            "subshift-budget-list",
            "subshift-n_max-string",
            "subshift-without-source",
            "germ-without-group",
            "germ-unknown-key",
            "subshift-unknown-key",
            "source-unknown-key",
            "group-unknown-key",
            "generator-unknown-key",
            "seed-boolean",
            "seed-outside-letters",
            "seed-negative-string",
            "cf_periodic-string",
            "alphabet-boolean",
            "point-letter",
            "point-empty-period",
            "unit-empty-period",
            "unit-letter",
            "unit-not-a-factor",
            "unit-past-n_max",
            "element-coefficient",
            "source-missing-file",
            "group-missing-file",
        ],
    )
    def test_wrong_type_exit_2(self, capsys, argv, field):
        code, out, err = run(capsys, argv)
        assert code == 2 and err.startswith("usage error:") and field in err and out == ""

    @pytest.mark.parametrize(
        "policy", ["periodic:pre=1,period=1,bogus=3", "periodic:pre=1", "periodic:pre=1,pre=2", "periodic:pre=1,period=x"]
    )
    def test_periodic_policy_keys_exit_2(self, capsys, policy):
        code, out, err = run(capsys, ["delta", "--model", "grigorchuk", "--r", "1", "--units-policy", policy])
        assert code == 2 and "periodic:pre=<int>,period=<int>" in err and out == ""

    @pytest.mark.parametrize(
        "spec, message",
        [pytest.param(spec, "prime field modulus", id=spec) for spec in ("Fp:0", "Fp:1", "Fp:4", "Fp:2147483659")]
        + [pytest.param("Fp:x", "unknown field spec 'Fp:x'", id="Fp:x")],
    )
    def test_field_exit_2(self, capsys, spec, message):
        argv = ["matrix-recursion", "--group", "grigorchuk", "--element", "a", "--levels", "1", "--field", spec]
        code, out, err = run(capsys, argv)
        assert code == 2 and message in err and out == ""


class TestGermStepCap:
    ARGV = ["germ", "--group", "grigorchuk", "--element", "d", "--point", "|1"]

    def test_settles_within_the_cap(self, capsys):
        assert run(capsys, self.ARGV)[:2] == (0, "nontrivial\n")

    def test_over_the_cap_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(selfsimilar, "GERM_STEP_CAP", 2)
        code, out, err = run(capsys, self.ARGV)
        assert code == 3 and "did not settle within 2 steps" in err and out == ""

    def test_delta_over_the_cap_exit_3(self, capsys, monkeypatch):
        # Every ball vertex is found by a key walk, which the cap bounds too.
        argv = ["delta", "--model", "grigorchuk", "--units-policy", "periodic:pre=1,period=1", "--r", "2"]
        assert run(capsys, argv)[0] == 0
        monkeypatch.setattr(selfsimilar, "GERM_STEP_CAP", 2)
        code, out, err = run(capsys, argv)
        assert code == 3 and "did not settle within 2 steps" in err and out == ""


class TestGeneratorNames:
    def test_unknown_letter_exit_2(self, capsys):
        code, out, err = run(capsys, ["germ", "--group", "grigorchuk", "--element", "abz", "--point", "|1"])
        assert code == 2 and "'z'" in err and "a, b, c, d" in err and out == ""

    @pytest.mark.parametrize("name", ["ab", "A", "1", ""])
    def test_name_not_one_lowercase_letter_exit_2(self, capsys, name):
        grp = json.dumps({"alphabet": 2, "generators": {name: {"perm": [1, 0], "rest": ["", ""]}}})
        argv = ["matrix-recursion", "--group", grp, "--element", name, "--levels", "1"]
        code, out, err = run(capsys, argv)
        assert code == 2 and f"generator {name!r}" in err and "one lowercase letter" in err and out == ""
