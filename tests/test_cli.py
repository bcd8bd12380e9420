"""Command-line driver: subcommands, exit codes, output shapes."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from argsolve.cli import _build_parser, main

DATA = Path(__file__).parent / "data"
NIXON = str(DATA / "nixon.tgf")
FLOATING = str(DATA / "floating.apx")
GUARDED_PAIR = str(DATA / "guarded_pair.tgf")
MALFORMED = str(DATA / "malformed.tgf")
SRC = Path(__file__).parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExtensions:
    def test_preferred_of_mutual_pair(self, capsys):
        code, out, _ = run(capsys, "extensions", "-f", NIXON, "-s", "preferred")
        assert code == 0
        assert out == "[a]\n[b]\n"

    def test_grounded_of_mutual_pair(self, capsys):
        code, out, _ = run(capsys, "extensions", "-f", NIXON, "-s", "grounded")
        assert code == 0
        assert out == "[]\n"

    def test_no_extensions_line(self, capsys, tmp_path):
        loop = tmp_path / "loop.apx"
        loop.write_text("arg(a). att(a,a).\n")
        code, out, _ = run(capsys, "extensions", "-f", str(loop), "-s", "stable")
        assert code == 0
        assert out == "NO EXTENSIONS\n"

    def test_json_mirror(self, capsys):
        code, out, _ = run(
            capsys, "extensions", "-f", FLOATING, "-s", "preferred", "--json"
        )
        assert code == 0
        assert json.loads(out) == [["a", "e"], ["b", "e"]]

    def test_forced_format(self, capsys, tmp_path):
        renamed = tmp_path / "nixon.dat"
        renamed.write_text(Path(NIXON).read_text())
        code, out, _ = run(
            capsys, "extensions", "-f", str(renamed), "--format", "tgf",
            "-s", "preferred",
        )
        assert code == 0 and out == "[a]\n[b]\n"

    def test_max_args_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ARGSOLVE_MAX_ARGS", "1")
        code, _, err = run(capsys, "extensions", "-f", NIXON, "-s", "preferred")
        assert code == 3 and "bound" in err
        code, out, _ = run(
            capsys, "extensions", "-f", NIXON, "-s", "preferred", "--max-args", "10"
        )
        assert code == 0 and out == "[a]\n[b]\n"

    def test_env_var_lifts_bound(self, capsys, monkeypatch, tmp_path):
        names = [f"x{i}" for i in range(25)]
        pairs = [f"att({a},{b})." for a in names for b in names if a != b]
        big = tmp_path / "big.apx"
        big.write_text("\n".join([f"arg({n})." for n in names] + pairs))
        code, _, _ = run(capsys, "extensions", "-f", str(big), "-s", "stable")
        assert code == 3
        monkeypatch.setenv("ARGSOLVE_MAX_ARGS", "25")
        code, out, _ = run(capsys, "extensions", "-f", str(big), "-s", "stable")
        assert code == 0 and len(out.splitlines()) == 25

    def test_negative_max_args_flag_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "extensions", "-f", NIXON, "-s", "preferred", "--max-args", "-1"
        )
        assert code == 2 and out == ""
        assert "--max-args" in err and "-1" in err
        # zero is a valid bound: this framework is simply too large for it
        code, _, err = run(
            capsys, "extensions", "-f", NIXON, "-s", "preferred", "--max-args", "0"
        )
        assert code == 3 and "bound is 0" in err

    def test_negative_env_bound_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("ARGSOLVE_MAX_ARGS", "-3")
        code, out, err = run(capsys, "classify", "-f", NIXON)
        assert code == 2 and out == ""
        assert "ARGSOLVE_MAX_ARGS" in err and "-3" in err


class TestJustify:
    def test_yes_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "justify", "-f", FLOATING, "-s", "preferred", "-a", "e",
            "--mode", "sceptical",
        )
        assert code == 0 and out == "YES\n"

    def test_no_exit_one(self, capsys):
        code, out, _ = run(
            capsys, "justify", "-f", FLOATING, "-s", "preferred", "-a", "a",
            "--mode", "sceptical",
        )
        assert code == 1 and out == "NO\n"

    def test_credulous(self, capsys):
        code, out, _ = run(
            capsys, "justify", "-f", FLOATING, "-s", "preferred", "-a", "a",
            "--mode", "credulous",
        )
        assert code == 0 and out == "YES\n"

    def test_unknown_argument_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "justify", "-f", NIXON, "-s", "grounded", "-a", "zzz",
            "--mode", "credulous",
        )
        assert code == 2 and "zzz" in err


class TestGrounded:
    def test_trace_lines(self, capsys):
        code, out, _ = run(capsys, "grounded", "-f", GUARDED_PAIR, "--trace")
        assert code == 0
        assert out == "[c]\n[a,c]\n[a,c]\n[a,c]\n"

    def test_without_trace(self, capsys):
        code, out, _ = run(capsys, "grounded", "-f", GUARDED_PAIR)
        assert code == 0 and out == "[a,c]\n"


class TestClassifyAndDot:
    def test_classify_text(self, capsys):
        code, out, _ = run(capsys, "classify", "-f", NIXON)
        assert code == 0
        assert "is_symmetric: true" in out
        assert "is_well_founded: false" in out
        assert "is_coherent: true" in out
        assert "extension_counts[preferred]: 2" in out

    def test_classify_json_mirrors_text(self, capsys):
        code, text, _ = run(capsys, "classify", "-f", NIXON)
        code2, raw, _ = run(capsys, "classify", "-f", NIXON, "--json")
        assert code == code2 == 0
        data = json.loads(raw)
        assert data["is_symmetric"] is True
        assert data["extension_counts"]["preferred"] == 2
        # every scalar field appears in the text rendering with the same value
        for key, value in data.items():
            if isinstance(value, bool):
                assert f"{key}: {'true' if value else 'false'}" in text

    # classify output byte for byte: the structural fields, then the semantic ones
    STRUCTURE = {
        "floating": (
            "is_empty: false\nis_trivial: false\nis_symmetric: false\nis_finitary: true\n"
            "has_self_attack: false\nis_acyclic: false\nis_well_founded: false\n"
            "has_odd_cycle: false\nhas_even_cycle: true\nis_controversial: true\n"
            "is_limited_controversial: true\ngrounded_size: 0\n"
        ),
        "empty": (
            "is_empty: true\nis_trivial: true\nis_symmetric: false\nis_finitary: true\n"
            "has_self_attack: false\nis_acyclic: true\nis_well_founded: true\n"
            "has_odd_cycle: false\nhas_even_cycle: false\nis_controversial: false\n"
            "is_limited_controversial: true\ngrounded_size: 0\n"
        ),
    }
    STRUCTURE_JSON = {
        "floating": (
            '{"is_empty": false, "is_trivial": false, "is_symmetric": false, '
            '"is_finitary": true, "has_self_attack": false, "is_acyclic": false, '
            '"is_well_founded": false, "has_odd_cycle": false, "has_even_cycle": true, '
            '"is_controversial": true, "is_limited_controversial": true, "grounded_size": 0, '
        ),
        "empty": (
            '{"is_empty": true, "is_trivial": true, "is_symmetric": false, '
            '"is_finitary": true, "has_self_attack": false, "is_acyclic": true, '
            '"is_well_founded": true, "has_odd_cycle": false, "has_even_cycle": false, '
            '"is_controversial": false, "is_limited_controversial": true, "grounded_size": 0, '
        ),
    }
    SEMANTIC = {
        "floating": (
            "is_coherent: true\nis_relatively_grounded: false\npreferred_covers_all: false\n"
            "all_dung_semantics_coincide: false\nextension_counts[admissible]: 5\n"
            "extension_counts[complete]: 3\nextension_counts[conflict-free]: 7\n"
            "extension_counts[grounded]: 1\nextension_counts[naive]: 3\n"
            "extension_counts[preferred]: 2\nextension_counts[self-defending]: 9\n"
            "extension_counts[stable]: 2\n"
        ),
        "bounded": (
            "is_coherent: absent\nis_relatively_grounded: absent\n"
            "preferred_covers_all: absent\nall_dung_semantics_coincide: absent\n"
            "extension_counts: absent\n"
        ),
        "empty": (
            "is_coherent: true\nis_relatively_grounded: true\npreferred_covers_all: true\n"
            "all_dung_semantics_coincide: true\nextension_counts[admissible]: 1\n"
            "extension_counts[complete]: 1\nextension_counts[conflict-free]: 1\n"
            "extension_counts[grounded]: 1\nextension_counts[naive]: 1\n"
            "extension_counts[preferred]: 1\nextension_counts[self-defending]: 1\n"
            "extension_counts[stable]: 1\n"
        ),
    }
    SEMANTIC_JSON = {
        "floating": (
            '"is_coherent": true, "is_relatively_grounded": false, '
            '"preferred_covers_all": false, "all_dung_semantics_coincide": false, '
            '"extension_counts": {"admissible": 5, "complete": 3, "conflict-free": 7, '
            '"grounded": 1, "naive": 3, "preferred": 2, "self-defending": 9, "stable": 2}}\n'
        ),
        "bounded": (
            '"is_coherent": null, "is_relatively_grounded": null, '
            '"preferred_covers_all": null, "all_dung_semantics_coincide": null, '
            '"extension_counts": null}\n'
        ),
        "empty": (
            '"is_coherent": true, "is_relatively_grounded": true, '
            '"preferred_covers_all": true, "all_dung_semantics_coincide": true, '
            '"extension_counts": {"admissible": 1, "complete": 1, "conflict-free": 1, '
            '"grounded": 1, "naive": 1, "preferred": 1, "self-defending": 1, "stable": 1}}\n'
        ),
    }

    @pytest.mark.parametrize(
        "structure, semantic, bound",
        [("floating", "floating", []), ("floating", "bounded", ["--max-args", "1"]),
         ("empty", "empty", [])],
    )
    def test_classify_golden_report(self, capsys, tmp_path, structure, semantic, bound):
        empty = tmp_path / "empty.tgf"
        empty.write_text("#\n")
        path = str(empty) if structure == "empty" else FLOATING
        code, text, _ = run(capsys, "classify", "-f", path, *bound)
        assert code == 0 and text == self.STRUCTURE[structure] + self.SEMANTIC[semantic]
        code, raw, _ = run(capsys, "classify", "-f", path, *bound, "--json")
        assert code == 0
        assert raw == self.STRUCTURE_JSON[structure] + self.SEMANTIC_JSON[semantic]

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "dot", "-f", NIXON)
        assert code == 0
        assert out.startswith("digraph") and '"a" -> "b";' in out


class TestValidateAndErrors:
    def test_validate_ok(self, capsys):
        assert run(capsys, "validate", "-f", NIXON)[0] == 0
        assert run(capsys, "validate", "-f", FLOATING)[0] == 0

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_validate_malformed(self, capsys):
        code, _, err = run(capsys, "validate", "-f", MALFORMED)
        assert code == 2 and err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "-f", "does-not-exist.tgf")
        assert code == 2 and err

    def test_usage_error(self, capsys):
        assert run(capsys, "extensions", "-f", NIXON, "-s", "bogus")[0] == 2
        assert run(capsys)[0] == 2

    def test_unknown_format_extension(self, capsys):
        code, _, err = run(capsys, "validate", "-f", __file__)
        assert code == 2


    @pytest.mark.parametrize("name", ["c,d", 'a"b'])
    def test_unwritable_name_is_usage_error(self, capsys, tmp_path, name):
        path = tmp_path / "af.tgf"
        path.write_text(f"{name}\ne\n#\n{name} e\n", encoding="utf-8")
        for argv in (["extensions", "-s", "conflict-free"], ["dot"]):
            code, out, err = run(capsys, *argv, "-f", str(path))
            assert code == 2 and out == ""
            assert name in err

    def test_parser_warning_is_one_line(self, capsys, tmp_path):
        path = tmp_path / "af.tgf"
        path.write_text("a label\n#\n", encoding="utf-8")
        code, out, err = run(capsys, "extensions", "-f", str(path), "-s", "grounded")
        assert (code, out) == (0, "[a]\n")
        assert err == "argsolve: warning: TGF line 1: ignoring node label 'label'\n"

    def test_non_utf8_file_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "latin.tgf"
        path.write_bytes(b"a\nb\xe9\n#\n")
        code, out, err = run(capsys, "validate", "-f", str(path))
        assert (code, out) == (2, "")
        assert err == f"argsolve: {path}: not UTF-8 at byte 3\n"

    def test_undeclared_endpoint_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "af.tgf"
        path.write_text("a\n#\na b\n", encoding="utf-8")
        code, out, err = run(capsys, "validate", "-f", str(path))
        assert (code, out) == (2, "")
        assert err == "argsolve: line 3: attack endpoint is not a declared argument: 'b'\n"

    def test_only_searching_commands_read_the_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("ARGSOLVE_MAX_ARGS", "-3")
        for argv in (["grounded"], ["dot"], ["validate"]):
            assert run(capsys, *argv, "-f", NIXON)[0] == 0
        for argv in (
            ["extensions", "-s", "grounded"],
            ["justify", "-s", "grounded", "-a", "a", "--mode", "credulous"],
            ["classify"],
        ):
            code, out, err = run(capsys, *argv, "-f", NIXON)
            assert (code, out) == (2, "") and "ARGSOLVE_MAX_ARGS" in err

    def test_file_loads_before_the_bound_is_read(self, capsys, monkeypatch):
        monkeypatch.setenv("ARGSOLVE_MAX_ARGS", "x")
        code, _, err = run(capsys, "classify", "-f", "does-not-exist.tgf")
        assert code == 2 and "does-not-exist.tgf" in err and "ARGSOLVE" not in err
        code, out, err = run(capsys, "classify", "-f", NIXON)
        assert (code, out) == (2, "")
        assert err == "argsolve: ARGSOLVE_MAX_ARGS must be an integer, got 'x'\n"

    def test_failed_stdout_write_is_one_error_line(self, capsys, monkeypatch):
        class Full:
            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stdout", Full())
        assert main(["validate", "-f", NIXON]) == 0  # nothing to write
        assert main(["dot", "-f", NIXON]) == 2
        assert capsys.readouterr().err == "argsolve: [Errno 28] No space left on device\n"


class TestDeterminism:
    def test_repeated_runs_identical(self, capsys):
        first = run(capsys, "extensions", "-f", FLOATING, "-s", "complete")
        second = run(capsys, "extensions", "-f", FLOATING, "-s", "complete")
        assert first == second

    def test_tgf_and_apx_agree(self, capsys, tmp_path):
        from argsolve import emit_tgf, parse_apx

        tgf = tmp_path / "floating.tgf"
        tgf.write_text(emit_tgf(parse_apx(Path(FLOATING).read_text())))
        for semantics in ("conflict-free", "naive", "admissible", "complete",
                          "preferred", "stable", "grounded"):
            a = run(capsys, "extensions", "-f", FLOATING, "-s", semantics)
            b = run(capsys, "extensions", "-f", str(tgf), "-s", semantics)
            assert a == b


# (flags, choices, required, default, help) of every option, in declaration order
HELP = (("-h", "--help"), None, False, argparse.SUPPRESS, "show this help message and exit")
FILE = (("-f", "--file"), None, True, None, "framework file")
FORMAT = (
    ("--format",), ["tgf", "apx"], False, None,
    "input format; inferred from the extension when omitted",
)
MAX_ARGS = (("--max-args",), None, False, None, "override the enumeration bound")
JSON = (("--json",), None, False, False, "structured output")
INTERFACE = {
    "argsolve": [
        HELP,
        ((), {
            "extensions": "enumerate extensions of one semantics",
            "justify": "decide acceptance of one argument",
            "classify": "report structural and semantic properties",
            "grounded": "compute the grounded extension",
            "dot": "render the framework as a DOT digraph",
            "validate": "parse the input and report success",
        }, True, None, None),
    ],
    "extensions": [
        HELP, FILE, FORMAT,
        (("-s", "--semantics"), [
            "conflict-free", "naive", "admissible", "complete", "preferred",
            "stable", "grounded",
        ], True, None, None),
        MAX_ARGS, JSON,
    ],
    "justify": [
        HELP, FILE, FORMAT,
        (("-s", "--semantics"), ["complete", "preferred", "stable", "grounded"],
         True, None, None),
        (("-a", "--argument"), None, True, None, "argument name"),
        (("--mode",), ["credulous", "sceptical"], True, None, None),
        MAX_ARGS,
    ],
    "classify": [HELP, FILE, FORMAT, MAX_ARGS, JSON],
    "grounded": [
        HELP, FILE, FORMAT,
        (("--trace",), None, False, False, "print each iteration step first"),
    ],
    "dot": [HELP, FILE, FORMAT],
    "validate": [HELP, FILE, FORMAT],
}


class TestInterface:
    @staticmethod
    def _options(parser):
        rows = []
        for action in parser._actions:
            choices = action.choices
            if isinstance(action, argparse._SubParsersAction):
                choices = {a.dest: a.help for a in action._choices_actions}
            rows.append(
                (tuple(action.option_strings), choices, action.required,
                 action.default, action.help)
            )
        return rows

    def test_options_of_every_parser(self):
        parser = _build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parsers = {"argsolve": parser, **sub.choices}
        assert list(parsers) == list(INTERFACE)
        for name, expected in INTERFACE.items():
            assert self._options(parsers[name]) == expected, name

    def test_start_up_imports_no_hashlib(self):
        # the oracle's fingerprint is the only hash; a CLI run never needs it
        code = "import sys, argsolve.cli; sys.exit('hashlib' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-S", "-c", code], env=env)
        assert done.returncode == 0
