"""Command-line driver: subcommands, exit codes, output shapes."""

import json
from pathlib import Path

import pytest

from argsolve.cli import main

DATA = Path(__file__).parent / "data"
NIXON = str(DATA / "nixon.tgf")
FLOATING = str(DATA / "floating.apx")
GUARDED_PAIR = str(DATA / "guarded_pair.tgf")
MALFORMED = str(DATA / "malformed.tgf")


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
