"""TGF and APX parsing, emitters, DOT output."""

import random
import re

import pytest

import af_examples as ex
from argsolve import (
    DuplicateArgument,
    InputFormat,
    InvalidName,
    MalformedFact,
    MalformedLine,
    MissingSeparator,
    ParseError,
    SemanticsKind,
    UnknownEndpoint,
    build_framework,
    emit_apx,
    emit_dot,
    emit_extensions,
    emit_tgf,
    enumerate_extensions,
    grounded,
    load_framework,
    parse_apx,
    parse_tgf,
)
from random_frameworks import random_framework


class TestParseTgf:
    def test_mutual_pair(self):
        f = parse_tgf("a\nb\n#\na b\nb a\n")
        assert f.structurally_equal(ex.nixon_diamond())

    def test_empty(self):
        f = parse_tgf("#\n")
        assert len(f) == 0

    def test_missing_separator(self):
        with pytest.warns(UserWarning):  # second line reads as a labelled node
            with pytest.raises(MissingSeparator):
                parse_tgf("a\na b\n")

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownEndpoint):
            parse_tgf("a\n#\na b\n")

    def test_node_label_ignored_with_warning(self):
        with pytest.warns(UserWarning):
            f = parse_tgf("a claim about taxes\nb\n#\nb a\n")
        assert [x.name for x in f.arguments] == ["a", "b"]

    def test_malformed_edge_line(self):
        with pytest.raises(MalformedLine) as info:
            parse_tgf("a\n#\nb\n")
        assert info.value.lineno == 3
        with pytest.raises(MalformedLine) as info:
            parse_tgf("a\n#\n#\n")
        assert str(info.value) == "line 3: second '#' separator"

    def test_blank_lines_skipped(self):
        f = parse_tgf("\na\n\n#\n\n")
        assert [x.name for x in f.arguments] == ["a"]


@pytest.mark.parametrize(
    "parse, text, error, name, lineno",
    [
        (parse_tgf, "a\nb\na\n#\n", DuplicateArgument, "a", 3),
        (parse_tgf, "a\n\nc,d\n#\n", InvalidName, "c,d", 3),
        (parse_tgf, "a\n#\na a\n\nb a\na b\n", UnknownEndpoint, "b", 5),
        (parse_apx, "arg(a).\narg(b). arg(a).\n", DuplicateArgument, "a", 2),
        (parse_apx, "% header\narg(a).\narg(x[1]).\n", InvalidName, "x[1]", 3),
        (parse_apx, "arg(a).\natt(a,a).\n% gap\natt(a,b). att(b,a).\n", UnknownEndpoint, "b", 4),
    ],
    ids=["tgf-duplicate", "tgf-invalid", "tgf-unknown", "apx-duplicate", "apx-invalid", "apx-unknown"],
)
def test_build_errors_name_their_line(parse, text, error, name, lineno):
    with pytest.raises(error) as info:
        parse(text)
    assert info.value.name == name
    assert info.value.lineno == lineno
    assert str(info.value).startswith(f"line {lineno}: ")


class TestParseApx:
    def test_facts_share_a_line(self):
        f = parse_apx("arg(a). arg(b). arg(c). att(b,a). att(c,b).")
        assert f.structurally_equal(ex.simple_reinstatement())

    def test_single_argument(self):
        f = parse_apx("arg(a).\n")
        assert len(f) == 1 and not f.attacks

    def test_undeclared_endpoint(self):
        with pytest.raises(UnknownEndpoint):
            parse_apx("att(a,b).")

    def test_comments_and_blanks(self):
        f = parse_apx("% header\n\narg(a). % trailing\narg(b).\natt(a,b).\n")
        assert f.structurally_equal(ex.single_attack())

    def test_whitespace_insignificant(self):
        f = parse_apx("arg( a ).\narg(b).\natt( a , b ).")
        assert f.structurally_equal(ex.single_attack())

    def test_malformed_fact(self):
        with pytest.raises(MalformedFact) as info:
            parse_apx("arg(a).\nfoo(a).\n")
        assert info.value.lineno == 2
        with pytest.raises(MalformedFact):
            parse_apx("arg(a,b).")
        with pytest.raises(MalformedFact):
            parse_apx("arg(a)")
        for text, message in (
            ("arg(a). junk arg(b).", "line 1: unrecognised text 'junk'"),
            ("arg(a b).", "line 1: whitespace inside a name: 'arg(a b).'"),
            ("arg(a).\natt(a).", "line 2: att fact needs two names: 'att(a).'"),
        ):
            with pytest.raises(MalformedFact) as info:
                parse_apx(text)
            assert str(info.value) == message


class TestEmitters:
    def test_extensions_lines(self):
        f = ex.floating_reinstatement()
        text = emit_extensions(enumerate_extensions(f, SemanticsKind.PREFERRED))
        assert text == "[a,e]\n[b,e]\n"

    def test_empty_set_renders_brackets(self):
        f = ex.nixon_diamond()
        assert emit_extensions([grounded(f)]) == "[]\n"

    def test_no_extensions(self):
        loop = parse_apx("arg(a). att(a,a).")
        text = emit_extensions(enumerate_extensions(loop, SemanticsKind.STABLE))
        assert text == "NO EXTENSIONS\n"

    def test_dot(self):
        text = emit_dot(ex.nixon_diamond())
        assert text == (
            'digraph framework {\n'
            '  "a";\n'
            '  "b";\n'
            '  "a" -> "b";\n'
            '  "b" -> "a";\n'
            "}\n"
        )

    def test_dot_empty(self):
        assert emit_dot(ex.empty()) == "digraph framework {\n}\n"

    def test_dot_counts(self):
        lines = emit_dot(ex.double_reinstatement()).splitlines()
        node_lines = [l for l in lines if l.endswith('";') and "->" not in l]
        edge_lines = [l for l in lines if "->" in l]
        assert len(node_lines) == 4
        assert len(edge_lines) == 3


class TestRoundTrips:
    def test_tgf_round_trip_random(self):
        rng = random.Random(61)
        for _ in range(100):
            f = random_framework(rng, max_size=8)
            assert parse_tgf(emit_tgf(f)).structurally_equal(f)

    def test_apx_round_trip_random(self):
        rng = random.Random(62)
        for _ in range(100):
            f = random_framework(rng, max_size=8)
            assert parse_apx(emit_apx(f)).structurally_equal(f)

    def test_formats_agree_downstream(self):
        rng = random.Random(63)
        for _ in range(50):
            f = random_framework(rng, max_size=7)
            via_tgf = parse_tgf(emit_tgf(f))
            via_apx = parse_apx(emit_apx(f))
            for kind in SemanticsKind:
                a = emit_extensions(enumerate_extensions(via_tgf, kind))
                b = emit_extensions(enumerate_extensions(via_apx, kind))
                assert a == b


    def test_punctuated_names_round_trip(self):
        names = ["a.b", "x'", "n:1", "é", "#a"]
        pairs = [("a.b", "x'"), ("x'", "n:1"), ("n:1", "é"), ("é", "é"), ("#a", "a.b")]
        f = build_framework(names, pairs)
        assert parse_tgf(emit_tgf(f)).structurally_equal(f)
        assert parse_apx(emit_apx(f)).structurally_equal(f)


class TestInputFormat:
    def test_inference(self):
        assert InputFormat.for_path("x.tgf") is InputFormat.TGF
        assert InputFormat.for_path("x.APX") is InputFormat.APX

    def test_unknown_extension(self):
        with pytest.raises(ParseError):
            InputFormat.for_path("framework.txt")


class TestLoadFramework:
    @pytest.mark.parametrize("suffix, text", [
        ("tgf", "a\nb\n#\na b\n"),
        ("apx", "arg(a).\narg(b).\natt(a,b).\n"),
    ])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_byte_order_mark_is_ignored(self, tmp_path, suffix, text, newline):
        expected = build_framework(["a", "b"], [("a", "b")])
        data = text.replace("\n", newline).encode("utf-8")
        plain, marked = tmp_path / f"plain.{suffix}", tmp_path / f"marked.{suffix}"
        plain.write_bytes(data)
        marked.write_bytes(b"\xef\xbb\xbf" + data)
        assert load_framework(plain).structurally_equal(expected)
        assert load_framework(marked).structurally_equal(expected)

    def test_format_given_by_value_is_the_format_parsed(self, tmp_path):
        tgf, apx = tmp_path / "x.tgf", tmp_path / "x.apx"
        tgf.write_text("a\nb\n#\na b\n")
        apx.write_text("arg(a).\narg(b).\natt(a,b).\n")
        expected = build_framework(["a", "b"], [("a", "b")])
        assert load_framework(tgf, "tgf").structurally_equal(expected)
        assert load_framework(tgf, InputFormat.TGF).structurally_equal(expected)
        with pytest.raises(MissingSeparator):  # read as TGF, not as its suffix says
            load_framework(apx, "tgf")
        with pytest.raises(ValueError, match="'dot' is not a valid InputFormat"):
            load_framework(tgf, "dot")

    @pytest.mark.parametrize("data, offset", [
        (b"a\nb\xe9\n#\n", 3),
        (b"\xef\xbb\xbfa\n\xe9\n#\n", 5),  # the mark counts in the offset
        (b"arg(a).\narg(\xc3", 12),  # cut off inside a two-byte sequence
    ])
    def test_other_encodings_are_parse_errors(self, tmp_path, data, offset):
        path = tmp_path / "latin.tgf"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not UTF-8 at byte {offset}$"):
            load_framework(path)
