"""TGF and APX parsing, emitters, DOT output."""

import random

import pytest

import af_examples as ex
from argsolve import (
    InputFormat,
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

    def test_blank_lines_skipped(self):
        f = parse_tgf("\na\n\n#\n\n")
        assert [x.name for x in f.arguments] == ["a"]


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
        assert InputFormat.for_path("x.tgf", InputFormat.APX) is InputFormat.APX

    def test_unknown_extension(self):
        with pytest.raises(ParseError):
            InputFormat.for_path("framework.txt")
