"""Tests for triplet I/O, the well-formedness filter, mixing, and escaping."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apeforge.corpus import (
    AlignmentError,
    CorpusError,
    ParseError,
    Triplet,
    Vocab,
    escape,
    escape_token,
    is_wellformed,
    letter_count,
    mix,
    read_mix_spec,
    read_parallel,
    read_sentences,
    read_text,
    read_triplets,
    sentence,
    text_lines,
    triplet_paths,
    unescape,
    unescape_token,
    wellformed_filter,
    write_sentences,
    write_triplets,
)
from apeforge.decoder import AssemblyError, Ensemble, parse_decoder_config, read_nbest
from apeforge.ngram_lm import read_arpa
from apeforge.nmt import read_train_config
from apeforge.pipeline import parse_config, read_confusion
from apeforge.subword import MODEL_HEADER, load_model
from apeforge.tuner import read_weights

TOKEN = st.text(
    alphabet=st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")),
    min_size=1,
    max_size=8,
)
SENT = st.lists(TOKEN, min_size=1, max_size=6).map(tuple)


def _triplet(i=0):
    return Triplet(src=(f"s{i}", "t"), mt=(f"m{i}",), pe=(f"p{i}", "q"))


class TestTripletIO:
    def test_single_line_files(self, tmp_path):
        prefix = tmp_path / "data"
        for suffix, text in ((".src", "a b"), (".mt", "x y"), (".pe", "x z")):
            (tmp_path / ("data" + suffix)).write_text(text + "\n")
        triplets = read_triplets(prefix)
        assert triplets == [Triplet(src=("a", "b"), mt=("x", "y"), pe=("x", "z"))]

    def test_round_trip(self, tmp_path):
        triplets = [_triplet(i) for i in range(5)]
        prefix = tmp_path / "rt"
        write_triplets(prefix, triplets)
        assert read_triplets(prefix) == triplets

    def test_shorter_mt_file_is_alignment_error(self, tmp_path):
        prefix = tmp_path / "bad"
        (tmp_path / "bad.src").write_text("a\nb\n")
        (tmp_path / "bad.mt").write_text("x\n")
        (tmp_path / "bad.pe").write_text("u\nv\n")
        with pytest.raises(AlignmentError) as err:
            read_triplets(prefix)
        assert "bad.mt" in str(err.value)

    def test_empty_line_is_parse_error_with_lineno(self, tmp_path):
        p = tmp_path / "text"
        p.write_text("a b\n\nc d\n")
        with pytest.raises(ParseError) as err:
            read_sentences(p)
        assert "2" in str(err.value)

    def test_read_parallel_one_list_per_path(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("x y\nz\n")
        b.write_text("u\nv w\n")
        assert read_parallel(a, b) == [[("x", "y"), ("z",)], [("u",), ("v", "w")]]

    def test_read_parallel_missing_file_before_reading(self, tmp_path):
        empty, missing = tmp_path / "empty.txt", tmp_path / "missing.txt"
        empty.write_text("")
        with pytest.raises(CorpusError, match=f"^{re.escape(str(missing))}: no such file$"):
            read_parallel(empty, missing)

    def test_read_parallel_empty_file(self, tmp_path):
        good, empty = tmp_path / "good.txt", tmp_path / "empty.txt"
        good.write_text("a\n")
        empty.write_text("")
        with pytest.raises(ParseError, match=f"^{re.escape(str(empty))}: no sentences$"):
            read_parallel(good, empty)

    def test_read_parallel_names_short_middle_file(self, tmp_path):
        paths = [tmp_path / f"{name}.txt" for name in ("first", "middle", "last")]
        for path, text in zip(paths, ("a\nb\n", "c\n", "d\ne\n")):
            path.write_text(text)
        with pytest.raises(AlignmentError) as err:
            read_parallel(*paths)
        assert str(err.value) == f"{paths[1]}: 1 lines, expected 2 to match parallel files"

    def test_sentence_splits_on_whitespace_runs(self):
        assert sentence("a  b\tc ") == ("a", "b", "c")

    def test_write_read_sentences(self, tmp_path):
        p = tmp_path / "s.txt"
        corpus = [("a", "b"), ("c",)]
        write_sentences(p, corpus)
        assert read_sentences(p) == corpus
        assert p.read_bytes() == b"a b\nc\n"

    def test_repeated_words_are_one_object(self, tmp_path):
        prefix = tmp_path / "d"
        for suffix, text in (
            (".src", "quelle eins\nquelle zwei\n"),
            (".mt", "das haus\nein haus\n"),
            (".pe", "das haus\nhaus dort\n"),
        ):
            (tmp_path / ("d" + suffix)).write_text(text)
        first, second = read_triplets(prefix)
        assert (first.mt, second.mt) == (("das", "haus"), ("ein", "haus"))
        assert (first.pe, second.pe) == (("das", "haus"), ("haus", "dort"))
        assert first.mt[1] is second.mt[1]  # across lines
        assert first.mt[1] is first.pe[1] is second.pe[0]  # across .mt and .pe
        assert first.src[0] is second.src[0]

    def test_triplet_paths_suffixes(self, tmp_path):
        paths = triplet_paths(tmp_path / "x")
        assert [p.suffix for p in paths] == [".src", ".mt", ".pe"]

    def test_empty_triplet_side_rejected(self):
        with pytest.raises(ValueError):
            Triplet(src=(), mt=("a",), pe=("b",))


class TestWellformed:
    def test_kept_example(self):
        s = sentence("Dieser Satz enthält genau genug Buchstaben für den Filter .")
        assert letter_count(s) == 49
        assert is_wellformed(s)

    def test_dropped_no_leading_capital(self):
        s = sentence(
            "kleiner anfang mit vielen buchstaben aber ohne großschreibung ."
        )
        assert letter_count(s) >= 30
        assert not is_wellformed(s)

    def test_dropped_too_few_letters(self):
        assert not is_wellformed(sentence("Zu kurz ."))

    def test_letter_boundary(self):
        base = ["Abcdefghij", "bcdefghijk", "cdefghijk"]  # 29 letters
        assert not is_wellformed(tuple(base + ["."]))
        assert is_wellformed(tuple(base + ["x", "."]))  # 30th letter

    def test_terminal_punctuation_variants(self):
        body = "Wort " * 7  # 28 letters
        for mark, ok in ((".", True), ("!", True), ("?", True), (",", False), (";", False)):
            s = sentence(body + "ab " + mark)
            assert is_wellformed(s) == ok

    def test_titlecase_first_char_accepted(self):
        # U+01C8 is a titlecase letter, category Lt
        s = ("ǈabcdefghij", "bcdefghijk", "cdefghijkl", ".")
        assert is_wellformed(s)

    def test_digits_are_not_letters(self):
        s = ("A1234567890", "1234567890", ".")
        assert letter_count(s) == 1
        assert not is_wellformed(s)

    def test_filter_idempotent(self):
        corpus = [
            sentence("Dieser Satz enthält genau genug Buchstaben für den Filter ."),
            sentence("Zu kurz ."),
            sentence("noch einer ohne grossbuchstaben am anfang aber lang genug ."),
        ]
        once = wellformed_filter(corpus)
        assert wellformed_filter(once) == once
        assert len(once) == 1


class TestMix:
    def test_identity(self):
        a = [_triplet(i) for i in range(3)]
        assert mix([("A", 1)], {"A": a}) == a

    def test_double_single(self):
        t1 = _triplet()
        assert mix([("A", 2)], {"A": [t1]}) == [t1, t1]

    def test_size_law(self):
        a = [_triplet(i) for i in range(4)]
        b = [_triplet(i + 10) for i in range(7)]
        out = mix([("A", 20), ("B", 1)], {"A": a, "B": b})
        assert len(out) == 20 * 4 + 7
        assert out[:4] == a and out[-7:] == b

    def test_unknown_corpus_id(self):
        with pytest.raises(KeyError):
            mix([("missing", 1)], {})

    def test_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            mix([("A", 0)], {"A": [_triplet()]})

    def test_read_mix_spec(self, tmp_path):
        p = tmp_path / "mix"
        p.write_text("# comment\ncorpusA 20\n\ncorpusB 1\n")
        assert read_mix_spec(p) == [("corpusA", 20), ("corpusB", 1)]

    def test_read_mix_spec_bad_factor(self, tmp_path):
        p = tmp_path / "mix"
        p.write_text("corpusA x\n")
        with pytest.raises(ParseError):
            read_mix_spec(p)

    def test_read_mix_spec_rejects_a_repeated_corpus(self, tmp_path):
        # summing the factors would hide a typo in either line
        p = tmp_path / "mix"
        p.write_text("real 1\nreal 2\n")
        with pytest.raises(
            ParseError, match=rf"^{re.escape(str(p))}: line 2: corpus 'real' given twice$"
        ):
            read_mix_spec(p)

    def test_read_mix_spec_without_corpora(self, tmp_path):
        p = tmp_path / "mix"
        p.write_text("# no corpus yet\n\n")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(p))}: no corpora$"):
            read_mix_spec(p)


class TestTextInput:
    def test_lines_as_text_mode_reads_them(self, tmp_path):
        p = tmp_path / "in.txt"
        p.write_bytes("ein\r\nhaus\rschläft\nam see".encode("utf-8"))
        assert list(text_lines(p)) == [
            (1, "ein\n"), (2, "haus\n"), (3, "schläft\n"), (4, "am see")
        ]
        assert read_text(p) == p.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "head, line",
        [(b"", 1), (b"ein\n", 2), (b"ein\r\nhaus\rsee\n", 4), (b"ein haus\n" * 2000, 2001)],
        ids=["first-line", "second-line", "mixed-line-ends", "past-first-chunk"],
    )
    def test_bad_byte_names_its_line(self, tmp_path, head, line):
        p = tmp_path / "in.txt"
        p.write_bytes(head + b"der \xff hund\nam see\n")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(p))}: line {line}: not UTF-8$"):
            list(text_lines(p))
        with pytest.raises(ParseError, match=rf"line {line}: not UTF-8"):
            read_text(p)


# Per reader of text input: a valid first line, then a second line that is
# valid but for one byte that is not UTF-8.
_NON_UTF8_INPUTS = {
    "sentences": (read_sentences, b"ein haus\n", b"der \xff hund\n"),
    "mix spec": (read_mix_spec, b"# parts\n", b"corpus\xff 2\n"),
    "n-best": (read_nbest, b"0 ||| a ||| m= -1.0 ||| -1.0\n", b"0 ||| \xff ||| m= -1.0 ||| -1.0\n"),
    "arpa": (read_arpa, b"\\data\\\n", b"ngram 1=1\xff\n"),
    "bpe model": (load_model, MODEL_HEADER.encode() + b"\n", b"#base: a \xff\n"),
    "weights": (read_weights, b"mt\t1.0\n", b"pep\t1.0\xff\n"),
    "train config": (read_train_config, b"batch_size 2\n", b"epochs 1 # \xff\n"),
    "decoder config": (Ensemble, b"scorer m model=m.bin input=mt weight=1\n", b"# \xff\n"),
    "confusion table": (read_confusion, b"a b\n", b"c \xff\n"),
}


@pytest.mark.parametrize("kind", list(_NON_UTF8_INPUTS))
def test_reader_names_the_line_that_is_not_utf8(tmp_path, kind):
    """Every reader opens its file through corpus.text_lines, so a byte that
    is not UTF-8 is a ParseError naming the file and line, not a
    UnicodeDecodeError."""
    reader, first, second = _NON_UTF8_INPUTS[kind]
    path = tmp_path / "input"
    path.write_bytes(first + second)
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: line 2: not UTF-8$"):
        reader(path)


# Characters that str.splitlines() ends a line at and text mode does not.
_INLINE_BREAKS = ["\x0c", "\x0b", "\x1c", "\x85", "\u2028"]


class TestConfigLineNumbers:
    """A config line ends at a line feed only. Each config's line 1 holds a
    comment whose text after the break would be a valid line of its own; the
    comment must stay a comment, and an error on a later line must name
    that line."""

    @pytest.mark.parametrize("brk", _INLINE_BREAKS)
    def test_train_config(self, tmp_path, brk):
        path = tmp_path / "train.cfg"
        text = f"batch_size 2 # was{brk}epochs 7\nepochs 3\n"
        path.write_text(text, encoding="utf-8")
        _model, cfg = read_train_config(path)
        assert (cfg.batch_size, cfg.epochs) == (2, 3)
        path.write_text(text + "bogus 1\n", encoding="utf-8")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: line 3: unknown key 'bogus'$"):
            read_train_config(path)

    @pytest.mark.parametrize("brk", _INLINE_BREAKS)
    def test_decoder_config(self, tmp_path, brk):
        path = tmp_path / "decoder.cfg"
        text = (
            f"scorer m model=m.bin input=mt weight=1 # was{brk}scorer n model=n.bin input=src weight=1\n"
            "feature pep input=mt weight=0.5\n"
        )
        path.write_text(text, encoding="utf-8")
        config = parse_decoder_config(read_text(path), str(path))
        assert config.scorers == (("m", "m.bin", "mt", 1.0),)
        path.write_text(text + "bogus\n", encoding="utf-8")
        message = rf"^{re.escape(str(path))}: line 3: unknown directive 'bogus'$"
        with pytest.raises(AssemblyError, match=message):
            Ensemble(path)

    @pytest.mark.parametrize("brk", _INLINE_BREAKS)
    def test_pipeline_config(self, tmp_path, brk):
        path = tmp_path / "pipe.cfg"
        text = f"stage a # was{brk}stage b\ncmd eval\nend\n"
        path.write_text(text, encoding="utf-8")
        stages = parse_config(read_text(path), str(path), lambda args: None)
        assert [stage.name for stage in stages] == ["a"]
        path.write_text(text + "bogus\n", encoding="utf-8")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: line 4: unknown directive 'bogus'$"):
            parse_config(read_text(path), str(path), lambda args: None)


class TestEscaping:
    def test_pipe(self):
        assert escape(["a|b"]) == ("a&#124;b",)

    def test_ampersand(self):
        assert escape(["&"]) == ("&amp;",)

    def test_full_table(self):
        raw = "&|<>'\"[]"
        esc = escape_token(raw)
        assert esc == "&amp;&#124;&lt;&gt;&apos;&quot;&#91;&#93;"
        assert unescape_token(esc) == raw

    def test_literal_entity_survives(self):
        # a token that already looks escaped must round-trip unchanged
        assert unescape_token(escape_token("&amp;")) == "&amp;"
        assert escape_token("&amp;") == "&amp;amp;"

    @given(SENT)
    def test_round_trip(self, sent):
        assert unescape(escape(sent)) == sent

    @given(st.text(min_size=0, max_size=20))
    def test_token_round_trip(self, text):
        assert unescape_token(escape_token(text)) == text


class TestVocab:
    def test_reserved_ids(self):
        v = Vocab([])
        assert v.PAD == 0 and v.BOS == 1 and v.EOS == 2 and v.UNK == 3
        assert v.words([0, 1, 2, 3]) == ("<pad>", "<s>", "</s>", "<unk>")
        assert len(v) == 4

    def test_first_seen_order(self):
        v = Vocab(["b", "a", "b"])
        assert v.tokens[4:] == ["b", "a"]

    def test_unknown_maps_to_unk(self):
        v = Vocab(["a"])
        assert v.id("zzz") == Vocab.UNK

    def test_ids_words_round_trip(self):
        v = Vocab(["a", "b", "c"])
        sent = ("c", "a", "b")
        assert v.words(v.ids(sent)) == sent

    def test_from_corpus(self):
        v = Vocab.from_corpus([("x", "y"), ("y", "z")])
        assert v.tokens[4:] == ["x", "y", "z"]

    def test_from_corpus_keeps_reserved_ids(self):
        v = Vocab.from_corpus([("x", "</s>"), ("<unk>", "y", "x")])
        assert v.tokens == ["<pad>", "<s>", "</s>", "<unk>", "x", "y"]
        assert v.id("</s>") == Vocab.EOS and v.id("<unk>") == Vocab.UNK

    def test_equality(self):
        assert Vocab(["a"]) == Vocab(["a"])
        assert Vocab(["a"]) != Vocab(["b"])

    def test_contains(self):
        v = Vocab(["a"])
        assert "a" in v and "<unk>" in v and "q" not in v
