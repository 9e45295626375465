"""Rewrite rules, Hangul syllable arithmetic, and the Caesar cipher."""

import dataclasses
import shutil

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scriptshift import translit as tr

SHIFTS = st.integers(min_value=0, max_value=25)


class TestCaesar:
    def test_shift_four_apple(self):
        key = tr.CipherKey("und", 4)
        assert tr.caesar_encipher(key, "apple") == "ettpi"
        assert tr.caesar_decipher(key, "ettpi") == "apple"

    def test_zero_shift_is_identity(self):
        key = tr.CipherKey("und", 0)
        assert tr.caesar_encipher(key, "Hello, World! 123") == \
            "Hello, World! 123"

    def test_wraparound(self):
        key = tr.CipherKey("und", 3)
        assert tr.caesar_encipher(key, "xyz") == "abc"
        assert tr.caesar_encipher(key, "XYZ") == "ABC"

    def test_case_classes_shift_independently(self):
        key = tr.CipherKey("und", 4)
        assert tr.caesar_encipher(key, "Apple") == "Ettpi"

    def test_non_latin_unchanged(self):
        key = tr.CipherKey("und", 13)
        assert tr.caesar_encipher(key, "안녕 123 !?") == "안녕 123 !?"

    @given(st.text(), SHIFTS)
    def test_round_trip(self, text, shift):
        key = tr.CipherKey("und", shift)
        assert tr.caesar_decipher(key, tr.caesar_encipher(key, text)) == text

    @given(st.text(), SHIFTS)
    def test_length_preserved(self, text, shift):
        key = tr.CipherKey("und", shift)
        assert len(tr.caesar_encipher(key, text)) == len(text)

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1),
           SHIFTS, SHIFTS)
    def test_distinct_shifts_give_distinct_outputs(self, word, s1, s2):
        if s1 == s2:
            return
        key1, key2 = tr.CipherKey("x", s1), tr.CipherKey("y", s2)
        assert tr.caesar_encipher(key1, word) != tr.caesar_encipher(key2, word)

    @pytest.mark.parametrize("shift", [-1, 26, 100])
    def test_invalid_shift_rejected(self, shift):
        with pytest.raises(ValueError):
            tr.CipherKey("und", shift)

    def test_assign_shift_keys_sorted_order(self):
        keys = tr.assign_shift_keys(["fra", "eng"])
        assert keys["eng"].shift == 1
        assert keys["fra"].shift == 2

    def test_assign_shift_keys_distinct_and_nonzero(self):
        langs = [f"l{i:02d}" for i in range(25)]
        keys = tr.assign_shift_keys(langs)
        shifts = [key.shift for key in keys.values()]
        assert len(set(shifts)) == 25
        assert 0 not in shifts

    def test_assign_shift_keys_errors(self):
        with pytest.raises(ValueError):
            tr.assign_shift_keys([])
        with pytest.raises(ValueError):
            tr.assign_shift_keys(["eng", "eng"])
        with pytest.raises(ValueError):
            tr.assign_shift_keys([f"l{i}" for i in range(26)])


def table_of(rules, lang="und", mode=tr.RuleMode.G2P,
             passthrough=tr.Passthrough.KEEP):
    return tr.RuleTable(lang, mode, tuple(rules), passthrough)


def ref_apply_rules(table, text):
    """Oracle: one left-to-right scan of the whole text, trying every rule
    in the table's order at every position."""
    out = []
    pos = 0
    while pos < len(text):
        fired = next((rule for rule in table.rules
                      if rule.matches(text, pos)), None)
        if fired is not None:
            out.append(fired.target)
            pos += len(fired.source)
            continue
        if table.passthrough is tr.Passthrough.KEEP:
            out.append(text[pos])
        elif table.passthrough is tr.Passthrough.ERROR:
            raise tr.UnmatchedCharacterError(text[pos], pos)
        pos += 1
    return "".join(out)


def outcome(rewrite, table, text):
    """The rewritten text, or the unmatched character and its position."""
    try:
        return rewrite(table, text)
    except tr.UnmatchedCharacterError as exc:
        return ("unmatched", exc.char, exc.position)


def ref_decompose_syllables(text):
    """Oracle: decompose_hangul on every character, one at a time."""
    out = []
    for char in text:
        if not tr.is_hangul_syllable(char):
            out.append(char)
            continue
        lead, vowel, tail = tr.decompose_hangul(char)
        out.append(chr(tr.LEAD_BASE + lead) + chr(tr.VOWEL_BASE + vowel))
        if tail:
            out.append(chr(tr.TAIL_BASE + tail))
    return "".join(out)


WHITESPACE = " \t\n\u3000"
# the whitespace a rule part can hold: no tab or line break
RULE_WHITESPACE = " \u3000"


@st.composite
def rule_tables(draw):
    """Tables over a small alphabet with multi-character sources and left
    and right contexts. Whether sources, left contexts and right contexts
    may hold whitespace (a space or U+3000) is drawn for each
    independently. About half the tables have a plain rule for each of
    "abc", so that under Passthrough.ERROR the first unmatched character
    is often far into the text."""
    with_space = draw(st.sets(st.sampled_from(["source", "left", "right"])))

    def part(name, **sizes):
        alphabet = "abc" + (RULE_WHITESPACE if name in with_space else "")
        return st.text(alphabet, **sizes)

    specs = draw(st.lists(
        st.tuples(part("source", min_size=1, max_size=3),
                  st.text("xyAB", max_size=3),
                  part("left", max_size=2),
                  part("right", max_size=2)),
        max_size=8, unique_by=lambda spec: (spec[0], spec[2], spec[3])))
    if draw(st.booleans()):
        keys = {(spec[0], spec[2], spec[3]) for spec in specs}
        specs += [(char, char.upper(), "", "") for char in "abc"
                  if (char, "", "") not in keys]
    rules = [tr.RewriteRule(source, target, left, right, priority)
             for priority, (source, target, left, right) in enumerate(specs)]
    return table_of(rules, passthrough=draw(st.sampled_from(tr.Passthrough)))


# Words repeat, "d" and "é" are never in a rule, and whitespace comes in
# mixed runs, at the ends too.
rule_texts = st.lists(
    st.one_of(st.sampled_from(["a", "ab", "ba", "abc", "cab", "d", "aé"]),
              st.text(WHITESPACE, min_size=1, max_size=3)),
    max_size=12).map("".join)


class TestApplyRules:
    @given(st.text())
    def test_empty_table_keep_is_identity(self, text):
        table = table_of([])
        assert tr.apply_rules(table, text) == text

    def test_longest_source_wins(self):
        table = table_of([
            tr.RewriteRule("c", "k", priority=1),
            tr.RewriteRule("ch", "x", priority=2),
        ])
        assert tr.apply_rules(table, "chic") == "xik"

    def test_priority_breaks_equal_length(self):
        table = table_of([
            tr.RewriteRule("c", "s", right_context="e", priority=1),
            tr.RewriteRule("c", "k", priority=2),
        ])
        assert tr.apply_rules(table, "ce") == "se"
        assert tr.apply_rules(table, "ca") == "ka"

    def test_left_context(self):
        table = table_of([
            tr.RewriteRule("r", "R", left_context="a", priority=1),
        ])
        assert tr.apply_rules(table, "ara") == "aRa"
        assert tr.apply_rules(table, "ra") == "ra"

    def test_right_context_checked_after_source(self):
        table = table_of([
            tr.RewriteRule("g", "G", right_context="ue", priority=1),
        ])
        assert tr.apply_rules(table, "gue") == "Gue"
        assert tr.apply_rules(table, "ga") == "ga"

    def test_contexts_match_original_input_not_output(self):
        table = table_of([
            tr.RewriteRule("a", "b", priority=1),
            tr.RewriteRule("c", "X", left_context="b", priority=2),
        ])
        # The "a" at position 0 becomes "b" in the output, but the left
        # context of "c" looks at the original input, which still has "a".
        assert tr.apply_rules(table, "ac") == "bc"
        assert tr.apply_rules(table, "bc") == "bX"

    def test_consumed_source_not_rescanned(self):
        table = table_of([
            tr.RewriteRule("b", "a", priority=1),
            tr.RewriteRule("aa", "z", priority=2),
        ])
        # "b" rewrites to "a" but the output never feeds later matches.
        assert tr.apply_rules(table, "ba") == "aa"

    def test_empty_target_deletes(self):
        table = table_of([tr.RewriteRule("h", "", priority=1)])
        assert tr.apply_rules(table, "hotel") == "otel"

    def test_passthrough_drop(self):
        table = table_of([tr.RewriteRule("a", "A", priority=1)],
                         passthrough=tr.Passthrough.DROP)
        assert tr.apply_rules(table, "abca") == "AA"

    def test_passthrough_error_carries_position_and_char(self):
        table = table_of([tr.RewriteRule("a", "A", priority=1)],
                         passthrough=tr.Passthrough.ERROR)
        for text, char, position in (("ab", "b", 1), ("aa a\tb", " ", 2)):
            with pytest.raises(tr.UnmatchedCharacterError) as info:
                tr.apply_rules(table, text)
            assert info.value.char == char
            assert info.value.position == position

    def test_duplicate_priority_rejected(self):
        with pytest.raises(tr.RuleTableError):
            table_of([tr.RewriteRule("a", "x", priority=1),
                      tr.RewriteRule("b", "y", priority=1)])

    def test_duplicate_rule_key_rejected(self):
        with pytest.raises(tr.RuleTableError):
            table_of([tr.RewriteRule("a", "x", priority=1),
                      tr.RewriteRule("a", "y", priority=2)])

    def test_empty_source_rejected(self):
        with pytest.raises(tr.RuleTableError):
            tr.RewriteRule("", "x", priority=1)

    @pytest.mark.parametrize("char", ["\t", "\n", "\r", "\x0b", "\x1e",
                                      "\x85", "\u2028"])
    @pytest.mark.parametrize("part", ["source", "target", "left_context",
                                      "right_context"])
    def test_tab_or_line_break_in_a_part_rejected(self, part, char):
        # no field of a rule table row can hold one, so no rule may
        parts = {"source": "a", "target": "x", "left_context": "b",
                 "right_context": "c"}
        parts[part] = f"a{char}b"
        with pytest.raises(tr.RuleTableError) as excinfo:
            tr.RewriteRule(**parts, priority=1)
        assert str(excinfo.value) == (
            f"rule {part} holds a tab or a line break: {parts[part]!r}")

    @given(rule_tables(), rule_texts, rule_texts)
    @settings(max_examples=400)
    def test_matches_whole_text_scan(self, table, first, second):
        # The second text is rewritten with the memo the first one filled.
        for text in (first, second, first):
            assert outcome(tr.apply_rules, table, text) == \
                outcome(ref_apply_rules, table, text)

    @pytest.mark.parametrize("rule, text, expected", [
        (tr.RewriteRule("a", "X", right_context=" "), "ba a\tb", "bX a\tb"),
        (tr.RewriteRule("b", "Y", left_context="a\u3000"), "b a\u3000b",
         "b a\u3000Y"),
        (tr.RewriteRule("a\u3000b", "Z"), "a\u3000b ab", "Z ab"),
    ], ids=["right_context", "left_context", "source"])
    def test_whitespace_in_rule_fires_across_word_boundary(self, rule, text,
                                                           expected):
        table = table_of([rule])
        assert not table._word_local
        assert tr.apply_rules(table, text) == expected

    @given(rule_tables(), rule_texts,
           st.lists(st.sampled_from(["", " ", "x y", "\u3000"]),
                    max_size=3))
    @settings(max_examples=300)
    def test_rewrites_by_word_matches_the_whole_text_scan(self, table, text,
                                                          targets):
        # Some rules get targets that are empty or hold whitespace, which
        # leave the table rewriting word by word.
        rules = list(table.rules)
        for i, target in enumerate(targets[:len(rules)]):
            rules[i] = dataclasses.replace(rules[i], target=target)
        table = table_of(rules, passthrough=table.passthrough)
        word_local = not any(char.isspace() for rule in rules
                             for char in (rule.source + rule.left_context
                                          + rule.right_context))
        assert table.rewrites_by_word is (
            word_local and table.passthrough is tr.Passthrough.KEEP)
        if table.rewrites_by_word:
            assert ref_apply_rules(table, text).split() == [
                piece for word in text.split()
                for piece in ref_apply_rules(table, word).split()]

    def test_memo_limit_does_not_change_output(self, monkeypatch):
        monkeypatch.setattr(tr, "_MEMO_LIMIT", 2)
        table = tr.load_rule_table(tr.packaged_table_root() / "rom" /
                                   "kor.tsv", "kor", tr.RuleMode.ROMANIZE)
        text = tr.decompose_syllables("안녕 하세요 안녕\t캐나다 안녕  하세요")
        for _ in range(2):
            assert tr.apply_rules(table, text) == ref_apply_rules(table, text)
            assert len(table._memo) <= 2


class TestTableParsing:
    def test_parse_skips_comments_and_blanks(self):
        content = ("# comment\n"
                   "\n"
                   "ch\ttʃ\t\t\t1\n"
                   "c\tk\t\t\t2\n")
        table = tr.parse_rule_table(content, "und", tr.RuleMode.G2P)
        assert len(table.rules) == 2
        assert tr.apply_rules(table, "chc") == "tʃk"

    def test_parse_field_count_error_names_line(self):
        with pytest.raises(tr.RuleTableError, match=":2:"):
            tr.parse_rule_table("a\tb\t\t\t1\nbad line\n", "und",
                                tr.RuleMode.G2P)

    def test_parse_priority_error(self):
        with pytest.raises(tr.RuleTableError, match="priority"):
            tr.parse_rule_table("a\tb\t\t\tfirst\n", "und", tr.RuleMode.G2P)

    def test_format_parse_round_trip(self):
        table = table_of([
            tr.RewriteRule("ch", "x", "a", "b", priority=1),
            tr.RewriteRule("c", "k", priority=2),
        ])
        reparsed = tr.parse_rule_table(tr.format_rule_table(table), "und",
                                       tr.RuleMode.G2P)
        assert reparsed.rules == table.rules

    @pytest.mark.parametrize("source, target, left", [
        ("#a", "b", ""), (" ", "#", ""), ("\u3000", " ", "#"),
    ])
    def test_rule_whose_row_reads_as_a_comment_rejected(self, source,
                                                         target, left):
        # the row would be skipped on reading, so the table would lose it
        with pytest.raises(tr.RuleTableError, match="reads as a comment"):
            tr.RewriteRule(source, target, left, priority=1)

    @given(st.data())
    @settings(max_examples=300)
    def test_every_table_reads_back_from_its_rendering(self, data):
        # '#' and whitespace where a row's text starts, and now and then
        # any other character, a tab or a line break among them
        part = st.text(st.one_of(st.sampled_from("a# \u3000"),
                                 st.characters()), max_size=3)
        specs = data.draw(st.lists(
            st.tuples(part.filter(bool), part, part, part), max_size=5))
        priorities = data.draw(st.lists(st.integers(-99, 99), unique=True,
                                        min_size=len(specs),
                                        max_size=len(specs)))
        lang = data.draw(st.sampled_from(["und", "kor"]))
        mode = data.draw(st.sampled_from(tr.RuleMode))
        passthrough = data.draw(st.sampled_from(tr.Passthrough))
        try:
            table = tr.RuleTable(lang, mode, tuple(
                tr.RewriteRule(*spec, priority)
                for spec, priority in zip(specs, priorities)), passthrough)
        except tr.RuleTableError:
            assume(False)
        reparsed = tr.parse_rule_table(tr.format_rule_table(table), lang,
                                       mode, passthrough)
        assert reparsed.rules == table.rules
        assert reparsed.digest == table.digest

    def test_load_rule_table(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("a\tb\t\t\t1\n", encoding="utf-8")
        table = tr.load_rule_table(path, "und", tr.RuleMode.G2P)
        assert tr.apply_rules(table, "aaa") == "bbb"


class TestHangul:
    def test_block_boundaries(self):
        assert tr.decompose_hangul("가") == (0, 0, 0)
        assert tr.decompose_hangul(chr(0xD7A3)) == (18, 20, 27)

    def test_compose_decompose_bijection_full_block(self):
        for code in range(0xAC00, 0xAC00 + tr.HANGUL_COUNT):
            lead, vowel, tail = tr.decompose_hangul(chr(code))
            assert tr.compose_hangul(lead, vowel, tail) == chr(code)

    @pytest.mark.parametrize("char", ["a", "ㄱ", chr(0xABFF), chr(0xD7A4)])
    def test_decompose_rejects_non_syllables(self, char):
        with pytest.raises(ValueError):
            tr.decompose_hangul(char)

    def test_compose_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            tr.compose_hangul(19, 0, 0)
        with pytest.raises(ValueError):
            tr.compose_hangul(0, 0, 28)

    def test_decompose_syllables_mixed_text(self):
        # 하 has no tail: two jamo; 안 has tail ㄴ: three jamo.
        assert tr.decompose_syllables("하") == "하"
        assert tr.decompose_syllables("안") == "안"
        assert tr.decompose_syllables("a안b") == "a안b"
        assert tr.decompose_syllables("plain") == "plain"

    def test_decompose_syllables_matches_per_character_oracle(self):
        block = "".join(chr(code) for code in
                        range(tr.HANGUL_BASE - 1,
                              tr.HANGUL_BASE + tr.HANGUL_COUNT + 1))
        assert block[0] == chr(0xABFF) and block[-1] == chr(0xD7A4)
        assert tr.decompose_syllables(block) == ref_decompose_syllables(block)
        for char in block:
            assert tr.decompose_syllables(char) == \
                ref_decompose_syllables(char)

    @given(st.text())
    def test_decompose_syllables_mixed_text_matches_oracle(self, text):
        text = "안a " + text + "\u3000각"
        assert tr.decompose_syllables(text) == ref_decompose_syllables(text)


class TestRegistry:
    def test_spanish_g2p_fixtures(self, registry):
        assert registry.g2p("spa", "hotel") == "otel"
        assert registry.g2p("spa", "chica") == "tʃika"
        assert registry.g2p("spa", "cena") == "θena"
        assert registry.g2p("spa", "queso") == "keso"

    def test_korean_romanization_fixtures(self, registry):
        assert registry.romanize("kor", "안녕하세요") == "annyeonghaseyo"
        assert registry.romanize("kor", "캐나다") == "kaenada"
        assert registry.romanize("kor", "캐나다").endswith("ada")

    def test_latin_passes_through(self, registry):
        assert registry.romanize("eng", "hello") == "hello"
        assert registry.romanize("eng", "Hello, world!") == "Hello, world!"

    def test_unsupported_language(self, registry):
        with pytest.raises(tr.UnsupportedLanguageError):
            registry.romanize("zzz", "text")
        with pytest.raises(tr.UnsupportedLanguageError):
            registry.g2p("eng", "text")

    @given(st.lists(st.tuples(st.integers(0, 18), st.integers(0, 20),
                              st.integers(0, 27)), min_size=1, max_size=8))
    @settings(max_examples=50)
    def test_korean_romanization_is_latin_only(self, jamo):
        registry = tr.default_registry()
        word = "".join(tr.compose_hangul(*indices) for indices in jamo)
        romanized = registry.romanize("kor", word)
        assert all("a" <= char <= "z" for char in romanized)

    def test_a_root_replaces_the_packaged_tables(self, tmp_path):
        root = tmp_path / "tables"
        shutil.copytree(tr.packaged_table_root(), root)
        (root / "rom" / "eng.tsv").write_text("e\t3\t\t\t1\n",
                                              encoding="utf-8")
        (root / "rom" / "kor.tsv").unlink()
        registry = tr.TableRegistry(root)
        assert registry.romanize("eng", "hello") == "h3llo"
        assert registry.g2p("spa", "chica") == "tʃika"
        # a table the root lacks is not read from the packaged tables
        assert not registry.has_table(tr.RuleMode.ROMANIZE, "kor")
        with pytest.raises(tr.UnsupportedLanguageError) as excinfo:
            registry.romanize("kor", "캐나다")
        assert str(excinfo.value) == \
            f"no rom table for language 'kor' under {root}"

    def test_default_registry_reads_only_packaged_tables(self, tmp_path,
                                                         monkeypatch):
        # no environment variable adds a root: a run's tables follow from
        # its config alone
        (tmp_path / "g2p").mkdir()
        (tmp_path / "g2p" / "tst.tsv").write_text("a\tx\t\t\t1\n",
                                                  encoding="utf-8")
        monkeypatch.setenv("SCRIPTSHIFT_TABLES", str(tmp_path))
        registry = tr.default_registry()
        assert registry.root == tr.packaged_table_root()
        with pytest.raises(tr.UnsupportedLanguageError):
            registry.g2p("tst", "aaa")

    def test_table_caching_returns_same_object(self, registry):
        first = registry.table(tr.RuleMode.ROMANIZE, "kor")
        second = registry.table(tr.RuleMode.ROMANIZE, "kor")
        assert first is second
