"""Text transforms: rule-table rewriting, Hangul decomposition, Caesar ciphers.

Grapheme-to-phoneme conversion and romanization both run on ordered,
context-sensitive rewrite rules loaded from TSV tables. The per-language
substitution cipher shifts Latin letters by a fixed offset, preserving
within-language structure while destroying cross-language string overlap.

Rewriting is word-local when no rule's source or contexts contain
whitespace: such a rule can neither match nor look across a whitespace
run, so the text is rewritten one whitespace-separated piece at a time and
each distinct piece is rewritten once per table, through a memo that is
cleared when it reaches 65,536 entries. Hangul syllables decompose
through a str.translate table filled in as code points are first seen.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable

LATIN_LOWER = "abcdefghijklmnopqrstuvwxyz"
LATIN_UPPER = LATIN_LOWER.upper()

# Entries a per-table rewrite memo holds before it is cleared, so that its
# memory stays bounded however many distinct words a corpus has.
_MEMO_LIMIT = 1 << 16

# The same whitespace test as str.isspace() and str.split(); the capturing
# group keeps the whitespace runs as pieces of their own.
_WHITESPACE_RUN = re.compile(r"(\s+)")

# A tab or a character str.splitlines breaks a line at: no field of a rule
# table row can hold one.
_NOT_IN_A_FIELD = frozenset("\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


class RuleMode(str, Enum):
    G2P = "g2p"
    ROMANIZE = "rom"


class Passthrough(str, Enum):
    """What to do with input characters no rule covers."""

    KEEP = "keep"
    DROP = "drop"
    ERROR = "error"


class UnmatchedCharacterError(ValueError):
    """Raised under Passthrough.ERROR when no rule covers a character."""

    def __init__(self, char: str, position: int):
        super().__init__(f"no rule matches {char!r} at position {position}")
        self.char = char
        self.position = position


class UnsupportedLanguageError(LookupError):
    """Raised when no rule table is registered for a language and mode."""


class RuleTableError(ValueError):
    """Raised for malformed rule tables (parse errors, duplicate rules)."""


@dataclass(frozen=True)
class RewriteRule:
    """One rewrite: source string to target string, optionally guarded by
    literal left/right contexts matched against the original input. No
    part holds a tab or a line break, as no field of a rule table row
    can, and the rule's row does not start with '#' once its leading
    whitespace is removed, as such a row reads as a comment."""

    source: str
    target: str
    left_context: str = ""
    right_context: str = ""
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.source:
            raise RuleTableError("rule source must be non-empty")
        for name in ("source", "target", "left_context", "right_context"):
            part = getattr(self, name)
            if not _NOT_IN_A_FIELD.isdisjoint(part):
                raise RuleTableError(
                    f"rule {name} holds a tab or a line break: {part!r}")
        parts = self.source + self.target + self.left_context \
            + self.right_context
        if parts.lstrip().startswith("#"):
            raise RuleTableError(
                f"rule {self.source!r} -> {self.target!r} would be written as "
                f"a row that starts with '#' once its leading whitespace is "
                f"removed, which reads as a comment")

    def matches(self, text: str, pos: int) -> bool:
        if not text.startswith(self.source, pos):
            return False
        lc = self.left_context
        if lc and (pos < len(lc) or text[pos - len(lc):pos] != lc):
            return False
        rc = self.right_context
        if rc:
            end = pos + len(self.source)
            if text[end:end + len(rc)] != rc:
                return False
        return True


@dataclass(frozen=True)
class RuleTable:
    """An ordered rewrite system for one language and mode.

    Rules are tried longest-source-first, then by ascending priority number,
    so specific (longer or lower-numbered) rules win over general ones.
    """

    lang: str
    mode: RuleMode
    rules: tuple[RewriteRule, ...]
    passthrough: Passthrough = Passthrough.KEEP

    def __post_init__(self) -> None:
        seen_keys = set()
        seen_priorities = set()
        for rule in self.rules:
            key = (rule.source, rule.left_context, rule.right_context)
            if key in seen_keys:
                raise RuleTableError(f"duplicate rule for {key!r}")
            seen_keys.add(key)
            if rule.priority in seen_priorities:
                raise RuleTableError(f"duplicate priority {rule.priority}")
            seen_priorities.add(rule.priority)
        ordered = tuple(sorted(self.rules,
                               key=lambda r: (-len(r.source), r.priority)))
        object.__setattr__(self, "rules", ordered)

    @functools.cached_property
    def _by_first_char(self) -> dict[str, tuple[RewriteRule, ...]]:
        index: dict[str, list[RewriteRule]] = {}
        for rule in self.rules:
            index.setdefault(rule.source[0], []).append(rule)
        return {char: tuple(rules) for char, rules in index.items()}

    @functools.cached_property
    def _word_local(self) -> bool:
        """True when no rule's source or contexts contain whitespace."""
        return not any(char.isspace() for rule in self.rules
                       for part in (rule.source, rule.left_context,
                                    rule.right_context)
                       for char in part)

    @functools.cached_property
    def _memo(self) -> dict[str, str]:
        return {}

    @functools.cached_property
    def digest(self) -> str:
        """sha256 of the JSON list of the language, mode, passthrough and
        rules rendered by `format_rule_table`: what a run keys the
        table's output by, rendered once per table."""
        parts = [self.lang, self.mode.value, self.passthrough.value,
                 format_rule_table(self)]
        return hashlib.sha256(json.dumps(parts).encode("ascii")).hexdigest()

    @property
    def rewrites_by_word(self) -> bool:
        """True when rewriting a text equals rewriting each of its
        whitespace-separated words on its own, the whitespace between them
        kept as is. That holds when no rule's source or contexts contain
        whitespace and the passthrough is KEEP; under DROP the whitespace
        between words is dropped, and under ERROR it raises. A rule's
        target may hold whitespace or be empty: the words it yields are
        still separated by the kept whitespace."""
        return self._word_local and self.passthrough is Passthrough.KEEP


def apply_rules(table: RuleTable, text: str) -> str:
    """Rewrite text in a single left-to-right pass.

    At each position the highest-ranked matching rule fires, its target is
    emitted, and scanning resumes after the consumed source. Contexts are
    matched against the original input, so rule outputs never feed back into
    later matches. Unmatched characters follow the table's passthrough policy.

    When no rule's source or contexts contain whitespace, the text is split
    into words and whitespace runs and each piece is scanned on its own.
    This equals the whole-text scan: a whitespace-free source can neither
    start on nor span whitespace, and a whitespace-free context that would
    reach past a piece's edge fails in both scans, against the whitespace
    beyond the edge in one and against the cut-short piece in the other.
    Each distinct piece is scanned once per table and its output memoized.
    Under Passthrough.ERROR a failing piece makes the whole text be scanned
    again, so the error carries the position in the whole text. Tables
    with whitespace in a rule are always scanned whole. A table with no
    rules under Passthrough.KEEP returns the text as is.
    """
    if not table.rules and table.passthrough is Passthrough.KEEP:
        return text
    if not table._word_local:
        return _scan(table, text)
    memo = table._memo
    out: list[str] = []
    try:
        for piece in _WHITESPACE_RUN.split(text):
            rewritten = memo.get(piece)
            if rewritten is None:
                rewritten = _scan(table, piece)
                if len(memo) >= _MEMO_LIMIT:
                    memo.clear()
                memo[piece] = rewritten
            out.append(rewritten)
    except UnmatchedCharacterError:
        return _scan(table, text)
    return "".join(out)


def _scan(table: RuleTable, text: str) -> str:
    """The left-to-right rewrite of apply_rules over the whole of text."""
    out: list[str] = []
    pos = 0
    n = len(text)
    index = table._by_first_char
    while pos < n:
        fired = None
        for rule in index.get(text[pos], ()):
            if rule.matches(text, pos):
                fired = rule
                break
        if fired is not None:
            out.append(fired.target)
            pos += len(fired.source)
        else:
            char = text[pos]
            if table.passthrough is Passthrough.KEEP:
                out.append(char)
            elif table.passthrough is Passthrough.ERROR:
                raise UnmatchedCharacterError(char, pos)
            pos += 1
    return "".join(out)


def parse_rule_table(content: str, lang: str, mode: RuleMode,
                     passthrough: Passthrough = Passthrough.KEEP,
                     origin: str = "<string>") -> RuleTable:
    """Parse TSV rule rows: source, target, left_context, right_context,
    priority. Lines starting with '#' and blank lines are skipped."""
    rules = []
    for lineno, raw in enumerate(content.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise RuleTableError(
                f"{origin}:{lineno}: expected 5 tab-separated fields, "
                f"got {len(fields)}")
        source, target, left, right, priority_text = fields
        try:
            priority = int(priority_text)
        except ValueError:
            raise RuleTableError(
                f"{origin}:{lineno}: priority {priority_text!r} is not an "
                f"integer") from None
        try:
            rules.append(RewriteRule(source, target, left, right, priority))
        except RuleTableError as exc:
            raise RuleTableError(f"{origin}:{lineno}: {exc}") from None
    try:
        return RuleTable(lang, mode, tuple(rules), passthrough)
    except RuleTableError as exc:
        raise RuleTableError(f"{origin}: {exc}") from None


def load_rule_table(path, lang: str, mode: RuleMode,
                    passthrough: Passthrough = Passthrough.KEEP) -> RuleTable:
    """Read and parse a rule table from a file path (a str or a Path) or a
    packaged-resource traversable. Bytes that are not UTF-8 raise
    RuleTableError naming the path."""
    if isinstance(path, str):
        path = Path(path)
    try:
        content = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RuleTableError(f"{path}: {exc}") from None
    return parse_rule_table(content, lang, mode, passthrough,
                            origin=str(path))


def format_rule_table(table: RuleTable) -> str:
    """Render a table back to TSV, rules in priority order."""
    lines = ["# source\ttarget\tleft_context\tright_context\tpriority"]
    for rule in sorted(table.rules, key=lambda r: r.priority):
        lines.append("\t".join([rule.source, rule.target, rule.left_context,
                                rule.right_context, str(rule.priority)]))
    return "\n".join(lines) + "\n"


# --- Hangul syllable arithmetic -------------------------------------------
#
# Precomposed syllables occupy U+AC00..U+D7A3 and factor as
# code = 0xAC00 + (lead * 21 + vowel) * 28 + tail. The conjoining jamo
# blocks start at U+1100 (leads), U+1161 (vowels), U+11A8 (tails).

HANGUL_BASE = 0xAC00
HANGUL_LEADS = 19
HANGUL_VOWELS = 21
HANGUL_TAILS = 28
HANGUL_COUNT = HANGUL_LEADS * HANGUL_VOWELS * HANGUL_TAILS
LEAD_BASE = 0x1100
VOWEL_BASE = 0x1161
TAIL_BASE = 0x11A7


def is_hangul_syllable(char: str) -> bool:
    return len(char) == 1 and 0 <= ord(char) - HANGUL_BASE < HANGUL_COUNT


def decompose_hangul(char: str) -> tuple[int, int, int]:
    """Split a precomposed syllable into (lead, vowel, tail) indices.
    Tail index 0 means no final consonant."""
    if not is_hangul_syllable(char):
        raise ValueError(f"{char!r} is not a precomposed Hangul syllable")
    index = ord(char) - HANGUL_BASE
    lead, rest = divmod(index, HANGUL_VOWELS * HANGUL_TAILS)
    vowel, tail = divmod(rest, HANGUL_TAILS)
    return lead, vowel, tail


def compose_hangul(lead: int, vowel: int, tail: int) -> str:
    if not (0 <= lead < HANGUL_LEADS and 0 <= vowel < HANGUL_VOWELS
            and 0 <= tail < HANGUL_TAILS):
        raise ValueError(f"jamo indices out of range: {(lead, vowel, tail)}")
    return chr(HANGUL_BASE + (lead * HANGUL_VOWELS + vowel) * HANGUL_TAILS
               + tail)


class _JamoTable(dict):
    """str.translate table from a code point to its conjoining jamo, or to
    itself for anything but a precomposed syllable. Each entry is computed
    the first time its code point is looked up, so the table holds only the
    characters seen, not the whole syllable block."""

    def __missing__(self, code: int) -> str | int:
        char = chr(code)
        if not is_hangul_syllable(char):
            self[code] = code
            return code
        lead, vowel, tail = decompose_hangul(char)
        jamo = chr(LEAD_BASE + lead) + chr(VOWEL_BASE + vowel)
        if tail:
            jamo += chr(TAIL_BASE + tail)
        self[code] = jamo
        return jamo


_JAMO = _JamoTable()


def decompose_syllables(text: str) -> str:
    """Replace every precomposed Hangul syllable with its conjoining jamo
    characters; all other characters pass through unchanged. One
    str.translate call does the work, through a table shared by all calls
    that grows by one entry per distinct character ever seen."""
    return text.translate(_JAMO)


# --- Caesar cipher over the Latin alphabet ---------------------------------


@dataclass(frozen=True)
class CipherKey:
    lang: str
    shift: int

    def __post_init__(self) -> None:
        if not 0 <= self.shift <= 25:
            raise ValueError(f"shift must be in 0..25, got {self.shift}")


@functools.lru_cache(maxsize=None)
def _shift_table(shift: int) -> dict[int, int]:
    table = {}
    for alphabet in (LATIN_LOWER, LATIN_UPPER):
        for i, char in enumerate(alphabet):
            table[ord(char)] = ord(alphabet[(i + shift) % 26])
    return table


def caesar_encipher(key: CipherKey, text: str) -> str:
    """Shift a-z and A-Z forward by key.shift, each case wrapping within
    itself; every other character is left unchanged."""
    return text.translate(_shift_table(key.shift))


def caesar_decipher(key: CipherKey, text: str) -> str:
    return text.translate(_shift_table((26 - key.shift) % 26))


def assign_shift_keys(langs: Iterable[str]) -> dict[str, CipherKey]:
    """Give each language a distinct non-zero shift: sorted languages get
    shifts 1, 2, ... so assignment is reproducible from the set alone."""
    ordered = sorted(langs)
    if not ordered:
        raise ValueError("no languages to assign cipher keys to")
    if len(set(ordered)) != len(ordered):
        raise ValueError("duplicate languages in cipher key assignment")
    if len(ordered) > 25:
        raise ValueError(f"only 25 distinct non-zero shifts exist, "
                         f"got {len(ordered)} languages")
    return {lang: CipherKey(lang, i + 1) for i, lang in enumerate(ordered)}


# --- Table registry ---------------------------------------------------------


def packaged_table_root():
    return resources.files("scriptshift") / "tables"


class TableRegistry:
    """Looks up rule tables under one root laid out as
    <root>/<mode>/<lang>.tsv, by default the packaged tables. A root
    replaces the packaged tables: a table it lacks is not found. Loaded
    tables are cached per (mode, lang)."""

    def __init__(self, root=None, passthrough: Passthrough = Passthrough.KEEP):
        self.root = packaged_table_root() if root is None else root
        self.passthrough = passthrough
        self._cache: dict[tuple[RuleMode, str], RuleTable] = {}

    def _path(self, mode: RuleMode, lang: str):
        return self.root / mode.value / f"{lang}.tsv"

    def has_table(self, mode: RuleMode, lang: str) -> bool:
        return self._path(mode, lang).is_file()

    def table(self, mode: RuleMode, lang: str) -> RuleTable:
        key = (mode, lang)
        if key not in self._cache:
            if not self.has_table(mode, lang):
                raise UnsupportedLanguageError(
                    f"no {mode.value} table for language {lang!r} under "
                    f"{self.root}")
            self._cache[key] = load_rule_table(self._path(mode, lang), lang,
                                               mode, self.passthrough)
        return self._cache[key]

    def g2p(self, lang: str, text: str) -> str:
        """Grapheme-to-phoneme conversion via the language's g2p table."""
        return apply_rules(self.table(RuleMode.G2P, lang), text)

    def romanize(self, lang: str, text: str) -> str:
        """Romanize text: Hangul syllables are decomposed into jamo first,
        then the language's romanization table is applied."""
        table = self.table(RuleMode.ROMANIZE, lang)
        return apply_rules(table, decompose_syllables(text))


def default_registry() -> TableRegistry:
    return TableRegistry()
