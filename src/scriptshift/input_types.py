"""The four text representations a corpus can be prepared in."""

from __future__ import annotations

from enum import Enum


class InputType(str, Enum):
    """How a corpus is rendered before tokenizer training and evaluation.

    ORTHO is the native orthography untouched. IPA is the output of a
    rule-table grapheme-to-phoneme pass. ROM is the romanized form (Latin
    text passes through unchanged). CIPHER is the romanized form with a
    per-language Caesar shift applied, which keeps within-language structure
    intact while destroying cross-language string overlap.
    """

    ORTHO = "Ortho"
    IPA = "IPA"
    ROM = "Rom"
    CIPHER = "Cipher"

    @classmethod
    def _missing_(cls, value):
        """Match a name ignoring case and surrounding spaces."""
        if isinstance(value, str):
            for member in cls:
                if member.value.lower() == value.strip().lower():
                    return member
        raise ValueError(f"unknown input type {value!r}; expected one of "
                         f"{[m.value for m in cls]}")

    @classmethod
    def parse(cls, name: str) -> "InputType":
        return cls(name)
