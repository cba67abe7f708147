"""The token pattern of `textio` against the character loop it replaced:
the same tokens, or the same ParseError message and position, on text
drawn from ASCII, Unicode digits, numerics, letters and spaces; and the
identity of the `re` classes \\s, \\d and \\w with the `str` predicates the
loop used, at every code point."""

import re
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from funcfield.textio import ParseError, _tokenize  # noqa: E402

_OPS = set("+-*/^()")


def reference_tokenize(text):
    """The character loop: one str predicate per character."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if text.startswith("**", i):
            tokens.append(("op", "^", i))
            i += 2
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


def outcome(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as error:
        return ("error", str(error), error.position)


# Arabic-Indic three (a decimal digit), superscript two (a digit that is
# not decimal), a Latin letter, an information separator and an
# ideographic space (both isspace), and the operators
PIECES = (list("az Z09_.,=!$\t\n") + ["٣", "²", "é", "\x1c", "　", "**"]
          + list("+-*/^()"))
texts = st.lists(st.sampled_from(PIECES), max_size=24).map("".join)


@settings(deadline=None, max_examples=400, derandomize=True, database=None)
@given(texts)
def test_pattern_matches_the_character_loop(text):
    assert outcome(_tokenize, text) == outcome(reference_tokenize, text)


@settings(deadline=None, max_examples=200, derandomize=True, database=None)
@given(st.text(max_size=16))
def test_pattern_matches_the_character_loop_on_any_text(text):
    assert outcome(_tokenize, text) == outcome(reference_tokenize, text)


@pytest.mark.parametrize("text", [
    "", " ", "z", "z²", "²", " ²z", "٣z", "z٣", "3²", "_x1", "é", "1 2",
    "z***2", "**", "z ** -2", "\x1cz　", "3/4*z^2 - z + 1", "$", "ẕ"])
def test_recorded_cases(text):
    assert outcome(_tokenize, text) == outcome(reference_tokenize, text)


def test_re_classes_equal_the_str_predicates_at_every_code_point():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    for pattern, accepts in (
            (r"\s", str.isspace), (r"\d", str.isdecimal),
            (r"\w", lambda c: c.isalnum() or c == "_")):
        assert "".join(re.findall(pattern, every)) \
            == "".join(filter(accepts, every)), pattern
