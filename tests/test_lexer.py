"""The lexer: the one-scan `tokenize` against the token-by-token loop it
replaced, on the parser corpus, the README examples, printed translations
and generated text."""

import itertools
import re
import shlex

import pytest
from hypothesis import given, settings, strategies as st

import test_parser
import test_typecheck
from ptq import (
    EvalOrder,
    Pairing,
    ParseError,
    Strategy,
    lam_str,
    plotkin_translate,
    ptq_translate,
    ptq_translate_e,
    term_str,
)
from ptq.harness import gen_typed_term
from ptq.syntax import tokenize
from test_printer import church_image
from test_readme import readme_examples

_REFERENCE_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<punct>[\\()\[\]<>,;!%*:.|-]))"
)


def reference_tokenize(text):
    """The lexer `tokenize` replaced: one `re.match` per token."""
    toks = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"cannot tokenize at: {rest[:20]!r}")
        pos = m.end()
        tok = m.group("arrow") or m.group("ident") or m.group("punct")
        toks.append(tok)
    # glue |> and |- back together
    out = []
    i = 0
    while i < len(toks):
        if toks[i] == "|" and i + 1 < len(toks) and toks[i + 1] in (">", "-"):
            out.append("|" + toks[i + 1])
            i += 2
        else:
            out.append(toks[i])
            i += 1
    return out


def lexed(lex, text):
    """The tokens of text, or the text of the ParseError it raises."""
    try:
        return lex(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


def assert_same_as_reference(text):
    assert lexed(tokenize, text) == lexed(reference_tokenize, text)


def corpus():
    texts = [
        *test_parser.TestTermLanguage.ROUND_TRIPS,
        *test_parser.TestLambdaLanguage.ROUND_TRIPS,
        *(text for text, _ in test_typecheck.TestJudgmentChecker.GOOD),
        "x:pX |- x : pX",
        "x:pA, y:p(A -> B) |> *:tB |- <x, *> ; y",
        "|> k:tA |- k : tA",
        "[]:B |- [] : B",
        "x:A, []:B |- [] x : B",
        "",
        "* ;",
        "<x",
        "x y",
        "%x:A. * ; x",
    ]
    for command, _ in readme_examples():
        texts += shlex.split(command)
    return texts


def printed_translations():
    texts = []
    for size in range(9):
        for seed in range(3):
            m, _ = gen_typed_term(size, seed)
            for strategy in Strategy:
                texts.append(term_str(ptq_translate(m, strategy)))
                texts.append(term_str(ptq_translate_e(m, strategy)))
                for order in EvalOrder:
                    for pairing in Pairing:
                        texts.append(lam_str(plotkin_translate(m, strategy, order, pairing)))
    for n in (0, 3, 20):
        for strategy in Strategy:
            texts.append(term_str(church_image(n, strategy)))
    return texts


@pytest.mark.parametrize("text", corpus())
def test_corpus_same_as_reference(text):
    assert_same_as_reference(text)


def test_printed_translations_same_as_reference():
    texts = printed_translations()
    assert len(texts) > 300
    for text in texts:
        assert tokenize(text) == reference_tokenize(text)


TOKENS = [
    "->", "|>", "|-", "|", ">", "-", "<", "x", "k", "o", "ab", "A", "B1_", "x0",
    "\\", "(", ")", "[", "]", ",", ";", "!", "%", "*", ":", ".",
]
JUNK = ["@", "#", "1", "_", "$", "'", "\xe9", "\u03bb", "\u2192", "\x00", "\ud7ff"]
# \x1c and \x85 count as whitespace to both `\s` and str.isspace
SPACES = [
    " ", "\t", "\n", "\r", "\f", "\v", "\x1c", "\x85", "\xa0", "\u2003", "\u2028", "\u3000",
]


@settings(max_examples=2000, derandomize=True)
@given(st.lists(st.sampled_from(TOKENS + JUNK + SPACES), max_size=30).map("".join))
def test_generated_text_same_as_reference(text):
    assert_same_as_reference(text)


def test_every_short_text_same_as_reference():
    # every text of up to five of these characters: the glued `|>` and `|-`
    # across whitespace (\x85 is whitespace too), `|->`, and bad characters
    alphabet = "|>- \nx@\x85<"
    count = 0
    for n in range(6):
        for chars in itertools.product(alphabet, repeat=n):
            assert_same_as_reference("".join(chars))
            count += 1
    assert count == 66_430


@pytest.mark.parametrize(
    "text, tokens",
    [
        ("|>", ["|>"]),
        ("| >", ["|>"]),
        ("|-", ["|-"]),
        ("|->", ["|", "->"]),
        ("|-->", ["|-", "->"]),
        ("||-", ["|", "|-"]),
    ],
)
def test_glue(text, tokens):
    assert tokenize(text) == tokens == reference_tokenize(text)


@pytest.mark.parametrize("n", [20, 100_000])
def test_bad_character_after_a_long_identifier(n):
    # a single pattern matching whole texts as whitespace and tokens took
    # time exponential in n here
    text = "ab" * n + "@"
    with pytest.raises(ParseError) as exc:
        tokenize(text)
    assert str(exc.value) == "cannot tokenize at: '@'"


def test_error_names_the_first_bad_character():
    assert lexed(tokenize, "x y\t @ z # w") == "ParseError: cannot tokenize at: '@ z # w'"
    assert lexed(tokenize, "x 1abc") == "ParseError: cannot tokenize at: '1abc'"
