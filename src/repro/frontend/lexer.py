"""Regex-based lexer for the mini-C subset.

Handles identifiers, integer/float literals, string/char literals, the
C punctuators (longest-match), ``//`` and ``/* */`` comments, and
``#pragma``/``#include``/``#define`` lines.  ``#pragma`` lines become
:class:`~repro.frontend.tokens.Token` of kind ``PRAGMA`` (the parser
attaches them to the following statement); other preprocessor lines are
skipped — the corpus kernels do not rely on macro expansion.

One master regular expression with named alternatives is run over the
source with ``finditer`` (the classic "scanner" idiom); a match that does
not start where the previous one ended marks a character no alternative
accepts, which is reported with its position.  A token's column is its
offset minus the offset of its line's first character, so the line
counter moves only on the alternatives that can hold a newline (line
breaks, block comments, preprocessor lines, literals), and blanks within
a line cost one match and nothing else.  Per token the lexer builds one
:class:`~repro.frontend.tokens.Token` and one
:class:`~repro.frontend.source.Loc`, both plain ``__slots__`` classes.
Errors (unterminated comment / string / char literal, unexpected
character) carry the line and column where the bad lexeme starts.
"""

from __future__ import annotations

import re

from repro.errors import LexError
from repro.frontend.source import Loc
from repro.frontend.tokens import KEYWORDS, PUNCTUATORS, TokKind, Token

# Longest punctuator first so alternation implements longest-match.
_PUNCT_ALT = "|".join(
    re.escape(p) for p in sorted(PUNCTUATORS, key=len, reverse=True)
)

# Alternative order matters: comments before the '/' punctuator, numbers
# before the '.' punctuator (leading-dot floats), whitespace first
# because it is the most common match.
_TOKEN_RE = re.compile(
    r"""
     (?P<SPACE>[ \t\r]+)
    |(?P<NEWLINE>\n[ \t\r\n]*)
    |(?P<LINE_COMMENT>//[^\n]*)
    |(?P<BLOCK_COMMENT>/\*(?s:.)*?\*/)
    |(?P<PP>\#(?:\\\n|[^\n])*)
    |(?P<IDENT>[^\W\d]\w*)
    |(?P<NUM>0[xX][0-9a-fA-F]*[uUlLfF]*
        |(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?[uUlLfF]*)
    |(?P<STRING>"(?:\\(?s:.)|[^"\\])*")
    |(?P<CHAR>'(?:\\(?s:.)|[^'\\])*')
    |(?P<PUNCT>%s)
    """
    % _PUNCT_ALT,
    re.VERBOSE,
)

_PUNCT = TokKind.PUNCT
_KEYWORD = TokKind.KEYWORD
_IDENT = TokKind.IDENT

_SUFFIX_RE = re.compile(r"[uUlLfF]+\Z")
_HEX_BODY_RE = re.compile(r"0[xX][0-9a-fA-F]*")


def _number_kind(text: str) -> TokKind:
    """INT or FLOAT, by C literal shape (suffixes included in ``text``)."""
    if text[:2] in ("0x", "0X"):
        # hex digits are consumed greedily (so a trailing 'f' is a digit,
        # not a suffix); only an f/F in the residual suffix means float
        suffix = text[_HEX_BODY_RE.match(text).end() :]
        return TokKind.FLOAT if "f" in suffix or "F" in suffix else TokKind.INT
    m = _SUFFIX_RE.search(text)
    suffix = m.group() if m else ""
    body = text[: len(text) - len(suffix)]
    if "." in body or "e" in body or "E" in body or "f" in suffix or "F" in suffix:
        return TokKind.FLOAT
    return TokKind.INT


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source``; returns a token list ending with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    pos = 0  # where the next token must start
    line = 1
    line_start = 0  # offset of the first character of ``line``
    for m in _TOKEN_RE.finditer(source):
        start = m.start()
        if start != pos:
            break  # nothing matches at ``pos``: reported below
        pos = m.end()
        kind = m.lastgroup
        if kind == "SPACE":
            continue
        text = m.group()
        col = start - line_start + 1
        if kind == "PUNCT":
            if text == "/" and source.startswith("/*", start):
                # '/*' with no closing '*/': the comment alternative
                # failed, so the bare '/' punctuator matched instead
                raise LexError("unterminated block comment", line, col)
            append(Token(_PUNCT, text, Loc(line, col)))
            continue
        if kind == "IDENT":
            append(Token(_KEYWORD if text in KEYWORDS else _IDENT, text, Loc(line, col)))
            continue
        if kind == "NUM":
            append(Token(_number_kind(text), text, Loc(line, col)))
            continue
        # the alternatives that may span lines
        if kind == "PP":
            stripped = text.strip()
            if stripped.startswith("#pragma"):
                append(
                    Token(TokKind.PRAGMA, stripped[len("#pragma") :].strip(), Loc(line, col))
                )
            # #include / #define / #ifdef... are ignored by design
        elif kind == "STRING":
            append(Token(TokKind.STRING, text, Loc(line, col)))
        elif kind == "CHAR":
            append(Token(TokKind.CHAR, text, Loc(line, col)))
        # NEWLINE / LINE_COMMENT / BLOCK_COMMENT produce no token
        nl = text.rfind("\n")
        if nl >= 0:
            line += text.count("\n")
            line_start = start + nl + 1
    if pos < len(source):
        col = pos - line_start + 1
        ch = source[pos]
        if ch == '"':
            raise LexError("unterminated string literal", line, col)
        if ch == "'":
            raise LexError("unterminated char literal", line, col)
        raise LexError(f"unexpected character {ch!r}", line, col)
    append(Token(TokKind.EOF, "", Loc(line, pos - line_start + 1)))
    return tokens
