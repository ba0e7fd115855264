"""Atom encodings: bits, bytes, words and language atoms.

The three marker atoms fixed by convention:

    (:)        marks bit atoms
    ((:):)     marks byte atoms
    ((:):(:))  marks word atoms

A bit is ((:):) for 0 and ((:):(:)) for 1.  A byte is the byte marker over
its 8 bits, most significant first.  A word is the word marker on the left
and its bytes on the right.  A language atom carries unparsed source text:
the word "{}" on the left and the source bytes on the right.

All of these are invariant data once the marker definitions are installed.

Decoding reads each byte atom's value from a table of the 256 byte atoms,
so a coda decodes exactly when it equals one of them.  An atom that `word`
or `lang_atom` builds carries the text it was built from, so reading its
text decodes nothing; any other coda, equal to such an atom or not, decodes
each time it is read.  `word` and `lang_atom` keep the atoms they built in
caches bounded at `_TEXT_CAP` entries, except the words made with
`kept_word` (the prelude's triggers), which `word` returns as the same atom
for good.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Tuple

from .terms import COLON, Coda, Data

BIT_MARKER = COLON                      # (:)
BYTE_MARKER = Coda((COLON,), ())        # ((:):)
WORD_MARKER = Coda((COLON,), (COLON,))  # ((:):(:))

BIT0 = Coda((BIT_MARKER,), ())
BIT1 = Coda((BIT_MARKER,), (COLON,))

LANG_NAME = "{}"

# the 256 byte atoms, by value
_BYTES = tuple(Coda((BYTE_MARKER,), tuple(BIT1 if v >> i & 1 else BIT0
                                          for i in range(7, -1, -1)))
               for v in range(256))
# every byte atom's value: a coda is a byte atom exactly when it is a key
_BYTE_VALUE = {c: v for v, c in enumerate(_BYTES)}


def bits(text: str) -> Data:
    """The byte-atom sequence encoding `text` (UTF-8).  Total: a lone
    surrogate, which is how Python hands over a command-line byte that is
    not UTF-8, encodes as three bytes that strict decoding refuses, so the
    atom holding it renders structurally."""
    return tuple(map(_BYTES.__getitem__, text.encode("utf-8", "surrogatepass")))


# a slot that only the atoms built here fill in: see `_text`
_set_text = Coda._text.__set__


def _spelled(marker: Coda, text: str) -> Coda:
    """The atom `marker` over the bytes of `text`, carrying what
    `decode_bytes` makes of them."""
    try:
        raw = text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate: see `bits`
        raw, text = text.encode("utf-8", "surrogatepass"), None
    c = Coda((marker,), tuple(map(_BYTES.__getitem__, raw)))
    _set_text(c, text)
    return c


# entries in each cache keyed by text: a word is met again and again, but
# fresh words keep coming, so the least recently used go
_TEXT_CAP = 4096


# words that stay canonical: a definition's trigger is matched by identity
# first, so the LRU must not replace it with an equal copy
_KEPT: Dict[str, Coda] = {}


@lru_cache(maxsize=_TEXT_CAP)
def word(text: str) -> Coda:
    kept = _KEPT.get(text)
    return kept if kept is not None else _spelled(WORD_MARKER, text)


def kept_word(text: str) -> Coda:
    """`word(text)`, and the atom `word` returns for `text` from now on."""
    return _KEPT.setdefault(text, word(text))


WORD_LANG = kept_word(LANG_NAME)


@lru_cache(maxsize=_TEXT_CAP)
def lang_atom(source: str) -> Coda:
    return _spelled(WORD_LANG, source)


def decode_bytes(d: Data) -> Optional[str]:
    """The UTF-8 text the byte atoms `d` spell, or None if a coda of `d` is
    not a byte atom or the bytes are not UTF-8."""
    try:
        return bytes(map(_BYTE_VALUE.__getitem__, d)).decode("utf-8")
    except (KeyError, UnicodeDecodeError):
        return None


def _text(c: Coda) -> Optional[str]:
    """The text the bytes of a word or language atom spell: carried by an
    atom `word` or `lang_atom` built, decoded for any other coda."""
    try:
        return c._text
    except AttributeError:
        return decode_bytes(c.right)


def _marked(c: Coda, marker: Coda) -> bool:
    """Whether `c.left` is `(marker,)`, by identity and then by hash before
    `==`, so most codas are told apart without a call to `Coda.__eq__`."""
    if len(c.left) != 1:
        return False
    m = c.left[0]
    return m is marker or m._hash == marker._hash and m == marker


def word_text(c: Coda) -> Optional[str]:
    """The text of a word atom, or None if `c` is not one."""
    return _text(c) if _marked(c, WORD_MARKER) else None


def is_lang_atom(c: Coda) -> bool:
    return _marked(c, WORD_LANG)


def lang_source(c: Coda) -> Optional[str]:
    if not is_lang_atom(c):
        return None
    return _text(c)


def atom_text(c: Coda) -> Tuple[Optional[str], bool]:
    """`(word_text(c), False)` for a word atom, `(lang_source(c), True)`
    for a language atom, and `(None, False)` for any other coda."""
    if _marked(c, WORD_MARKER):
        return _text(c), False
    if _marked(c, WORD_LANG):
        return _text(c), True
    return None, False
