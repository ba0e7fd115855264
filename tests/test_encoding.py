from coda.encoding import (
    _BYTES, _TEXT_CAP, BIT0, BIT1, BYTE_MARKER, WORD_MARKER, bits, decode_bytes,
    lang_atom, word, word_text,
)
from coda.lang import parse
from coda.prelude import prelude
from coda.terms import COLON, Coda


def decode_by_bits(d):
    """`decode_bytes` as a loop over each byte's bits: the reference."""
    out = bytearray()
    for c in d:
        if c.left != (BYTE_MARKER,) or len(c.right) != 8:
            return None
        value = 0
        for bit in c.right:
            if bit != BIT0 and bit != BIT1:
                return None
            value = 2 * value + (bit == BIT1)
        out.append(value)
    try:
        return out.decode("utf-8")
    except UnicodeDecodeError:
        return None


def spelled(values):
    """Byte atoms for `values`, built afresh from (:) rather than cached."""
    return tuple(
        Coda((Coda((COLON,), ()),),
             tuple(Coda((COLON,), (COLON,) * (v >> i & 1)) for i in range(7, -1, -1)))
        for v in values)


# text in which every byte value UTF-8 uses (all but C0, C1 and F5-FF) stands
TEXT = "".join(map(chr, [*range(0x800), *range(0x800, 0xD800, 997), *range(0xE000, 0x110000, 997)]))


def test_decode_table_matches_the_bits():
    assert set(TEXT.encode()) == set(range(256)) - {0xC0, 0xC1, *range(0xF5, 256)}
    for v in range(256):
        assert spelled([v]) == (_BYTES[v],)
        assert decode_bytes(spelled([v])) == decode_by_bits(spelled([v]))
    assert decode_bytes(spelled(TEXT.encode())) == decode_by_bits(spelled(TEXT.encode())) == TEXT


def test_decode_refuses_what_is_not_a_byte():
    a = _BYTES[ord("a")].right
    for bad in (Coda((BYTE_MARKER,), a[:7]),                # 7 bits
                Coda((BYTE_MARKER,), a + (BIT0,)),          # 9 bits
                Coda((BYTE_MARKER,), a[:7] + (COLON,)),     # a member that is no bit
                Coda((WORD_MARKER,), a)):                   # the word marker
        assert decode_by_bits((bad,)) is None
        assert decode_bytes((bad,)) is None
        assert decode_bytes(bits("xy") + (bad,)) is None


def test_atom_caches_are_bounded():
    n = 10 ** 4
    assert len(parse(" ".join(f"w{i}" for i in range(n)))) == n
    assert len(parse(" ".join(f"{{l{i}}}" for i in range(n)))) == n
    assert word.cache_info().currsize <= _TEXT_CAP
    assert lang_atom.cache_info().currsize <= _TEXT_CAP
    # an atom dropped from the cache is rebuilt equal
    assert parse("w0") == (word("w0"),) == (Coda((WORD_MARKER,), bits("w0")),)


def test_prelude_triggers_outlive_the_word_cache():
    # a definition's trigger is matched by identity first, so a word the
    # LRU dropped must come back as the prelude's own atom, not a copy
    triggers = {word_text(t): t for t in prelude().defs if word_text(t) is not None}
    for i in range(_TEXT_CAP + 1):
        word(f"evict{i}")
    assert word.cache_info().currsize == _TEXT_CAP
    assert parse("sort : a")[0].left[0] is triggers["sort"]
    for text, trigger in triggers.items():
        assert word(text) is trigger, text
