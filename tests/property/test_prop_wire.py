"""Property tests: the wire codec must round-trip anything."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.errors import InvalidRequestError
from repro.util.wire import decode_token, encode_token, pack_line, unpack_line

token_text = st.text(min_size=0, max_size=200)


class TestTokenRoundtrip:
    @given(token_text)
    def test_roundtrip_any_text(self, text):
        assert decode_token(encode_token(text)) == text

    @given(token_text)
    def test_wire_form_is_framing_safe(self, text):
        wire = encode_token(text)
        assert " " not in wire
        assert "\n" not in wire
        assert "\r" not in wire
        assert wire  # never empty: empty token encodes as '%'
        wire.encode("ascii")  # always pure ASCII

    @given(st.lists(token_text, min_size=0, max_size=10))
    def test_line_roundtrip(self, tokens):
        assert unpack_line(pack_line(*tokens)) == tokens

    @given(st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=10))
    def test_integer_tokens_roundtrip_as_decimal(self, numbers):
        tokens = unpack_line(pack_line(*numbers))
        assert [int(t) for t in tokens] == numbers

    @given(token_text, token_text)
    def test_distinct_tokens_stay_distinct(self, a, b):
        if a != b:
            assert encode_token(a) != encode_token(b)


# The per-character codec the pass-through fast paths must agree with.
_REFERENCE_SAFE = set(
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "0123456789"
    "-_.~/:@+=,*()[]{}!$&'#^|"
)


def reference_encode(token: str) -> str:
    if token == "":
        return "%"
    out = []
    for ch in token:
        if ch in _REFERENCE_SAFE:
            out.append(ch)
        else:
            out.extend(f"%{b:02X}" for b in ch.encode("utf-8"))
    return "".join(out)


def reference_decode(token: str) -> str:
    if token == "%":
        return ""
    raw = bytearray()
    i = 0
    while i < len(token):
        if token[i] == "%":
            if i + 3 > len(token):
                raise InvalidRequestError("truncated escape")
            try:
                raw.append(int(token[i + 1 : i + 3], 16))
            except ValueError as exc:
                raise InvalidRequestError("bad escape") from exc
            i += 3
        else:
            raw.extend(token[i].encode("utf-8"))
            i += 1
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidRequestError("not UTF-8") from exc


def _outcome(fn, token):
    try:
        return fn(token)
    except InvalidRequestError:
        return InvalidRequestError


# Biased towards what the fast paths branch on: safe-only tokens,
# escapes, the empty token, space, NUL and non-ASCII characters.
edge_text = st.one_of(
    st.text(alphabet=sorted(_REFERENCE_SAFE), max_size=40),
    st.text(alphabet=st.sampled_from(["%", " ", "\x00", "é", "漢", "a", "/", "2", "F"]), max_size=12),
    st.sampled_from(["", "%", " ", "\x00", "%%", "%2", "%zz", "%C3%A9", "%ff"]),
    token_text,
)


class TestCodecMatchesReference:
    @settings(max_examples=500)
    @given(edge_text)
    def test_encode_matches_per_character_loop(self, text):
        assert encode_token(text) == reference_encode(text)

    @settings(max_examples=500)
    @given(edge_text)
    def test_decode_matches_per_character_loop(self, text):
        assert _outcome(decode_token, text) == _outcome(reference_decode, text)
