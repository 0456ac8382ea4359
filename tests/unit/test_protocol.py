"""Unit tests for the Chirp protocol vocabulary."""

import os
import re
import stat as stat_mod
from pathlib import Path

import pytest

from repro.chirp.client import ChirpClient
from repro.chirp.protocol import (
    LINES,
    PAYLOAD,
    STATUS,
    VERBS,
    ChirpStat,
    OpenFlags,
    StatFs,
)
from repro.chirp.server import FileServer
from repro.util.errors import InvalidRequestError

PROTOCOL_MD = Path(__file__).resolve().parents[2] / "docs" / "PROTOCOL.md"


class TestOpenFlags:
    def test_encode_decode_roundtrip(self):
        flags = OpenFlags(read=True, write=True, create=True, sync=True)
        assert OpenFlags.decode(flags.encode()) == flags

    def test_all_letters(self):
        flags = OpenFlags.decode("rwcxtas")
        assert flags == OpenFlags(True, True, True, True, True, True, True)

    def test_unknown_letter_rejected(self):
        with pytest.raises(InvalidRequestError):
            OpenFlags.decode("rz")

    def test_neither_read_nor_write_rejected(self):
        with pytest.raises(InvalidRequestError):
            OpenFlags.decode("c")

    def test_os_flags_read_write(self):
        assert OpenFlags(read=True).to_os_flags() & os.O_ACCMODE == os.O_RDONLY
        assert OpenFlags(write=True).to_os_flags() & os.O_ACCMODE == os.O_WRONLY
        both = OpenFlags(read=True, write=True).to_os_flags()
        assert both & os.O_ACCMODE == os.O_RDWR

    def test_os_flags_modifiers(self):
        flags = OpenFlags(write=True, create=True, exclusive=True, truncate=True)
        os_flags = flags.to_os_flags()
        assert os_flags & os.O_CREAT
        assert os_flags & os.O_EXCL
        assert os_flags & os.O_TRUNC

    def test_sync_flag_maps_to_o_sync(self):
        flags = OpenFlags(write=True, sync=True)
        assert flags.to_os_flags() & os.O_SYNC

    @pytest.mark.parametrize(
        "mode,expect",
        [
            ("r", OpenFlags(read=True)),
            ("rb", OpenFlags(read=True)),
            ("w", OpenFlags(write=True, create=True, truncate=True)),
            ("a", OpenFlags(write=True, create=True, append=True)),
            ("x", OpenFlags(write=True, create=True, exclusive=True)),
            ("r+", OpenFlags(read=True, write=True)),
            ("w+b", OpenFlags(read=True, write=True, create=True, truncate=True)),
        ],
    )
    def test_mode_string_parsing(self, mode, expect):
        assert OpenFlags.parse_mode_string(mode) == expect

    def test_bad_mode_string_rejected(self):
        with pytest.raises(ValueError):
            OpenFlags.parse_mode_string("rw")


class TestChirpStat:
    def test_from_os_and_token_roundtrip(self, tmp_path):
        p = tmp_path / "f"
        p.write_bytes(b"hello")
        st = ChirpStat.from_os(os.stat(str(p)))
        tokens = [str(t) for t in st.to_tokens()]
        assert ChirpStat.from_tokens(tokens) == st
        assert st.size == 5
        assert st.is_file and not st.is_dir

    def test_directory_flags(self, tmp_path):
        st = ChirpStat.from_os(os.stat(str(tmp_path)))
        assert st.is_dir and not st.is_file

    def test_symlink_flag_via_lstat(self, tmp_path):
        target = tmp_path / "t"
        target.write_text("x")
        link = tmp_path / "l"
        os.symlink(str(target), str(link))
        st = ChirpStat.from_os(os.lstat(str(link)))
        assert st.is_symlink

    def test_wrong_token_count_rejected(self):
        with pytest.raises(InvalidRequestError):
            ChirpStat.from_tokens(["1", "2", "3"])

    def test_mode_bits_survive(self, tmp_path):
        p = tmp_path / "f"
        p.write_bytes(b"")
        os.chmod(str(p), 0o640)
        st = ChirpStat.from_os(os.stat(str(p)))
        assert stat_mod.S_IMODE(st.mode) == 0o640


class TestStatFs:
    def test_token_roundtrip(self):
        fs = StatFs(10_000_000, 4_000_000)
        assert StatFs.from_tokens([str(t) for t in fs.to_tokens()]) == fs

    def test_wrong_token_count_rejected(self):
        with pytest.raises(InvalidRequestError):
            StatFs.from_tokens(["1"])


def _documented_rpcs() -> dict[str, tuple[str, str]]:
    """verb -> (reply cell, shape cell) of PROTOCOL.md's RPC table."""
    rows: dict[str, tuple[str, str]] = {}
    lines = iter(PROTOCOL_MD.read_text(encoding="utf-8").splitlines())
    for line in lines:
        if line.startswith("| request | reply | shape |"):
            break
    next(lines)  # the |---| rule
    for line in lines:
        if not line.startswith("|"):
            break
        request, reply, shape = (c.strip() for c in line.strip("|").split(" | ")[:3])
        for verb in re.findall(r"`(\w+)", request):
            rows[verb] = (reply, shape)
    return rows


class TestVerbTable:
    """``VERBS`` is the one declaration of the protocol: the server, the
    client and the document must each agree with it."""

    DOCUMENTED = _documented_rpcs()

    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_verb_is_served_called_and_documented(self, verb):
        shape = VERBS[verb].reply
        assert shape in (STATUS, PAYLOAD, LINES)
        assert callable(getattr(FileServer, f"_op_{verb}", None))
        method = "close_fd" if verb == "close" else verb
        assert callable(getattr(ChirpClient, method, None))
        assert verb in self.DOCUMENTED, f"{verb} has no row in PROTOCOL.md"
        reply, documented_shape = self.DOCUMENTED[verb]
        assert documented_shape == f"`{shape}`"
        assert ("payload bytes" in reply) == (shape == PAYLOAD)
        assert ("lines" in reply) == (shape == LINES)

    def test_no_row_for_an_undeclared_verb(self):
        assert set(self.DOCUMENTED) <= set(VERBS)
