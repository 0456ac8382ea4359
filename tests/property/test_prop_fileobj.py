"""Property tests: AdapterFile behaves like a local file.

Random sequences of read/write/seek/truncate are applied to an
:class:`AdapterFile` over a local store handle and to a reference
``io.BytesIO``; observable behaviour must match byte-for-byte.  (Every
layer shares the one handle contract, so this pins the whole file-object
layer cheaply.)
"""

import io
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapter.fileobj import AdapterFile
from repro.chirp.protocol import OpenFlags
from repro.core.storefs import StoreFilesystem
from repro.store.localdir import LocalDirStore

ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.binary(max_size=64)),
        st.tuples(st.just("read"), st.integers(0, 128)),
        st.tuples(st.just("seek_set"), st.integers(0, 256)),
        st.tuples(st.just("seek_cur"), st.integers(-64, 64)),
        st.tuples(st.just("seek_end"), st.integers(-64, 0)),
        st.tuples(st.just("truncate"), st.integers(0, 128)),
        st.tuples(st.just("tell"), st.none()),
    ),
    max_size=30,
)


def apply(fobj, op, arg):
    """Apply one op; returns an observable value or raises."""
    if op == "write":
        return fobj.write(arg)
    if op == "read":
        return fobj.read(arg)
    if op == "seek_set":
        return fobj.seek(arg, os.SEEK_SET)
    if op == "seek_cur":
        try:
            return fobj.seek(arg, os.SEEK_CUR)
        except (OSError, ValueError):
            return "negative-seek"
    if op == "seek_end":
        try:
            return fobj.seek(arg, os.SEEK_END)
        except (OSError, ValueError):
            return "negative-seek"
    if op == "truncate":
        return fobj.truncate(arg)
    if op == "tell":
        return fobj.tell()
    raise AssertionError(op)


class TestFileObjectEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(ops=ops, initial=st.binary(max_size=64))
    def test_matches_bytesio(self, ops, initial):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            fs = StoreFilesystem(LocalDirStore(tmp))
            fs.write_file("/f.bin", initial)
            handle = fs.open("/f.bin", OpenFlags(read=True, write=True))
            ours = AdapterFile(handle, "/f.bin", readable=True, writable=True)
            # The reference is a real unbuffered file, not BytesIO --
            # BytesIO diverges from POSIX (truncate past EOF does not
            # extend, negative relative seeks raise differently).
            reference = tempfile.TemporaryFile(buffering=0)
            reference.write(initial)
            reference.seek(0)
            try:
                for op, arg in ops:
                    got = apply(ours, op, arg)
                    expected = apply(reference, op, arg)
                    assert got == expected, (op, arg)
                # final contents agree
                ours.seek(0)
                reference.seek(0)
                assert ours.read() == reference.read()
            finally:
                ours.close()
                reference.close()

    @settings(max_examples=30, deadline=None)
    @given(chunks=st.lists(st.binary(min_size=1, max_size=50), max_size=10))
    def test_append_mode_concatenates(self, chunks):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            fs = StoreFilesystem(LocalDirStore(tmp))
            fs.write_file("/log", b"")
            expected = b""
            for chunk in chunks:
                handle = fs.open("/log", OpenFlags(read=True, write=True, append=True))
                f = AdapterFile(handle, "/log", readable=True, writable=True, append=True)
                f.write(chunk)
                f.close()
                expected += chunk
            assert fs.read_file("/log") == expected

    @settings(max_examples=30, deadline=None)
    @given(data=st.binary(max_size=200), block=st.integers(1, 64))
    def test_buffered_reader_sees_identical_stream(self, data, block):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            fs = StoreFilesystem(LocalDirStore(tmp))
            fs.write_file("/f", data)
            handle = fs.open("/f", OpenFlags(read=True))
            raw = AdapterFile(handle, "/f", readable=True, writable=False)
            reader = io.BufferedReader(raw, buffer_size=block)
            assert reader.read() == data
            reader.close()
