"""Unit tests for the crash-safe record log and the directory fsync."""

import errno
import os

import pytest

from repro.util.jsonlog import RecordLog, fsync_dir


def read(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


class TestRecordLog:
    def test_missing_file_is_created_empty(self, tmp_path):
        path = str(tmp_path / "log")
        log = RecordLog(path)
        assert list(log.records()) == []
        assert read(path) == b""
        log.close()

    def test_empty_file_replays_nothing(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes(b"")
        log = RecordLog(str(path))
        assert list(log.records()) == []
        log.append({"a": 1})
        assert list(log.records()) == [{"a": 1}]
        log.close()

    def test_lines_are_sorted_json(self, tmp_path):
        path = str(tmp_path / "log")
        log = RecordLog(path)
        log.append({"b": 2, "a": [1, "x"]})
        log.close()
        assert read(path) == b'{"a": [1, "x"], "b": 2}\n'

    def test_torn_tail_is_truncated_at_open(self, tmp_path):
        path = str(tmp_path / "log")
        log = RecordLog(path)
        log.append(["put", {"id": "a"}])
        log.close()
        with open(path, "ab") as f:
            f.write(b'["put", {"id": "b", "x"')  # crash mid-append
        log = RecordLog(path)
        assert read(path) == b'["put", {"id": "a"}]\n'
        log.append(["put", {"id": "c"}])
        log.close()
        assert list(RecordLog(path).records()) == [
            ["put", {"id": "a"}],
            ["put", {"id": "c"}],
        ]

    def test_torn_tail_without_any_full_line(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes(b'{"seq": 1, "op"')
        log = RecordLog(str(path))
        assert read(path) == b""
        log.append({"seq": 1})
        log.close()
        assert list(RecordLog(str(path)).records()) == [{"seq": 1}]

    def test_rewrite_then_append(self, tmp_path):
        path = str(tmp_path / "log")
        log = RecordLog(path)
        for i in range(5):
            log.append({"i": i})
        log.rewrite([{"i": 3}, {"i": 4}])
        log.append({"i": 5})
        log.close()
        assert list(RecordLog(path).records()) == [{"i": 3}, {"i": 4}, {"i": 5}]
        assert not os.path.exists(path + ".tmp")

    def test_rewrite_fsyncs_the_directory(self, tmp_path, monkeypatch):
        path = str(tmp_path / "log")
        log = RecordLog(path)
        synced = []
        monkeypatch.setattr(
            "repro.util.jsonlog.fsync_dir", lambda d: synced.append(d) or True
        )
        log.rewrite([{"i": 1}])
        log.close()
        assert synced == [str(tmp_path)]

    @pytest.mark.parametrize("fail", ["write", "fsync"])
    def test_failed_append_truncates_and_reraises(self, tmp_path, monkeypatch, fail):
        path = str(tmp_path / "log")
        log = RecordLog(path)
        log.append({"i": 1})
        real = getattr(os, fail)

        def partial_then_enospc(fd, *args):
            if fail == "write":
                real(fd, args[0][:5])  # part of the line reached the file
            else:
                real(fd)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, fail, partial_then_enospc)
        with pytest.raises(OSError):
            log.append({"i": 2})
        monkeypatch.setattr(os, fail, real)
        assert read(path) == b'{"i": 1}\n'
        log.append({"i": 3})
        log.close()
        assert list(RecordLog(path).records()) == [{"i": 1}, {"i": 3}]

    def test_closed_log_refuses_appends(self, tmp_path):
        log = RecordLog(str(tmp_path / "log"))
        log.close()
        with pytest.raises(ValueError):
            log.append({"i": 1})


class TestFsyncDir:
    def test_syncs_an_existing_directory(self, tmp_path):
        assert fsync_dir(str(tmp_path)) is True

    def test_missing_directory_is_best_effort(self, tmp_path):
        assert fsync_dir(str(tmp_path / "gone")) is False
