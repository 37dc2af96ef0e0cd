"""Tests for the append-only JSONL rule ledgers, cache shards and traces share.

A kill mid-write tears at most a file's final line: readers drop it,
writers cut it before they append.
"""

from __future__ import annotations

import re

import pytest

from repro.utils.jsonl import ENCODER, drop_torn_tail, read_records


def write(tmp_path, data: bytes):
    path = tmp_path / "records.jsonl"
    path.write_bytes(data)
    return path


class TestReadRecords:
    def test_records_in_order_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, b'{"a":1}\n\n  \n{"b":2}\n')
        assert read_records(path) == ([{"a": 1}, {"b": 2}], False)

    def test_torn_final_line_is_dropped_and_flagged(self, tmp_path):
        path = write(tmp_path, b'{"a":1}\n{"b":\n\n')
        assert read_records(path) == ([{"a": 1}], True)

    def test_mid_file_garbage_names_the_file_and_line(self, tmp_path):
        path = write(tmp_path, b'{"a":1}\n\ngarbage\n{"b":2}\n')
        with pytest.raises(ValueError, match=re.escape(f"{path}") + ".*line 3"):
            read_records(path)

    def test_encoder_is_compact(self):
        assert ENCODER.encode({"a": [1, 2.5], "b": None}) == '{"a":[1,2.5],"b":null}'


class TestDropTornTail:
    def test_torn_fragment_is_cut(self, tmp_path):
        path = write(tmp_path, b'{"a":1}\n{"b":2}\n{"event":"compl')
        drop_torn_tail(path)
        assert path.read_bytes() == b'{"a":1}\n{"b":2}\n'

    def test_blank_lines_after_the_fragment_go_with_it(self, tmp_path):
        path = write(tmp_path, b'{"a":1}\n{"b":\n\n')
        drop_torn_tail(path)
        assert path.read_bytes() == b'{"a":1}\n'

    def test_a_lone_fragment_leaves_an_empty_file(self, tmp_path):
        path = write(tmp_path, b'{"a":')
        drop_torn_tail(path)
        assert path.read_bytes() == b""

    def test_missing_final_newline_is_restored(self, tmp_path):
        path = write(tmp_path, b'{"a":1}\n{"b":2}')
        drop_torn_tail(path)
        assert path.read_bytes() == b'{"a":1}\n{"b":2}\n'

    @pytest.mark.parametrize(
        "data", [b"", b"\n", b'{"a":1}\n', b'{"a":1}\n{"b":2}\n\n  \n']
    )
    def test_intact_file_keeps_its_bytes(self, tmp_path, data):
        path = write(tmp_path, data)
        drop_torn_tail(path)
        assert path.read_bytes() == data

    def test_mid_file_garbage_is_left_for_the_reader(self, tmp_path):
        data = b'garbage\n{"a":1}\n'
        path = write(tmp_path, data)
        drop_torn_tail(path)
        assert path.read_bytes() == data
        with pytest.raises(ValueError, match="line 1"):
            read_records(path)

    @pytest.mark.parametrize("tail", [b'{"b":2', b'{"b":2}'])
    def test_appending_after_the_heal_reads_back_whole(self, tmp_path, tail):
        path = write(tmp_path, b'{"a":1}\n' + tail)
        drop_torn_tail(path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write(ENCODER.encode({"c": 3}) + "\n")
        records, torn = read_records(path)
        assert not torn
        assert records[0] == {"a": 1} and records[-1] == {"c": 3}
