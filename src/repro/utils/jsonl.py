"""Append-only JSONL files: the one rule every record file here follows.

Run ledgers, persistent-cache shards and traces hold one JSON object per
line, appended with one write and one flush.  A kill mid-write tears at
most the final line, so every reader applies one rule
(:func:`read_records`): blank lines are skipped, and an unparseable line
is tolerated only as the last non-blank line of the file, where it is
the write the kill interrupted.  An unparseable line anywhere else is
corruption and raises.

Writers heal a file before they append to it (:func:`drop_torn_tail`),
so a torn fragment never ends up *between* two intact records, where the
rule above would reject the whole file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

#: The one compact encoder for every line written; passing ``separators``
#: per call would build a fresh encoder every time.
ENCODER = json.JSONEncoder(separators=(",", ":"))


def read_records(path: str | Path) -> tuple[list[Any], bool]:
    """Parse a JSONL file into its records, in file order.

    Returns ``(records, torn)``: ``torn`` is True when the last non-blank
    line did not parse and was dropped.  Raises :class:`ValueError` naming
    the file and line when an unparseable line is not the last non-blank
    one.
    """
    records: list[Any] = []
    torn_line: int | None = None
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if torn_line is not None:
            raise ValueError(
                f"corrupt JSONL file {path}: unparseable line {torn_line} "
                "is not the final line"
            )
        try:
            records.append(json.loads(stripped))
        except json.JSONDecodeError:
            torn_line = lineno
    return records, torn_line is not None


def drop_torn_tail(path: str | Path) -> None:
    """Make ``path`` safe to append to, by :func:`read_records`'s rule.

    An unparseable last non-blank line (the write a kill interrupted) is
    cut, with the blank lines after it; a parseable one that lacks its
    newline gets it back, so the next appended line starts a line of its
    own.  An intact file keeps its bytes.
    """
    path = Path(path)
    lines = path.read_bytes().decode("utf-8").splitlines(keepends=True)
    last = len(lines) - 1
    while last >= 0 and not lines[last].strip():
        last -= 1
    if last < 0:
        return
    tail = lines[last]
    try:
        json.loads(tail.strip())
    except json.JSONDecodeError:
        with path.open("r+b") as fh:
            fh.truncate(len("".join(lines[:last]).encode("utf-8")))
        return
    if tail == tail.splitlines()[0]:  # the final line, without a newline
        with path.open("ab") as fh:
            fh.write(b"\n")


__all__ = ["ENCODER", "drop_torn_tail", "read_records"]
