"""Dump and reload of collected trace-event data.

The paper's evaluation methodology (Section V-B) uses POET's *dump*
feature to save collected trace-event data to a file, then the *reload*
feature to replay the saved events "via the same interface used to
collect events from a running application" — so every matcher run sees
an identical event stream.  The format here is a line of JSON per
record: a header describing the computation, then one line per event in
delivery order.

A dump is read as a stream, one record at a time, so a replay holds
no copy of it.  Reading is hardened against corrupt input: any
malformed line — bad UTF-8, broken or too deeply nested JSON, a
missing or mistyped field, an inconsistent clock — raises
:class:`DumpFormatError` naming the file, line number, and offending
field, and nothing else escapes.  Each record is also checked against
the deliverability rule as it is read, so a truncated or hand-edited
dump cannot silently feed the matcher a causally broken stream: the
error names the first record that breaks the order.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, List, Sequence, Tuple, Union

from repro.events.event import Event, event_from_record
from repro.poet.linearize import admit

_FORMAT = "ocep-poet-dump-v1"

PathLike = Union[str, Path]


class DumpFormatError(ValueError):
    """A dump file is corrupt.

    Attributes
    ----------
    path, line:
        Where the problem is (1-based line number; line 1 is the
        header).
    field:
        The offending record field, when one can be named.
    """

    def __init__(self, path, line: int, message: str, field: str = ""):
        self.path = path
        self.line = line
        self.field = field
        where = f"{path}:{line}"
        if field:
            where += f" (field {field!r})"
        super().__init__(f"{where}: {message}")


def dump_events(
    path: PathLike,
    events: Iterable[Event],
    num_traces: int,
    trace_names: Sequence[str],
) -> int:
    """Write a dump file; returns the number of events written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "format": _FORMAT,
            "num_traces": num_traces,
            "trace_names": list(trace_names),
        }
        fh.write(json.dumps(header) + "\n")
        for event in events:
            fh.write(json.dumps(event.to_record()) + "\n")
            count += 1
    return count


def load_events(path: PathLike) -> Tuple[Iterator[Event], int, List[str]]:
    """Open a dump file; returns ``(events, num_traces, trace_names)``.

    The header is checked here, so a bad header raises at the call.
    ``events`` is a one-pass iterator: each step parses one record and
    checks it against the deliverability rule
    (:func:`~repro.poet.linearize.admit`), so a malformed or
    out-of-order record raises at its own line when the stream reaches
    it.  The file is closed when the iterator is exhausted, raises or
    is closed.  A caller that needs a list builds it.
    """
    fh = open(path, "rb")
    try:
        line = fh.readline()
        if not line:
            raise DumpFormatError(path, 1, "empty dump file")
        header = _parse_json(path, 1, line)
        if not isinstance(header, dict):
            raise DumpFormatError(path, 1, "header is not a JSON object")
        if header.get("format") != _FORMAT:
            raise DumpFormatError(
                path, 1, f"unknown dump format {header.get('format')!r}",
                field="format",
            )
        num_traces = header.get("num_traces")
        names = header.get("trace_names")
        if (type(num_traces) is not int or num_traces <= 0
                or type(names) is not list or len(names) != num_traces):
            raise DumpFormatError(
                path, 1, "num_traces must be a positive int naming as many "
                f"trace_names: {num_traces!r:.40}, {names!r:.80}",
                field="num_traces/trace_names",
            )
    except BaseException:
        fh.close()
        raise
    events = _read_records(path, fh, num_traces)
    next(events)  # enter its ``with``: closing the iterator closes the file
    return events, num_traces, [str(name) for name in names]


def _read_records(path: PathLike, fh: BinaryIO, num_traces: int):
    """The records after the header, one checked event per step; the
    first step yields ``None`` (``load_events`` takes it)."""
    delivered = [0] * num_traces
    with fh:
        yield None  # primed by load_events
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            record = _parse_json(path, lineno, line)
            if not isinstance(record, dict):
                raise DumpFormatError(path, lineno, "record is not a JSON object")
            try:
                event = event_from_record(record)
            except KeyError as exc:
                raise DumpFormatError(
                    path, lineno, "missing record field", field=str(exc.args[0])
                ) from exc
            except (IndexError, TypeError, ValueError) as exc:
                raise DumpFormatError(path, lineno, f"bad record: {exc}") from exc
            if len(event.clock) != num_traces:
                raise DumpFormatError(
                    path, lineno,
                    f"clock width {len(event.clock)} does not match header "
                    f"num_traces {num_traces}",
                    field="c",
                )
            if not admit(delivered, event):
                raise DumpFormatError(
                    path, lineno,
                    f"event {event.event_id} breaks the linearization of the "
                    "partial order: a causal predecessor is missing or comes "
                    "later (truncated or reordered dump?)",
                    field="c",
                )
            yield event


def _parse_json(path: PathLike, lineno: int, line: bytes):
    """One line as JSON; bad UTF-8, bad JSON and nesting too deep for
    the parser are all a :class:`DumpFormatError` at that line."""
    try:
        return json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        what = "header" if lineno == 1 else "record"
        raise DumpFormatError(
            path, lineno, f"unparseable {what}: {exc!s:.200}"
        ) from exc
