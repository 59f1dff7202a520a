"""Dump and reload of collected trace-event data.

The paper's evaluation methodology (Section V-B) uses POET's *dump*
feature to save collected trace-event data to a file, then the *reload*
feature to replay the saved events "via the same interface used to
collect events from a running application" — so every matcher run sees
an identical event stream.  The format here is a line of JSON per
record: a header describing the computation, then one line per event in
delivery order.

Loading is hardened against corrupt input: any malformed line — broken
JSON, a missing or mistyped field, an inconsistent clock — raises
:class:`DumpFormatError` naming the file, line number, and offending
field instead of leaking a bare ``KeyError``/``IndexError``.  By
default the loader also re-checks that the reloaded sequence still
forms a linearization of the partial order, so a truncated or
hand-edited dump cannot silently feed the matcher a causally broken
stream.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple, Union

from repro.events.event import Event, event_from_record
from repro.poet.linearize import is_linearization
from repro.poet.server import POETServer

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


def load_events(
    path: PathLike, validate_order: bool = True
) -> Tuple[List[Event], int, List[str]]:
    """Read a dump file; returns ``(events, num_traces, trace_names)``.

    With ``validate_order`` (the default) the reloaded sequence is
    checked to still be a linearization of the partial order; disable
    it only for deliberately partial dumps.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise DumpFormatError(path, 1, "empty dump file")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise DumpFormatError(path, 1, f"unparseable header: {exc}") from exc
        if not isinstance(header, dict):
            raise DumpFormatError(path, 1, "header is not a JSON object")
        if header.get("format") != _FORMAT:
            raise DumpFormatError(
                path, 1, f"unknown dump format {header.get('format')!r}",
                field="format",
            )
        try:
            num_traces = int(header["num_traces"])
            trace_names = [str(n) for n in header["trace_names"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DumpFormatError(
                path, 1, f"bad header: {exc!r}", field="num_traces/trace_names"
            ) from exc
        if num_traces <= 0 or len(trace_names) != num_traces:
            raise DumpFormatError(
                path, 1,
                f"{len(trace_names)} trace names for {num_traces} traces",
                field="trace_names",
            )

        events: List[Event] = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            events.append(_parse_record_line(path, lineno, line, num_traces))

    if validate_order and not is_linearization(events, num_traces):
        raise DumpFormatError(
            path, 0,
            "reloaded events do not form a linearization of the partial "
            "order (truncated or reordered dump?)",
        )
    return events, num_traces, trace_names


def _parse_record_line(
    path: PathLike, lineno: int, line: str, num_traces: int
) -> Event:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DumpFormatError(path, lineno, f"unparseable record: {exc}") from exc
    if not isinstance(record, dict):
        raise DumpFormatError(path, lineno, "record is not a JSON object")
    event = _record_to_event(record, path=path, line=lineno)
    if len(event.clock) != num_traces:
        raise DumpFormatError(
            path, lineno,
            f"clock width {len(event.clock)} does not match header "
            f"num_traces {num_traces}",
            field="c",
        )
    return event


def replay(path: PathLike, verify: bool = False) -> POETServer:
    """Reload a dump into a fresh POET server, without clients.

    Callers typically connect their monitor first and then feed the
    events through :meth:`POETServer.collect`; this convenience loads
    and collects in one step (the returned server has checked and
    counted the dump).
    """
    events, num_traces, trace_names = load_events(path)
    server = POETServer(num_traces, trace_names, verify=verify)
    for event in events:
        server.collect(event)
    return server


def _event_to_record(event: Event) -> dict:
    return event.to_record()


def _record_to_event(record: dict, path: PathLike = "<record>", line: int = 0) -> Event:
    try:
        return event_from_record(record)
    except KeyError as exc:
        raise DumpFormatError(
            path, line, "missing record field", field=str(exc.args[0])
        ) from exc
    except (IndexError, TypeError, ValueError) as exc:
        raise DumpFormatError(path, line, f"bad record: {exc}") from exc
