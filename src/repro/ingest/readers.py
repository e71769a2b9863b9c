"""Pluggable trace-reader registry.

A *reader* is a callable ``(path: Path) -> Iterator[ForeignEvent]``
registered under a short name.  ``repro ingest --reader NAME`` selects
one explicitly; :func:`sniff_reader` picks one from the file itself
(extension, then first-line magic), so the common case needs no flag.

Third-party formats plug in with :func:`register_reader`::

    from repro.ingest.events import ForeignEvent
    from repro.ingest.readers import register_reader

    @register_reader("otf-lite")
    def read_otf_lite(path):
        for line in ...:
            yield ForeignEvent(...)

The two shipped readers cover the formats the ROADMAP names: a
VEF/TraceLIB-style timestamped text format (:mod:`repro.ingest.vef`)
and generic MPI-ish JSON lines (:mod:`repro.ingest.mpijson`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from pathlib import Path

from repro.core.errors import IngestError
from repro.ingest.events import ForeignEvent

#: A reader turns a file path into a stream of foreign events.
Reader = Callable[[Path], Iterator[ForeignEvent]]

_READERS: dict[str, Reader] = {}


def register_reader(name: str) -> Callable[[Reader], Reader]:
    """Decorator registering a reader under ``name`` (lower-cased).

    Names are first-come-first-served; re-registering one is an error
    so a plugin cannot silently shadow a shipped reader.
    """

    def deco(fn: Reader) -> Reader:
        key = name.lower()
        if key in _READERS:
            raise IngestError(
                f"reader {key!r} is already registered")
        _READERS[key] = fn
        return fn

    return deco


def reader_names() -> tuple[str, ...]:
    """All registered reader names, sorted."""
    return tuple(sorted(_READERS))


def get_reader(name: str) -> Reader:
    """Look up a reader; raises a structured error on unknown names."""
    reader = _READERS.get(name.lower())
    if reader is None:
        raise IngestError(
            f"no reader named {name!r} is registered "
            f"(known: {list(reader_names())})")
    return reader


def sniff_reader(path: Path) -> str:
    """Pick a reader name from the file extension, then line-1 magic.

    ``.json``/``.jsonl`` files go to the MPI-ish JSON-lines reader; a
    first line starting with ``VEF`` goes to the VEF-style reader; a
    first line starting with ``{`` also goes to JSON lines (foreign
    dumps rarely bother with an extension).
    """
    suffix = path.suffix.lower()
    if suffix in (".json", ".jsonl", ".ndjson"):
        return "mpijson"
    if suffix == ".vef":
        return "vef"
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            first = fh.readline().lstrip()
    except OSError as exc:
        raise IngestError(f"cannot read trace: {exc}",
                          source=str(path)) from exc
    if first.startswith("VEF"):
        return "vef"
    if first.startswith("{"):
        return "mpijson"
    raise IngestError(
        "cannot sniff the trace format (not VEF-style, not JSON lines); "
        "pass --reader explicitly", source=str(path), line=1)


def read_events(path: str | Path,
                reader: str | None = None) -> Iterator[ForeignEvent]:
    """Parse ``path`` with the named (or sniffed) reader."""
    p = Path(path)
    name = reader if reader is not None else sniff_reader(p)
    return get_reader(name)(p)


# Shipped readers register themselves on import.
from repro.ingest import mpijson as _mpijson  # noqa: E402
from repro.ingest import vef as _vef  # noqa: E402

del _mpijson, _vef
