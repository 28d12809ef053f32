"""Trace serialisation: save and load traces as gzipped JSON-lines.

The format is line-oriented so multi-million-µop traces stream without
building intermediate structures: a header line with the trace name and
PC-region map, then one compact line per µop:
``[kind, pc, addr, size, dep_distance, mispredicted, taken]``, the trace's
seven columns.
"""

from __future__ import annotations

import gzip
import json
from typing import IO

from repro.isa.trace import Trace, TraceColumns

#: 2: each µop line carries the branch direction (``taken``) as well.
_FORMAT_VERSION = 2


def _open(path: str, mode: str) -> IO:
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def save_trace(trace: Trace, path: str) -> None:
    """Write a trace to ``path`` (gzipped when the name ends in .gz)."""
    with _open(path, "w") as handle:
        header = {
            "version": _FORMAT_VERSION,
            "name": trace.name,
            "regions": {str(pc): region for pc, region in trace.regions.items()},
        }
        handle.write(json.dumps(header) + "\n")
        for kind, pc, addr, size, dep, mispredicted, taken in zip(*trace.columns):
            record = [int(kind), pc, addr, size, dep, int(mispredicted), int(taken)]
            handle.write(json.dumps(record) + "\n")


def load_trace(path: str) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    with _open(path, "r") as handle:
        header = json.loads(handle.readline())
        version = header.get("version")
        if version == 1:
            raise ValueError(
                f"{path}: trace format version 1 does not record branch "
                "directions; regenerate the trace with this version of save_trace"
            )
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported trace format version: {version!r}")
        regions = {int(pc): region for pc, region in header["regions"].items()}
        columns = TraceColumns.empty()
        for line in handle:
            kind, pc, addr, size, dep, mispredicted, taken = json.loads(line)
            columns.kinds.append(kind)
            columns.pcs.append(pc)
            columns.addrs.append(addr)
            columns.sizes.append(size)
            columns.deps.append(dep)
            columns.mispredicted.append(bool(mispredicted))
            columns.taken.append(bool(taken))
    return Trace.from_columns(columns, name=header["name"], regions=regions)
