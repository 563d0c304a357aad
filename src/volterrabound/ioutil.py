"""Small file-system helpers shared by the exporters and the CLI.

Every output is written to a temporary file in its own directory and
renamed into place, so readers never observe a partially written file.
The temporary file is created as a plain ``open`` creates a file, so the
output gets the same mode.
CSV files are streamed: no file's whole text is held in memory.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

__all__ = ["write_text_atomic", "write_csv_atomic"]

# Rows formatted and written at a time.  Whole-column tolist() lists
# raised verify's peak RSS by about 1 MB at 12 001 nodes, and chunks of
# 4096 rows still by about 0.8 MB.
_CSV_CHUNK = 1024


@contextlib.contextmanager
def _atomic_files(paths):
    """Yield one text handle per path, open on a new file beside it,
    named ``<name>.<random hex>`` and created with mode 0o666 as a plain
    ``open`` creates it, so that the umask (and a default ACL) applies.
    On success each file is renamed onto its path; on failure every
    temporary file is removed."""
    handles, names = [], []
    try:
        for path in paths:
            name = f"{path}.{os.urandom(8).hex()}"
            fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            names.append(name)
            handles.append(os.fdopen(fd, "w"))
        yield handles
        for handle in handles:
            handle.close()
        for name, path in zip(names, paths):
            os.replace(name, path)
    except BaseException:
        for handle in handles:
            with contextlib.suppress(OSError):
                handle.close()
        for name in names:
            with contextlib.suppress(OSError):
                os.unlink(name)  # already gone once renamed
        raise


def write_text_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically."""
    with _atomic_files([path]) as (handle,):
        handle.write(text)


def write_csv_atomic(columns, targets) -> None:
    """Write one or more CSV files atomically in one pass over shared
    float ``columns``.

    Each target is ``(path, header, width, rows, trailer)``: its file
    holds the ``header`` line, then ``rows`` rows of the first ``width``
    columns with 17 significant digits (binary64 round trip), then the
    ``trailer`` lines.  Each chunk of rows is formatted once, in the
    columns that a target still writing rows prints, and written to
    every such target before the next chunk is formatted.  A column
    shorter than the chunk is formatted only as far as it reaches.
    """
    with _atomic_files([path for path, *_ in targets]) as handles:
        for (_, header, *_), handle in zip(targets, handles):
            handle.write(header + "\n")
        for start in range(0, max(rows for *_, rows, _ in targets), _CSV_CHUNK):
            live = [(handle, width, rows - start)
                    for (_, _, width, rows, _), handle in zip(targets, handles) if rows > start]
            texts = [["%.17g" % x for x in column[start : start + _CSV_CHUNK].tolist()]
                     for column in columns[: max(width for _, width, _ in live)]]
            for handle, width, count in live:
                cells = zip(*(text[:count] for text in texts[:width]))
                handle.write("\n".join(map(",".join, cells)) + "\n")
        for (*_, trailer), handle in zip(targets, handles):
            handle.write("".join(line + "\n" for line in trailer))
