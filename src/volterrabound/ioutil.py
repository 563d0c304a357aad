"""Small file-system helpers shared by the exporters and the CLI."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["write_text_atomic", "write_csv_atomic"]

# Rows converted to Python floats at a time.  Whole-column tolist() lists
# raised verify's peak RSS by about 1 MB at 12 001 nodes, and chunks of
# 4096 rows still by about 0.8 MB.
_CSV_CHUNK = 1024


def write_text_atomic(path: Path, text: str) -> None:
    """Write via a temporary file in the same directory plus rename, so
    readers never observe a partially written file.  The file gets the
    mode a plain ``open`` would give it, 0o666 less the umask."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(prefix=path.name + ".", dir=path.parent or ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_csv_atomic(path: Path, header: str, columns, trailer: tuple = ()) -> None:
    """Write ``header``, one row per index of the equally long float
    ``columns`` with 17 significant digits (binary64 round trip), then
    the ``trailer`` lines."""
    row = ",".join(["%.17g"] * len(columns))
    lines = [header]
    for start in range(0, len(columns[0]), _CSV_CHUNK):
        chunk = [column[start : start + _CSV_CHUNK].tolist() for column in columns]
        lines += [row % values for values in zip(*chunk)]
    lines += trailer
    write_text_atomic(path, "\n".join(lines) + "\n")
