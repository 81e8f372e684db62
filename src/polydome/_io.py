"""Tiny sink helpers: accept an open file object or a filesystem path."""

# Rows per formatting call: bounds the temporary Python list and the text a chunk needs.
_CHUNK_ROWS = 1 << 14


def write_bytes(destination, data: bytes) -> None:
    if hasattr(destination, "write"):
        destination.write(data)
        return
    with open(destination, "wb") as handle:
        handle.write(data)


def write_text(destination, text: str, *tables) -> None:
    """Write ``text``, then each ``(record, rows)`` table: ``record`` formatted once
    per row of a 2-D array, ``_CHUNK_ROWS`` rows per ``%``, each chunk written as made."""
    if not hasattr(destination, "write"):
        with open(destination, "w", encoding="utf-8", newline="\n") as handle:
            return write_text(handle, text, *tables)
    destination.write(text)
    for record, rows in tables:
        for start in range(0, len(rows), _CHUNK_ROWS):
            chunk = rows[start:start + _CHUNK_ROWS]
            destination.write((record * len(chunk)) % tuple(chunk.ravel().tolist()))
