"""The pipeline's on-disk formats: CSV tables and named matrix blocks.

Every file one stage hands to the next goes through this module.  A table
is a header line followed by comma-joined rows; a block file is a sequence
of ``# NAME rows cols`` headers, each followed by its matrix rows.  Integer
cells are written with ``str`` and every other cell with ``repr(float(v))``,
which round-trips float64 exactly.  A file that cannot be opened for
reading (missing, a directory), is not UTF-8 text, does not hold the format
its reader expects or holds a cell that is not a finite number raises
``FileFormatError`` naming the file.
"""

from __future__ import annotations

import numpy as np

from .errors import FileFormatError


def _cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(value)
    return repr(float(value))


def _lines(path):
    """An iterator over the lines of ``path``, read whole; a file that cannot
    be read or is not UTF-8 text raises FileFormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return iter(fh.readlines())
    except OSError as exc:
        raise FileFormatError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _finite(path, mat: np.ndarray, where: str = "") -> np.ndarray:
    """``mat``, or FileFormatError naming the first cell of it (of the block
    ``where``) that is nan or infinite."""
    bad = np.argwhere(~np.isfinite(mat))
    if len(bad):
        row, col = bad[0]
        raise FileFormatError(f"{path}: {where}row {row + 1}, column {col + 1} "
                              f"holds {float(mat[row, col])}, not a finite number")
    return mat


def write_table(path, header: str, rows) -> None:
    """Write ``header`` and one comma-joined line per row; an ndarray goes through ``tolist()``."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows.tolist() if isinstance(rows, np.ndarray) else rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def read_table(path, header: str) -> np.ndarray:
    """Read a table written by ``write_table`` as an (rows, columns) float array.

    Raises FileFormatError when the file cannot be read, its header line is
    not ``header``, a row does not have one number per column or a cell is
    not finite.
    """
    lines = _lines(path)
    found = next(lines, "").rstrip("\n")
    if found != header:
        raise FileFormatError(f"{path}: header {found!r}, expected {header!r}")
    try:
        rows = [[float(cell) for cell in line.split(",")] for line in lines]
        table = np.array(rows).reshape(len(rows), header.count(",") + 1)
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad row ({exc})") from exc
    return _finite(path, table)


def save_blocks(path, blocks: dict) -> None:
    """Write named matrices as a human-readable block file.

    Each block is ``# NAME rows cols`` followed by one row per line with
    repr-formatted floats, which round-trip float64 exactly.
    """
    with open(path, "w") as fh:
        for name, mat in blocks.items():
            mat = np.atleast_2d(np.asarray(mat, dtype=float))
            fh.write(f"# {name} {mat.shape[0]} {mat.shape[1]}\n")
            for row in mat:
                fh.write(" ".join(map(_cell, row)) + "\n")


def load_blocks(path) -> dict:
    """Read a block file back into ``{name: 2-D float array}``.

    Raises FileFormatError when the file cannot be read, a block header or
    one of its rows does not parse, a cell is not finite, or the file ends
    inside a block.
    """
    blocks, lines = {}, _lines(path)
    try:
        for line in lines:
            if line.startswith("# "):
                name, rows, cols = line[2:].rsplit(" ", 2)
                mat = [[float(v) for v in next(lines).split()] for _ in range(int(rows))]
                blocks[name] = np.array(mat).reshape(int(rows), int(cols))
    except (ValueError, StopIteration) as exc:
        raise FileFormatError(f"{path}: bad block file ({exc!r})") from exc
    for name, mat in blocks.items():
        _finite(path, mat, f"block {name} ")
    return blocks
