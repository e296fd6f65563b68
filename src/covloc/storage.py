"""Flat binary and CSV serialization.

Binary layout ("CVL1"): 4-byte magic, then K, N, q as little-endian unsigned
64-bit integers, then the time stamp as a little-endian float64, then K*N*q
row-major float64 values.  Ensembles store their (K, N, q) samples directly;
covariance matrices reuse the same container as (qN, qN, 1).  The payload is
written in blocks of whole rows of the first axis, about _BLOCK_VALUES values
each, so an array held as a strided view, such as a circulant covariance's
``data``, is never copied whole.

All text output is deterministic: floats are written with shortest
round-trip repr and metadata records with sorted keys, so identical data
produces byte-identical files.  Array CSVs (covariances and ensembles) are
written one block of rows, about _BLOCK_VALUES entries, at a time: each
distinct value of a block is formatted once, and memory is bounded by one
block rather than the file.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import struct
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .integrator import EnsembleState
from .lattice import BlockCovariance, ContractViolationError, _integer

MAGIC = b"CVL1"
_HEADER = struct.Struct("<4sQQQd")
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')
# Entries per row block of an array CSV, and about the values per row block
# of a CVL1 payload.  A block's cells, one Python string per entry, are the CSV
# writer's working set: 2**16 entries (about 12 MB) wrote arrays with no
# repeated value slower than formatting row by row, 2**14 did not, and both
# keep repeated values cheap.
_BLOCK_VALUES = 16384


def write_array(path, array: np.ndarray, time: float) -> None:
    """Write a 3-d float array with a time stamp in the CVL1 layout, one block
    of whole rows (first-axis entries) at a time."""
    array = np.asarray(array)
    if array.ndim != 3:
        raise ContractViolationError(f"CVL1 stores 3-d arrays, got shape {array.shape}")
    k, n, q = array.shape
    step = max(1, _BLOCK_VALUES // max(1, n * q))
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, k, n, q, float(time)))
        for start in range(0, k, step):
            fh.write(np.ascontiguousarray(array[start : start + step], dtype="<f8"))


def read_array(path) -> tuple[np.ndarray, float]:
    """Read a CVL1 file back as ((K, N, q) array, time)."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ContractViolationError(f"{path}: truncated header")
        magic, k, n, q, time = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ContractViolationError(f"{path}: bad magic {magic!r}")
        expected = _HEADER.size + 8 * k * n * q
        found = os.fstat(fh.fileno()).st_size
        if found != expected:
            raise ContractViolationError(f"{path}: expected {expected} bytes, found {found}")
        # the payload is read straight into the array, with no bytes copy
        data = np.empty((k, n, q), dtype="<f8")
        if fh.readinto(data) != data.nbytes:
            raise ContractViolationError(f"{path}: truncated payload")
    return data, time


def write_covariance(path, cov: BlockCovariance, time: float = 0.0) -> None:
    d = cov.n_blocks * cov.block_dim
    write_array(path, cov.data.reshape(d, d, 1), time)


def _n_blocks(path, d: int, block_dim: int) -> int:
    """Block count of a d x d covariance read from ``path``."""
    block_dim = _integer(block_dim, f"{path}: block_dim", 1, math.inf)
    if d % block_dim:
        raise ContractViolationError(
            f"{path}: dimension {d} is not a multiple of block_dim {block_dim}"
        )
    return d // block_dim


def read_covariance(path, block_dim: int = 1) -> tuple[BlockCovariance, float]:
    data, time = read_array(path)
    k, n, q = data.shape
    if q != 1 or k != n:
        raise ContractViolationError(f"{path}: not a covariance container, shape {data.shape}")
    return BlockCovariance(data[:, :, 0], _n_blocks(path, k, block_dim), block_dim), time


def write_metadata(out_dir, name: str, payload: dict) -> Path:
    """Write ``<name>_metadata.json``: the payload plus the library version."""
    path = Path(out_dir) / f"{name}_metadata.json"
    record = {"library_version": __version__, **payload}
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def _cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    text = str(x)
    if _NEEDS_QUOTES.search(text):
        raise ContractViolationError(f"CSV cell {text!r} would need quoting")
    return text


def _csv_line(row) -> str:
    # exact ints and floats skip _cell: their repr is already the cell text
    return ",".join([repr(x) if type(x) in (int, float) else _cell(x) for x in row]) + "\n"


def write_csv(path, header: list[str], rows) -> None:
    """CSV with a header row and deterministic formatting.

    Floats are written as their shortest round-trip repr, every other cell
    as its str(); no cell is quoted, so a cell holding a comma, a double
    quote or a line break raises ContractViolationError.
    """
    with open(path, "w", newline="") as fh:
        fh.write(_csv_line(header))
        fh.writelines(map(_csv_line, rows))


def _write_array_csv(path, header: list[str], middles: list[str], array: np.ndarray) -> None:
    """One line ``i,<middle>,<value>`` per entry of ``array``'s row i (1-based).

    ``middles`` holds the index cells between the row index and the value for
    each entry of a row.  Rows are written in blocks of as many whole rows as
    fit in _BLOCK_VALUES entries, at least one, and only one block's cells
    are held at a time.  Each distinct float bit pattern of a block is
    formatted once, by one repr of their list, which writes each as
    write_csv does (shortest round-trip repr; 0.0 and -0.0 differ in their
    bits, so each keeps its own text) and separates them by ", ", which no
    float repr holds.  The cells go back to their entries through an object
    array indexed by np.unique's inverse, and a block's lines are joined in
    one call.
    """
    prefixes = np.array([f",{middle}," for middle in middles], dtype=object)
    step = max(1, _BLOCK_VALUES // max(1, len(prefixes)))
    with open(path, "w", newline="") as fh:
        fh.write(_csv_line(header))
        for start in range(0, len(array), step):
            block = np.ascontiguousarray(array[start : start + step], dtype=np.float64)
            bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
            # "[a, b]" -> ["a\n", "b\n"]: each distinct value's cell and line end
            text = repr(bits.view(np.float64).tolist())[1:-1].replace(", ", "\n, ") + "\n"
            heads = [str(i) for i in range(start + 1, start + len(block) + 1)]
            parts = np.empty(block.shape + (3,), dtype=object)
            parts[..., 0] = np.array(heads, dtype=object)[:, None]
            parts[..., 1] = prefixes
            parts[..., 2] = np.array(text.split(", "), dtype=object)[inverse.reshape(block.shape)]
            fh.write("".join(parts.ravel().tolist()))


def write_ensemble_csv(path, ensemble: EnsembleState) -> None:
    """Columns: sample, block, component, value (1-based indices)."""
    k, n, q = ensemble.samples.shape
    middles = [f"{i},{c}" for i in range(1, n + 1) for c in range(1, q + 1)]
    header = ["sample", "block", "component", "value"]
    _write_array_csv(path, header, middles, ensemble.samples.reshape(k, n * q))


def write_covariance_csv(path, cov: BlockCovariance) -> None:
    """Columns: row, col, value (1-based scalar indices)."""
    middles = [str(c) for c in range(1, len(cov.data) + 1)]
    _write_array_csv(path, ["row", "col", "value"], middles, cov.data)


_CSV_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])


def read_covariance_csv(path, block_dim: int = 1) -> BlockCovariance:
    """Inverse of ``write_covariance_csv``: each of the d*d entries exactly once."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh), None)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ContractViolationError(f"{path}: not a CSV text file ({exc})") from None
        if header != ["row", "col", "value"]:
            raise ContractViolationError(f"{path}: expected header row,col,value, got {header}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty body is reported below
                entries = np.loadtxt(fh, _CSV_ENTRY, comments=None, delimiter=",", ndmin=1)
        except ValueError as exc:
            raise ContractViolationError(f"{path}: {exc} (data rows count from 0)") from None
    if not len(entries):
        raise ContractViolationError(f"{path}: no entries")
    rows, cols = entries["row"] - 1, entries["col"] - 1
    if min(rows.min(), cols.min()) < 0:
        raise ContractViolationError(f"{path}: row and col indices must be >= 1")
    d = int(max(rows.max(), cols.max())) + 1
    flat = rows * d + cols
    # d*d entries with no repeat means every entry appears exactly once
    if len(entries) != d * d or np.bincount(flat).max() > 1:
        raise ContractViolationError(
            f"{path}: {len(entries)} entries for a {d}x{d} covariance, "
            "which needs each of its entries exactly once"
        )
    data = np.empty(d * d)
    data[flat] = entries["value"]
    return BlockCovariance(data.reshape(d, d), _n_blocks(path, d, block_dim), block_dim)
