"""Scenario file ingestion and deterministic report rendering.

Readers reject malformed rows and unknown atoms with ParseError. Report
renderers emit byte-stable text: records keep insertion order, floats print
with shortest-roundtrip repr, and nothing time- or path-dependent is ever
included.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

import numpy as np

from .errors import ParseError
from .measure import FINITE, MeasureSpace, Rv


def _columns(path: str, header: tuple[str, ...],
             kinds: tuple[type, ...]) -> list[np.ndarray]:
    """The file's columns as contiguous arrays: blank lines skipped, the
    header checked, the body parsed in one ``np.loadtxt`` call."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = list(filter(str.strip, fh.read().split("\n")))
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    if not lines:
        raise ParseError(f"{path}: empty file")
    got = tuple(cell.strip().strip('"').lower() for cell in lines[0].split(","))
    if got != header:
        raise ParseError(f"{path}: expected header {','.join(header)!r}, "
                         f"got {','.join(got)!r}")
    if len(lines) == 1:  # loadtxt would only warn on an empty body
        raise ParseError(f"{path}: no rows after the header")
    try:
        table = np.loadtxt(lines[1:], dtype=list(zip(header, kinds)),
                           delimiter=",", comments=None, quotechar='"',
                           ndmin=1)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    # strided field views would change np.dot's summation downstream
    return [np.ascontiguousarray(table[name]) for name in header]


def read_space(path: str) -> MeasureSpace:
    """CSV with header ``atom_id,weight,block_id``, atoms in ascending id."""
    ids, weights, blocks = _columns(path, ("atom_id", "weight", "block_id"),
                                    (np.int64, float, np.int64))
    try:
        return MeasureSpace(ids, weights, blocks, FINITE)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _align(path: str, space: MeasureSpace, terms: np.ndarray,
           atoms: np.ndarray, values: np.ndarray) -> list[Rv]:
    """One Rv per distinct term index, in ascending order; every term must
    give each atom of the space exactly once."""
    ids, n = space.atom_ids, space.n_atoms
    pos = np.minimum(np.searchsorted(ids, atoms), n - 1)
    unknown = ids[pos] != atoms
    if unknown.any():
        raise ParseError(f"{path}: unknown atom_id {atoms[unknown][0]}")
    index, term_of = np.unique(terms, return_inverse=True)
    cells = term_of * n + pos
    count = np.bincount(cells, minlength=index.size * n).reshape(-1, n)
    bad = (count != 1).any(axis=1)
    if bad.any():
        term = int(np.argmax(bad))
        where = f"term {index[term]}: " if index.size > 1 else ""
        if count[term].max() > 1:
            what = f"duplicate atom_id {ids[np.argmax(count[term])]}"
        else:
            what = f"missing atoms {ids[count[term] == 0].tolist()}"
        raise ParseError(f"{path}: {where}{what}")
    table = np.empty((index.size, n))
    table.reshape(-1)[cells] = values
    try:
        return [Rv(space, row) for row in table]
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def read_rv(path: str, space: MeasureSpace) -> Rv:
    """CSV with header ``atom_id,value`` covering exactly the space's atoms."""
    atoms, values = _columns(path, ("atom_id", "value"), (np.int64, float))
    return _align(path, space, np.zeros_like(atoms), atoms, values)[0]


def read_stacked_rvs(path: str, space: MeasureSpace) -> list[Rv]:
    """CSV with header ``term_index,atom_id,value``: one Rv per term index,
    ordered by index; every term must cover the whole space."""
    terms, atoms, values = _columns(path, ("term_index", "atom_id", "value"),
                                    (np.int64, np.int64, float))
    return _align(path, space, terms, atoms, values)


# ---------------------------------------------------------------------------
# deterministic rendering
# ---------------------------------------------------------------------------


def _native(value):
    """Coerce numpy scalars/arrays and tuples to plain Python for rendering."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_native(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_native(v) for v in value]
    if isinstance(value, dict):
        return {k: _native(v) for k, v in value.items()}
    return value


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return _quote(";".join(_csv_cell(v) for v in value))
    if value is None:
        return ""
    return _quote(str(value))


def _quote(cell: str) -> str:
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def render_record(record: Mapping[str, object], fmt: str) -> str:
    """One flat record -> one deterministic document (insertion order kept)."""
    record = {k: _native(v) for k, v in record.items()}
    if fmt == "json":
        return json.dumps(record, indent=2) + "\n"
    if fmt == "csv":
        lines = ["key,value"]
        for key, value in record.items():
            lines.append(f"{key},{_csv_cell(value)}")
        return "\n".join(lines) + "\n"
    raise ParseError(f"unknown output format {fmt!r}")


def render_table(columns: Mapping[str, Sequence[object]], fmt: str) -> str:
    """Parallel columns -> one deterministic table document."""
    keys = list(columns)
    if not keys:
        raise ValueError("no columns")
    length = len(columns[keys[0]])
    if any(len(columns[k]) != length for k in keys):
        raise ValueError("ragged columns")
    columns = {k: _native(list(columns[k])) for k in keys}
    if fmt == "json":
        return json.dumps(columns, indent=2) + "\n"
    if fmt == "csv":
        lines = [",".join(keys)]
        for i in range(length):
            lines.append(",".join(_csv_cell(columns[k][i]) for k in keys))
        return "\n".join(lines) + "\n"
    raise ParseError(f"unknown output format {fmt!r}")
