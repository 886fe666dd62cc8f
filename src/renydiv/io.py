"""Count-table ingestion and machine-readable report emission."""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .counts import INT64_MAX, CountVector
from .errors import ValidationError


@dataclass(frozen=True)
class CountTableFile:
    """Parsed tab-separated count table: unique category ids, named count columns."""

    categories: np.ndarray  # object array of str, the name table a NameList indexes
    samples: dict  # name -> np.ndarray of int64, insertion-ordered; read-only when parsed

    def count_vector(self, name: str) -> CountVector:
        if name not in self.samples:
            raise ValidationError(f"no sample named {name!r}; have {list(self.samples)}")
        try:
            return CountVector(self.samples[name])
        except ValidationError as exc:
            raise ValidationError(f"sample column {name!r}: {exc}") from None

    @property
    def sample_names(self) -> list:
        return list(self.samples)


_FAST_DIGITS = 18  # any count of at most 18 ASCII digits fits in int64
# characters per parse chunk: only one chunk's buffers are alive at a time
_CHUNK = 2**20
# names per NameList write, JSON or TSV: one join per chunk, so its escaped
# names never all sit in memory at once
_NAME_CHUNK = 2**14
# the bytes JSON writes as they are between quotes: printable ASCII but " and \
_PLAIN = bytes(c for c in range(0x20, 0x7F) if c not in b'"\\')


def read_text(path) -> str:
    """A file's UTF-8 text, with CRLF and CR line ends read as LF.

    Bytes that are not UTF-8 raise a ValidationError naming the file and the
    byte offset (read() decodes the whole file at once, so the decoder's
    offset is the file's).
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"{path}: byte {exc.start}: not UTF-8 text ({exc.reason})"
            ) from None


def parse_count_table(path) -> CountTableFile:
    """Parse `category<TAB>sample1[<TAB>sample2...]` with one row per category.

    UTF-8 with LF or CRLF line ends, trailing-newline tolerant. Counts are
    ASCII digits only, at most 2**63 - 1. Rejects duplicate category ids,
    negative, non-integer or oversized counts, and rows of the wrong width,
    naming the offending line.
    """
    text = read_text(path)
    if not text:
        raise ValidationError(f"{path}: empty file")
    if text.endswith("\n"):
        text = text[:-1]
    head, newline, body = text.partition("\n")
    del text
    header = head.split("\t")
    if len(header) < 2:
        raise ValidationError(f"{path}: line 1: header needs category + at least one sample")
    names = header[1:]
    if len(set(names)) != len(names):
        raise ValidationError(f"{path}: line 1: duplicate sample names")
    if not newline:
        raise ValidationError(f"{path}: no category rows")
    parsed = _parse_rows(body, len(header))
    if isinstance(parsed, int):  # refused: the lines up to the failing chunk's end hold the error
        _raise_first_bad_line(path, body[:parsed].split("\n"), len(header))
    categories, columns = parsed
    for column in columns:  # read-only, so count_vector shares each column
        column.setflags(write=False)
    return CountTableFile(categories=categories, samples=dict(zip(names, columns)))


def _parse_rows(body: str, width: int):
    """(categories, int64 columns) of a valid table, else the end of the first
    chunk that fails a check (len(body) for a repeated category).

    The body is parsed in chunks of about _CHUNK characters, each cut at a line
    end, so the buffers of one chunk at a time are alive.
    """
    n = body.count("\n") + 1
    categories = np.empty(n, dtype=object)
    columns = [np.empty(n, dtype=np.int64) for _ in range(width - 1)]
    row = start = 0
    while start <= len(body):
        end = body.find("\n", start + _CHUNK)
        if end < 0:
            end = len(body)
        names = _parse_chunk(body[start:end].encode(), columns, row)
        if names is None:
            return end
        categories[row:row + len(names)] = names
        row += len(names)
        start = end + 1
    return (categories, columns) if _all_different(categories) else len(body)


def _parse_chunk(text: bytes, columns: list, row: int):
    """The names of the UTF-8 lines `text`, their counts written to `columns`
    from `row` on; None if a line fails a check.

    numpy finds the line ends and the tabs; each line's name runs from its start
    to its first tab. The names, with the line ends between them, are gathered
    by one mask and split into strings at once. Every count cell is read from
    the bytes left over, the cells after each first tab, so no cell becomes a
    Python string.
    """
    per_line = len(columns)  # cells, and tabs, in each line
    raw = np.frombuffer(text, dtype=np.uint8)
    breaks = np.flatnonzero(raw == 10)
    rows = breaks.size + 1
    tabs = np.flatnonzero(raw == 9)
    if tabs.size != rows * per_line:
        return None
    tabs = tabs.reshape(rows, per_line)
    ends = np.append(breaks, raw.size)
    # with the tab count right, each line holds per_line tabs iff its first one
    # follows the line before and its last one precedes its own end
    if not ((tabs[1:, 0] > breaks).all() and (tabs[:, -1] < ends).all()):
        return None
    # the characters of each cell: between two tabs, or between a tab and the line end
    lengths = np.concatenate(((tabs[:, 1:] - tabs[:, :-1]).ravel(), ends - tabs[:, -1])) - 1
    # the runs of bytes kept as names (each with the line end before it) alternate
    # with the runs of cells (each after the tab before it)
    runs = np.column_stack((tabs[:, 0] - np.append(0, breaks), ends - tabs[:, 0]))
    keep = np.repeat(np.tile([True, False], rows), runs.ravel())
    names, cells = raw[keep], raw[~keep]
    shortest, longest = lengths.min(), lengths.max()
    del breaks, tabs, ends, lengths, runs, keep  # a chunk's largest buffers, done with
    # np.fromstring skips whitespace and reads signs, so the cells are checked first:
    # no cell empty, and every byte but the tabs an ASCII digit (below "0" wraps past 9)
    if shortest < 1 or np.count_nonzero(cells - 48 < 10) != cells.size - rows * per_line:
        return None
    cells = cells[1:].tobytes()
    if longest > _FAST_DIGITS:  # 19 digits or leading zeros: exact ints
        # past 19 digits a count is past INT64_MAX, and int() is spared its digit limit
        values = [int(v or 0) if len(v) <= 19 else INT64_MAX + 1
                  for v in (c.lstrip(b"0") for c in cells.split(b"\t"))]
        if max(values) > INT64_MAX:
            return None
    else:
        values = np.fromstring(cells, dtype=np.int64, sep="\t")
    for k, column in enumerate(columns):
        column[row:row + rows] = values[k::per_line]
    return names.tobytes().decode().split("\n")


def _all_different(names) -> bool:
    """Whether the strings `names` are all different.

    Sorted 64-bit hashes (8 bytes a name) settle it unless two hashes are
    equal; only then is the exact set of the names built.
    """
    hashes = np.fromiter(map(hash, names), dtype=np.int64, count=len(names))
    hashes.sort()
    return not (hashes[1:] == hashes[:-1]).any() or len(set(names)) == len(names)


def _raise_first_bad_line(path, lines: list, width: int) -> None:
    """Raise the ValidationError naming the first bad line (its width, then a repeated
    category, then each count) of `lines`, the body from line 2 on of a table that
    _parse_rows refused. Finding none is an AssertionError."""
    seen: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=2):
        parts = line.split("\t")
        if len(parts) != width:
            raise ValidationError(
                f"{path}: line {lineno}: expected {width} fields, got {len(parts)}")
        if parts[0] in seen:
            raise ValidationError(f"{path}: line {lineno}: duplicate category {parts[0]!r} "
                                  f"(first seen on line {seen[parts[0]]})")
        seen[parts[0]] = lineno
        for raw in parts[1:]:
            if not (raw.isascii() and raw.isdigit()):
                magnitude = raw[1:].lstrip("0")
                if raw[:1] == "-" and magnitude.isascii() and magnitude.isdigit():
                    raise ValidationError(f"{path}: line {lineno}: negative count {raw!r}")
                raise ValidationError(
                    f"{path}: line {lineno}: count {raw!r} is not an integer of ASCII digits 0-9")
            value = raw.lstrip("0")
            if len(value) > 19 or int(value or 0) > INT64_MAX:
                raise ValidationError(f"{path}: line {lineno}: count {raw!r} exceeds "
                                      f"the int64 maximum {INT64_MAX}")
    raise AssertionError("the chunked parse refused lines that hold no error")


def _round_sig(x: float, digits: int = 9):
    if math.isnan(x) or math.isinf(x):
        return None if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")
    return float(f"{x:.{digits}g}")


@dataclass(frozen=True, eq=False)
class NameList:
    """A list of category names: positions `index` into the name table `names`.

    `names` is an object array shared by every sample of one count table, so
    a report lists ~1e6 categories without a per-name copy of them.
    """

    names: np.ndarray  # object array of str
    index: np.ndarray  # int positions into names


def jsonable(obj):
    """Convert reports (dataclasses, arrays, numpy scalars) to JSON-ready values.

    Floats carry 9 significant digits; key order follows field declaration
    order so output is stable. A NameList passes through as it is.
    """
    if isinstance(obj, NameList):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biu":
            return obj.tolist()
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return _round_sig(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    return str(obj)


def dumps_report(obj) -> str:
    """`json.dumps(jsonable(obj), indent=2)`, byte for byte, with each NameList
    written as its list of names."""
    out: list[str] = []
    _dump(jsonable(obj), "\n", out.append)
    return "".join(out)


def write_report(obj, fh) -> None:
    """Write `dumps_report(obj)` to the text file `fh` piece by piece as it is
    encoded, so the whole report never sits in memory as one string. A write
    that fails part way leaves the part already written in the file."""
    _dump(jsonable(obj), "\n", fh.write)


def _dump(value, newline: str, write) -> None:
    """Pass the indent=2 JSON of a jsonable value to `write` in pieces;
    `newline` carries its indent.

    A NameList's names are joined one call per _NAME_CHUNK names, instead of
    element by element in json's pure-Python indenting encoder. The join of a
    slice is written as it is unless it holds a character JSON escapes; only
    then is each name of the slice escaped.
    """
    inner = newline + "  "
    if isinstance(value, dict) and value:
        write("{")
        sep = inner
        for key, item in value.items():
            write(sep + encode_basestring_ascii(key) + ": ")
            _dump(item, inner, write)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(value, NameList):
        if len(value.index):
            sep, between = "[" + inner, '",' + inner + '"'
            for start in range(0, len(value.index), _NAME_CHUNK):
                names = value.names[value.index[start:start + _NAME_CHUNK]].tolist()
                text = '"' + between.join(names) + '"'
                # past the bytes written as they are, only the join's own 2k quotes
                # and k - 1 line ends are left in a slice of k plain names
                if (text.isascii() and len(text.encode().translate(None, _PLAIN))
                        == 3 * len(names) - 1):
                    write(sep + text)
                else:
                    write(sep + ("," + inner).join(map(encode_basestring_ascii, names)))
                sep = "," + inner
            write(newline + "]")
        else:
            write("[]")
    elif isinstance(value, list) and value:
        write("[")
        sep = inner
        for item in value:
            write(sep)
            _dump(item, inner, write)
            sep = "," + inner
        write(newline + "]")
    else:
        write(json.dumps(value))


def write_report_tsv(obj, fh) -> None:
    """Flatten a report into `dotted.key<TAB>value` lines for spreadsheets, written
    to the text file `fh` piece by piece as write_report does for JSON.

    A NameList's names (up to ~1e6 of them) are written unescaped, with
    their positions, one join per _NAME_CHUNK names. An empty report is one
    empty line.
    """
    wrote = False

    def write(text):
        nonlocal wrote
        wrote = True
        fh.write(text)

    _dump_tsv(jsonable(obj), "", write)
    if not wrote:
        fh.write("\n")


def _dump_tsv(value, prefix: str, write) -> None:
    """Pass the TSV lines of a jsonable value under the key `prefix` to `write`."""
    if isinstance(value, dict):
        for k, v in value.items():
            _dump_tsv(v, f"{prefix}.{k}" if prefix else str(k), write)
    elif isinstance(value, NameList):
        for start in range(0, len(value.index), _NAME_CHUNK):
            names = value.names[value.index[start:start + _NAME_CHUNK]].tolist()
            write("".join(f"{prefix}[{i}]\t{name}\n" for i, name in enumerate(names, start)))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _dump_tsv(v, f"{prefix}[{i}]", write)
    else:
        write(f"{prefix}\t{'' if value is None else value}\n")
