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

    categories: list
    samples: dict  # name -> np.ndarray of int64, insertion-ordered

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
    parsed = _parse_rows_fast(body, len(header))
    if parsed is None:
        parsed = _parse_rows_slow(path, body.split("\n"), len(header))
    categories, columns = parsed
    return CountTableFile(categories=categories, samples=dict(zip(names, columns)))


def _parse_rows_fast(body: str, width: int):
    """(categories, int64 columns) of a valid table, or None if any check fails.

    One tab split covers every row: with each line end written as a field of
    its own, a table whose every row has `width` fields has a line end at
    every (width + 1)-th field and nowhere else.
    """
    n = body.count("\n") + 1
    stride = width + 1
    fields = body.replace("\n", "\t\n\t").split("\t")
    if len(fields) != n * stride - 1 or fields[width::stride].count("\n") != n - 1:
        return None
    categories = fields[::stride]
    if len(set(categories)) != n:
        return None
    columns = []
    for k in range(1, width):
        cells = fields[k::stride]
        digits = "".join(cells)
        lengths = set(map(len, cells))
        if not (digits.isascii() and digits.isdigit()
                and min(lengths) >= 1 and max(lengths) <= _FAST_DIGITS):
            return None
        # text mode stops or fails at malformed input, so it runs only after the checks
        columns.append(np.fromstring("\n".join(cells), dtype=np.int64, sep="\n"))
    return categories, columns


def _parse_rows_slow(path, lines: list, width: int):
    """Row-by-row parse that raises on the first bad line, naming it."""
    categories: list[str] = []
    seen: dict[str, int] = {}
    columns = [[] for _ in range(width - 1)]
    for lineno, line in enumerate(lines, start=2):
        parts = line.split("\t")
        if len(parts) != width:
            raise ValidationError(
                f"{path}: line {lineno}: expected {width} fields, got {len(parts)}"
            )
        cat = parts[0]
        if cat in seen:
            raise ValidationError(
                f"{path}: line {lineno}: duplicate category {cat!r} "
                f"(first seen on line {seen[cat]})"
            )
        seen[cat] = lineno
        categories.append(cat)
        for k, raw in enumerate(parts[1:]):
            columns[k].append(_parse_count(path, lineno, raw))
    return categories, [np.asarray(col, dtype=np.int64) for col in columns]


def _parse_count(path, lineno: int, raw: str) -> int:
    if raw.isascii() and raw.isdigit():
        value = int(raw)
        if value > INT64_MAX:
            raise ValidationError(
                f"{path}: line {lineno}: count {raw!r} exceeds the int64 maximum {INT64_MAX}"
            )
        return value
    magnitude = raw[1:]
    if raw[:1] == "-" and magnitude.isascii() and magnitude.isdigit() and magnitude.strip("0"):
        raise ValidationError(f"{path}: line {lineno}: negative count {raw!r}")
    raise ValidationError(
        f"{path}: line {lineno}: count {raw!r} is not an integer of ASCII digits 0-9"
    )


def write_count_table(table: CountTableFile, path) -> None:
    """Emit a CountTableFile in the same TSV format parse_count_table reads."""
    names = table.sample_names
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("category\t" + "\t".join(names) + "\n")
        for i, cat in enumerate(table.categories):
            row = [str(int(table.samples[name][i])) for name in names]
            fh.write(cat + "\t" + "\t".join(row) + "\n")


def _round_sig(x: float, digits: int = 9):
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            return None if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")
        return float(f"{x:.{digits}g}")
    return x


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
    if isinstance(obj, (np.floating,)):
        return _round_sig(float(obj))
    if isinstance(obj, float):
        return _round_sig(obj)
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

    A NameList's names are escaped and joined in one call, instead of
    element by element in json's pure-Python indenting encoder.
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
            write("[" + inner)
            write(("," + inner).join(map(encode_basestring_ascii,
                                         value.names[value.index].tolist())))
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


def dumps_report_tsv(obj) -> str:
    """Flatten a report into `dotted.key<TAB>value` lines for spreadsheets.

    A NameList's names (up to ~1e6 of them) are written unescaped, with
    their positions, in one loop.
    """
    lines: list[str] = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, NameList):
            lines.extend(f"{prefix}[{i}]\t{name}"
                         for i, name in enumerate(value.names[value.index].tolist()))
        elif isinstance(value, list):
            for i, v in enumerate(value):
                if isinstance(v, (dict, list, NameList)):
                    walk(f"{prefix}[{i}]", v)
                else:
                    lines.append(f"{prefix}[{i}]\t{'' if v is None else v}")
        else:
            lines.append(f"{prefix}\t{'' if value is None else value}")

    walk("", jsonable(obj))
    return "\n".join(lines) + "\n"
