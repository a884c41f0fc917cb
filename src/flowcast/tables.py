"""The CSV tables the pipeline passes between stages: UTF-8, one header row.

Every module reads and writes its tables through this module, so the format,
the header check, the field count and the row numbering in error messages
live in one place. Rows end in CRLF, as `csv.writer` ends them.
"""

import csv
import io
from itertools import chain, repeat

from .errors import DataError

LINE_END = "\r\n"
_BLOCK_CHARS = 1 << 20  # characters per block of lines that read_blocks splits at commas
_BLOCK_ROWS = 1 << 14  # rows per block that read_blocks yields from csv


def write_table(path, header, rows) -> None:
    """Write the header, then each row of the iterable `rows`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_lines(path, header, blocks) -> None:
    """Write the header as write_table does, then each string of `blocks`:
    whole rows already formatted, their text fields through `field`, each
    ended by LINE_END."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(blocks)


def field(text: str) -> str:
    """`text` as write_table writes it as one field of a row: quoted, with
    quotes doubled, only where `csv.writer` quotes it."""
    out = io.StringIO()
    csv.writer(out).writerow([text, ""])  # a second field: a lone "" is quoted
    return out.getvalue()[:-len("," + LINE_END)]


def read_blocks(path, header):
    """Yield (number of the first row, columns) for consecutive blocks of data
    rows: columns[j] holds field j of each row, and the first data row is 2.

    The file's header fields, stripped, must equal `header`, and every row
    must be UTF-8 text with as many fields. A row that breaks this or has a
    field longer than `csv.field_size_limit()` raises DataError naming the
    path and the row; the rows before it come first, as the last block.
    Blocks of UTF-8 lines without quotes, NULs, blank or overlong lines are
    split at commas, as csv would split them; from the first other block on,
    csv parses the rest of the file."""
    width = len(header)
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        first, rows, problem = 1, [], None
        try:
            if [h.strip() for h in next(csv.reader(fh), [])] != header:
                raise DataError(f"{path}: expected header {','.join(header)}")
            first = 2
            while lines := fh.readlines(_BLOCK_CHARS):
                bodies = list(map(str.rstrip, lines, repeat("\r\n")))
                text = ",".join(bodies)
                if ('"' in text or "\0" in text or "" in bodies
                        or _not_utf8(text)
                        or max(map(len, bodies)) > csv.field_size_limit()
                        or set(map(str.count, bodies, repeat(","))) != {width - 1}):
                    break
                fields = text.split(",")
                yield first, [fields[j::width] for j in range(width)]
                first += len(lines)
            for row in csv.reader(chain(lines, fh)):
                if reason := _not_utf8(",".join(row)):
                    problem = f"row {first + len(rows)}: not UTF-8 text ({reason})"
                    break
                if len(row) != width:
                    problem = f"row {first + len(rows)}: expected {width} fields"
                    break
                rows.append(row)
                if len(rows) == _BLOCK_ROWS:
                    yield first, list(zip(*rows))
                    rows, first = [], first + _BLOCK_ROWS
        except csv.Error as exc:
            problem = f"row {first + len(rows)}: {exc}"
        if rows:
            yield first, list(zip(*rows))
        if problem:
            raise DataError(f"{path}: {problem}")


def _not_utf8(text: str) -> str | None:
    """Why the bytes surrogateescape read as `text` are not UTF-8, or None if they are."""
    if not text.isascii():
        try:
            text.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            return exc.reason
    return None


def read_table(path, header):
    """Yield (row number, fields) for each data row of read_blocks, which
    checks the header and each row."""
    for first, columns in read_blocks(path, header):
        yield from enumerate(zip(*columns), start=first)
