"""The CSV tables the pipeline passes between stages: UTF-8, one header row.

Every module reads and writes its tables through these two functions, so the
format, the header check, the field count and the row numbering in error
messages live in one place.
"""

import csv

from .errors import DataError


def write_table(path, header, rows) -> None:
    """Write the header, then each row of the iterable `rows`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path, header):
    """Yield (row number, fields) for each data row; the first data row is 2.

    The file's header fields, stripped, must equal `header`, and every row must
    have as many fields; otherwise DataError names the path and the row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if [h.strip() for h in next(reader, [])] != header:
            raise DataError(f"{path}: expected header {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}: row {lineno}: expected {len(header)} fields")
            yield lineno, row
