"""Column-by-column comparison of two `qdiscern sweep` CSV files.

Prints, for each column, how many values differ as text (what a golden
hash sees) and the largest absolute difference between them as numbers.
Exits 1, after saying why, when the column headers or the row counts of
the two files differ; the `#` comment lines are not compared.

    PYTHONPATH=/path/to/parent/src python -m qdiscern.cli sweep ... --output parent.csv
    PYTHONPATH=src python -m qdiscern.cli sweep ... --output change.csv
    python tools/sweep_diff.py parent.csv change.csv

The files are read one row at a time, so a 1000x1000 sweep needs no more
memory than a small one.
"""

from __future__ import annotations

import argparse
import itertools
import sys


def _rows(fh):
    """The comma-split lines of a sweep file after its comment lines."""
    return (line.rstrip("\n").split(",") for line in fh if not line.startswith("#"))


def column_report(a_lines, b_lines) -> dict:
    """{column: (moved, rows, max |delta|)} for two iterables of sweep
    lines; raises ValueError naming the first difference in shape."""
    a_rows, b_rows = _rows(a_lines), _rows(b_lines)
    header, other = next(a_rows, None), next(b_rows, None)
    if header != other:
        raise ValueError(f"headers differ: {header} vs {other}")
    moved, largest = [0] * len(header), [0.0] * len(header)
    n = 0
    for a, b in itertools.zip_longest(a_rows, b_rows):
        if a is None or b is None:
            raise ValueError(f"row counts differ: the {'first' if a is None else 'second'} file ends after {n} rows")
        if len(a) != len(header) or len(b) != len(header):
            raise ValueError(f"row {n + 1} does not have {len(header)} columns")
        n += 1
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                moved[i] += 1
                largest[i] = max(largest[i], abs(float(x) - float(y)))
    return {name: (moved[i], n, largest[i]) for i, name in enumerate(header)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="first sweep CSV, e.g. the parent's")
    parser.add_argument("b", help="second sweep CSV")
    args = parser.parse_args(argv)
    with open(args.a) as fa, open(args.b) as fb:
        try:
            report = column_report(fa, fb)
        except ValueError as exc:
            print(exc)
            return 1
    for name, (moved, rows, largest) in report.items():
        print(f"{name}: {moved} of {rows} moved, max |delta| {largest:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
