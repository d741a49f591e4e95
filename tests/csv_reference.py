"""CSV writers that format each number with Python's "%.17g", field by field.

horizonfv.cli formats blocks of rows with its vectorised _format_g17; these
writers are the reference its output must match byte for byte.
"""

from pathlib import Path

import numpy as np

_FMT = "%.17g"
_CSV_BLOCK_ROWS = 4096


def reference_write_csv(path: Path, header: str, columns: np.ndarray) -> None:
    """Write columns (a 2-D array whose rows are the table's columns) as
    "%.17g" fields under header."""
    table = np.asarray(columns, dtype=np.float64).T
    with open(path, "w") as fh:
        fh.write(header + "\n")
        if table.size:
            line = ",".join([_FMT] * table.shape[1]) + "\n"
            for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
                block = table[start:start + _CSV_BLOCK_ROWS]
                fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def reference_write_snapshots(path: Path, snapshots, centers: np.ndarray) -> None:
    """snapshots.csv: a (t, r, v) row per snapshot and cell, as
    reference_write_csv writes them."""
    radii = centers.tolist()
    blocks = []  # (first row, template of its rows with the time and v left open)
    for start in range(0, len(radii), _CSV_BLOCK_ROWS):
        rows = ["%s," + _FMT % r + "," + _FMT + "\n" for r in radii[start:start + _CSV_BLOCK_ROWS]]
        blocks.append((start, "".join(rows)))
    with open(path, "w") as fh:
        fh.write("t,r,v\n")
        for snap in snapshots:
            time_text = _FMT % snap.time
            values = snap.values.tolist()
            for start, template in blocks:
                block = values[start:start + _CSV_BLOCK_ROWS]
                fields = [time_text] * (2 * len(block))
                fields[1::2] = block
                fh.write(template % tuple(fields))
