"""Hand-made JSONL tables in the one layout that mcce reads.

A test that puts one bad value in a file reads a good file's rows as
objects with `read_table`, changes the value, and writes the rows back
with `write_table`, so the file differs from a good one in that value
alone. Float columns live in .npy files beside the table, as mcce
writes them.
"""

import json

import numpy as np

# The columns that mcce keeps in .npy files beside their tables.
FLOAT_COLUMNS = ("embedding", "logits", "effect")


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


def read_table(path):
    """The rows of a JSONL table as objects keyed by column, float columns read from their .npy files."""
    head, *lines = path.read_text().splitlines()
    meta = json.loads(head)["meta"]
    rows = [dict(zip(meta["columns"], json.loads(line))) for line in lines if line.strip()]
    for key in FLOAT_COLUMNS:
        if key in meta:
            for row, values in zip(rows, np.load(path.parent / meta[key]).tolist()):
                row[key] = values
    return rows


def write_table(path, rows, meta=None):
    """Write `rows`, objects keyed by column, as a table at `path`; returns `path`.

    The columns are the first row's keys. Each float column among them
    is `np.save`d to `<stem>.<key>.npy` beside `path`, which the meta
    line names under its key, and the other columns' values go on one
    line per row. `meta` adds entries to the meta line.
    """
    keys = list(rows[0]) if rows else []
    columns = [key for key in keys if key not in FLOAT_COLUMNS]
    head = {**(meta or {}), "columns": columns}
    for key in keys:
        if key in FLOAT_COLUMNS:
            head[key] = f"{path.stem}.{key}.npy"
            np.save(path.parent / head[key], np.array([row[key] for row in rows], dtype=np.float64))
    lines = [json.dumps([row[key] for key in columns]) for row in rows]
    return write_lines(path, [json.dumps({"meta": head}), *lines])
