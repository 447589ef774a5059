"""Coefficient matrices in a schema's visible one-hot layout, as the tests compare them.

A coefficient matrix has one row per column of the visible layout:
each visible attribute's block of one row per level, in schema order.
Raw one-hot coefficients are identified only up to a constant per block,
so the tests compare contrasts within a block (`coefficient_error`).
"""

from itertools import compress

import numpy as np

from mcce import ValidationError, get_distance
from mcce.linalg import as_matrix


def visible_blocks(schema, hidden=frozenset()) -> dict[str, slice]:
    """Row block of each visible attribute of `schema` within the visible layout."""
    visible = schema.visible_mask(hidden)
    ends = np.cumsum(schema.sizes[visible]).tolist()
    starts = [0, *ends[:-1]]
    return dict(zip(compress(schema.names, visible), map(slice, starts, ends)))


def coefficient_error(estimated, reference, schema, hidden=frozenset(), metric: str = "l2") -> float:
    """Total distance between estimated and reference effect contrasts.

    Compares within-block coefficient differences (level minus level, a
    class-sized vector per ordered level pair) rather than raw
    coefficients. Both matrices use the visible layout.
    """
    dist = get_distance(metric)
    hidden = schema.check_hidden(hidden)
    est = as_matrix(estimated, "estimated")
    ref = as_matrix(reference, "reference")
    width = schema.visible_width(hidden)
    if est.shape != ref.shape:
        raise ValidationError(f"shape mismatch: {est.shape} vs {ref.shape}")
    if est.shape[0] != width:
        raise ValidationError(
            f"coefficient matrices must have {width} rows for this schema/mask, got {est.shape[0]}"
        )
    total = 0.0
    for block in visible_blocks(schema, hidden).values():
        i, k = np.nonzero(~np.eye(block.stop - block.start, dtype=bool))  # ordered level pairs
        total += float(np.sum(dist(ref[block][k] - ref[block][i], est[block][k] - est[block][i])))
    return total
