"""Two CSV routes the package replaced, kept verbatim as references.

The row-by-row render that pointset_to_csv used before it rendered blocks
of rows: the exact branch formats one row at a time with str.format over s
whole-column lists of Python ints.  The production render builds each
block's digits as one byte array from the numerators, with no str.format
and no Python int per token; the tests compare it against this one byte for
byte, at the numerators and denominators where a token gains a digit,
across block edges, and through the files gen --out writes.

The whole-text parse of the exact layout that pointset_from_csv used before
the file reader checked and converted one block of rows at a time, narrowed
as that reader is to rows that spell the first row's denominators: the tests
compare the block reader with it and with the general line parser."""

from typing import Optional

import numpy as np

from lowdisc.csvread import _INT64_DIGITS
from lowdisc.pointsets import PointSet, _csv_header

# np.fromstring reads one separator, so '/' and newline become commas; it
# would saturate a token of more than 18 digits at 2^63 - 1
_SEPARATORS_TO_COMMAS = bytes.maketrans(b"/\n", b",,")


def pointset_to_csv(ps: PointSet, force_float: bool = False) -> str:
    """Render as CSV, one column per coordinate, header x1..xs.

    Exact sets write num/den tokens unless force_float; float sets write
    repr() so the round trip is bit-exact.
    """
    lines = [_csv_header(ps.dim)]
    if ps.is_exact and not force_float and ps.dim:
        # one list per column, not one per row: s lists of N ints (a
        # zero-dimensional set renders empty rows through either branch)
        row_format = ",".join(f"{{}}/{d}" for d in ps.denominators)
        lines += map(row_format.format, *ps.numerators.T.tolist())
    else:
        lines += [",".join(map(repr, row)) for row in ps.as_floats()]
    lines.append("")  # the final newline, without copying the whole text again
    return "\n".join(lines)


def canonical_exact_csv(text: str, provenance: Optional[dict]) -> Optional[PointSet]:
    """The set in `text` when it is laid out exactly as pointset_to_csv
    writes an exact set, else None: header x1..xs, then rows
    d/d,...,d/d ending in a newline, each spelling the first row's
    denominators, each token 1 to 18 ASCII digits.  The checks run on the
    bytes of the text, so no per-line or per-token Python object is made,
    and the general parser reads any text that fails one of them."""
    body_start = text.find("\n") + 1
    if not body_start or not text.endswith("\n") or not text.isascii():
        return None
    data = text.encode("ascii")
    raw = np.frombuffer(data, dtype=np.uint8, offset=body_start)
    if raw.size == 0 or raw.max() > ord("9"):
        return None
    # every other byte sorts below the digits; the layout check below
    # admits only '/', ',' and '\n' among them
    seps = np.flatnonzero(raw < ord("0"))
    marks = raw[seps]
    width = int(np.argmax(marks == ord("\n"))) + 1  # separators per row
    dim, rows = width // 2, marks.size // width
    if width % 2 or text[:body_start - 1] != _csv_header(dim) or rows * width != marks.size:
        return None
    layout = np.frombuffer(b"/," * (dim - 1) + b"/\n", dtype=np.uint8)
    if not (marks.reshape(rows, width) == layout).all():
        return None
    gaps = np.diff(seps)  # each token's length plus one, after the first token
    if not 1 <= seps[0] <= _INT64_DIGITS or gaps.min() < 2 or gaps.max() > _INT64_DIGITS + 1:
        return None
    # with the values compared below, equal token lengths make every row's
    # denominators the first row's bytes, as the block reader requires
    spelled = gaps[0::2].reshape(rows, dim)
    if not (spelled == spelled[0]).all():
        return None
    del seps, gaps, spelled  # 16 bytes a separator: free them before the integers are read
    # the checks fix the token count; given it, numpy allocates the array
    # once instead of growing it (and a short read would leave garbage)
    values = np.fromstring(
        data[body_start:].translate(_SEPARATORS_TO_COMMAS),
        dtype=np.int64,
        count=marks.size,
        sep=",",
    ).reshape(rows, width)
    dens = values[0, 1::2]
    if dens.min() < 1 or not (values[:, 1::2] == dens).all():
        return None
    return PointSet.exact(values[:, 0::2], dens.tolist(), provenance=provenance)
