"""The row-by-row CSV render that pointset_to_csv used before it formatted
a block of rows per str.format call, kept verbatim as a reference: the
exact branch formats one row at a time over s whole-column lists of Python
ints, and the tests compare the production render against it byte for
byte."""

from lowdisc.pointsets import PointSet, _csv_header


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
