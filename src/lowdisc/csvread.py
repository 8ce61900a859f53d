"""The reader of the exact CSV layout behind pointsets.pointset_from_csv_file,
loaded by its first read: only the numerators are parsed, eight digits to a
word, and each row's denominators are compared as bytes with the first row's."""

from __future__ import annotations

from typing import BinaryIO, Optional

import numpy as np

from .pointsets import PointSet, _csv_header

# Every decimal of at most 18 digits is below 2^63, so such tokens read
# into int64 exactly.  _MASKS[g] keeps the digit values (low nibbles) of
# the last g - 1 bytes of a word: none for g < 2, all eight from g = 9.
_INT64_DIGITS = 18
_MASKS = np.array([0x0F0F0F0F0F0F0F0F >> 8 * max(9 - g, 0) << 8 * max(9 - g, 0) for g in range(20)] + [0] * 14, np.uint64)
_MARGIN = b"0" * 24  # around a block, so every word read next to a token lies in it


def exact_csv(fh: BinaryIO, provenance: Optional[dict], block: int) -> Optional[PointSet]:
    """The set in fh when its text is laid out exactly as pointset_to_csv
    writes an exact set, else None: header x1..xs, then rows d/d,...,d/d
    ending in a newline, each spelling the first row's denominators, each
    token 1 to 18 ASCII digits.  A first pass counts the rows for one int64
    array of exactly the numerators, column-major as the builders make it;
    the second fills all of it, block by block of whole rows (`block` bytes
    and the rest of the row they end in), with no Python object per token.
    The words read for a numerator's last digits also hold the '/',
    denominator and separator after it, which must be the first row's bytes
    in that column, so only the first row's separators meet the layout."""
    header = fh.readline()
    dim = header.count(b",") + 1
    if header != (_csv_header(dim) + "\n").encode():
        return None
    body = fh.tell()
    count = sum(np.count_nonzero(np.frombuffer(rows, np.uint8) == 10) for rows in iter(lambda: fh.read(block), b""))
    fh.seek(body)
    nums = np.empty((dim, count), dtype=np.int64)  # the transpose of a column-major array
    layout = np.frombuffer(b"/," * (dim - 1) + b"/\n", dtype=np.uint8)
    dens, done = None, 0
    for rows in iter(lambda: fh.read(block) + fh.readline(), b""):
        if not rows.endswith(b"\n"):  # the last row has no newline
            return None
        data = b"".join((_MARGIN, b"\n", rows, _MARGIN))
        raw = np.frombuffer(data, dtype=np.uint8)
        if raw.max() > ord("9"):
            return None
        # every other byte sorts below the digits; after the margin's newline,
        # the first row's must be the layout, and the byte compare repeats them
        seps = np.flatnonzero(raw < ord("0"))
        if (seps.size - 1) % layout.size or dens is None and not (raw[seps[1 : layout.size + 1]] == layout).all():
            return None
        gaps = np.diff(seps)  # each token's length plus one
        if gaps.min() < 2 or gaps.max() > _INT64_DIGITS + 1:
            return None
        # per row: each numerator's '/', then the ',' or '\n' after its denominator
        ends, gaps = (a.reshape(-1, layout.size) for a in (seps[1:], gaps))
        if dens is None:  # the first row: its denominators, as values and as bytes from each '/'
            dens = _decimals(data, ends[:1, 1::2], gaps[:1, 1::2])[0]
            spans = (gaps[0, 1::2] + 1).tolist()  # bytes from each '/' to the separator after its denominator
            keep = [[(1 << 8 * min(max(t - k, 0), 8)) - 1 for k in range(0, max(spans), 8)] for t in spans]
            keep = np.array(keep, np.uint64)
            spelled = _decimals(data, ends[:1, 0::2], gaps[:1, 0::2], keep.shape[-1])[1] & keep
        values, tails = _decimals(data, ends[:, 0::2], gaps[:, 0::2], keep.shape[-1])
        if not ((tails & keep) == spelled).all():
            return None
        # digits are never negative, so numerators below the denominators make those >= 1
        if not (values < dens).all():
            return None
        if done + len(values) > count:  # the file grew after the count
            return None
        nums[:, done : done + len(values)] = values.T
        done += len(values)
    if dens is None or done < count:  # no rows, or the file shrank after the count
        return None
    nums.flags.writeable = False
    return PointSet()._fill(nums.T, tuple(dens[0].tolist()), None, provenance)


def _decimals(data: bytes, ends: np.ndarray, gaps: np.ndarray, after: int = 0) -> tuple:
    """The int64 values of the tokens of gaps - 1 ASCII digits (1 to 18)
    that end before data[ends], read eight digits to a little-endian word
    as in D. Lemire, "Number parsing at a gigabyte per second" (2021), and
    the `after` words from data[ends] on, read with them."""
    lead = (int(gaps.max()) + 6) // 8
    size = 8 * (lead + after)
    words = np.ndarray((len(data) - size + 1,), f"V{size}", data, strides=(1,))[ends - 8 * lead, None].view("<u8")
    # the digit values, 0 before a token; then each step joins neighbouring groups of digits
    digits = words[..., :lead] & _MASKS[gaps[..., None] - np.arange(8 * lead - 8, -1, -8)]
    digits = digits * (10 << 8 | 1) >> 8
    digits = (digits & 0x00FF00FF00FF00FF) * (100 << 16 | 1) >> 16
    digits = (digits & 0x0000FFFF0000FFFF) * (10000 << 32 | 1) >> 32
    values = digits[..., -1]
    for k in range(1, lead):
        values = values + digits[..., -1 - k] * 10 ** (8 * k)
    return values.view(np.int64), words[..., lead:]
