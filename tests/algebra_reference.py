"""The column-by-column Gauss-Jordan elimination that `nullspace_mod_p` ran
before every elimination of the package went through `reduce_into`, kept
verbatim as the reference implementation.

It swaps, scales and clears whole rows of a copied matrix, one pivot column
at a time, and reads the basis off the RREF; the tests compare
`nullspace_mod_p`, the dual space's dimension and the oracles of
`net_reference` and `factorizer_reference` against it.
"""

from typing import Sequence

from lowdisc.algebra import check_prime, inv_mod


def reference_nullspace(rows: Sequence[Sequence[int]], ncols: int, p: int) -> list[list[int]]:
    """Basis of {v : M v = 0} over F_p in deterministic RREF parametrization."""
    check_prime(p)
    mat = [list(row) for row in rows]
    pivot_of_col: dict[int, int] = {}
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(mat)):
            if mat[r][col] % p:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = inv_mod(mat[rank][col], p)
        mat[rank] = [v * inv % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % p:
                factor = mat[r][col]
                mat[r] = [(a - factor * b) % p for a, b in zip(mat[r], mat[rank])]
        pivot_of_col[col] = rank
        rank += 1
    basis = []
    for free_col in (c for c in range(ncols) if c not in pivot_of_col):
        v = [0] * ncols
        v[free_col] = 1
        for col, r in pivot_of_col.items():
            v[col] = (-mat[r][free_col]) % p
        basis.append(v)
    return basis
