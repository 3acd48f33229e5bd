"""Small dense complex linear-algebra kernel shared by the other modules.

Matrices and vectors are numpy arrays of complex128. Composite
ancilla-plus-qubit spaces always use ancilla-major ordering: basis index
2*a + s for ancilla level a and qubit level s, so the qubit index varies
fastest. rotate_rows and identity_gap write into the array they are
given; no other public function here changes an array argument.
rotate_rows, the plane rotation of every netlist sweep, allocates only
its two cross terms. No function here forms a matrix product: the
checks are O(M^2) passes (max_gap, identity_gap, squared_column_norms)
that bound their temporaries to one block of rows of at most
WORK_VALUES entries, so beside the M x M arrays a command must hold
they form none of their own size.

The export writers live here too: one float formatter, and CSV and JSON
writers that stream a table to an open text file one block of rows at a
time, with the same bytes as a per-entry ``repr`` join and as
``json.dumps(payload, indent=2) + "\\n"``. Each writer carries the
formatter's table of one block into the next, so a bit pattern that
recurs in consecutive blocks is formatted once.
"""

from __future__ import annotations

import json
import textwrap
from collections.abc import Iterator

import numpy as np

# Floats per block of rows a writer formats at once; bounds its memory. Larger
# than WORK_VALUES, as the formatter table a writer carries shrinks with it.
BLOCK_VALUES = 1 << 16

# Entries per block of rows a check's temporaries span; bounds their memory.
WORK_VALUES = 1 << 14

# json.dumps spells the non-finite floats this way; repr gives nan, inf, -inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# Stands in for each float when a JSON row is dumped to find its layout
_PLACEHOLDER = "\x00"


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix must be non-empty, got shape {m.shape}")
    return m


def squared_column_norms(a: np.ndarray) -> np.ndarray:
    """The sum over rows of |a_ij|^2 for every column j of a 2-D complex array.

    Each block of rows takes np.add.reduce(re^2 + im^2) down its columns,
    with the sum so far added into its first row, so the rows are added in
    order as by one np.add.reduce over the whole array: the bits depend
    neither on the BLAS nor on the block size, and the temporaries stay one
    block of WORK_VALUES entries. A square above the float64 range is inf
    without a RuntimeWarning; a NaN entry gives NaN.
    """
    total = np.zeros(a.shape[1])
    with np.errstate(over="ignore"):
        for r in row_slices(len(a), a.shape[1], WORK_VALUES):
            block = a[r]
            squares = np.square(block.real) + np.square(block.imag)
            squares[0] += total
            np.add.reduce(squares, axis=0, out=total)
    return total


def max_gap(a, b) -> float:
    """Largest |a - b| entry, a block of rows at a time; np.max keeps a NaN, which fails."""
    a, b = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b))
    rows = row_slices(len(a), max(1, a[:1].size), WORK_VALUES)
    return float(np.max([np.max(np.abs(a[r] - b[r])) for r in rows]))


def identity_gap(a: np.ndarray) -> float:
    """Max-abs entry of A - I for a square array A, which is left holding A - I.

    |A - I| is taken one block of rows at a time, through max_gap(A - I, 0),
    so no second M x M array is formed; np.max keeps a NaN, which fails
    ``<= tol``.
    """
    diag = np.einsum("ii->i", a)  # a writable view of the diagonal
    diag -= 1.0
    return max_gap(a, 0)


def rotate_rows(arr: np.ndarray, i: int, j: int, angle: float) -> None:
    """Apply [[cos, sin], [-sin, cos]] of ``angle`` to rows i, j in place.

    The one plane-rotation kernel (netlist evaluation, elimination, optical
    elements); O(row length) instead of an M x M product. A 1-D vector
    works too: its entries are the rows. The cross terms s rj and -s ri
    are formed before either row is written, so no copy of a row is
    saved, and the rows give the bits of c ri + s rj and -s ri + c rj.
    Each product keeps the scalar first, because numpy's complex multiply
    can round an underflowing product to the other signed zero when the
    operands are swapped.
    """
    c, s = np.cos(angle), np.sin(angle)
    ri, rj = arr[i, ...], arr[j, ...]  # views, 0-d for a 1-D arr
    to_i, to_j = s * rj, -s * ri
    np.multiply(c, ri, out=ri)
    ri += to_i
    np.multiply(c, rj, out=rj)
    rj += to_j


def partial_trace_ancilla(p) -> np.ndarray:
    """Reduce an operator on the ancilla+qubit space to a qubit operator.

    The M-dimensional space is read as H_A (dim M/2) tensor H_S (dim 2)
    with the ancilla-major index convention 2*a + s, and the ancilla is
    taken in its first basis level |e1><e1|. Under that ordering the
    reduction Tr_A[P (|e1><e1| x I)] is exactly the top-left 2x2 block
    of P.

    Parameters
    ----------
    p : array_like
        Square matrix of even dimension M >= 2.

    Returns
    -------
    numpy.ndarray
        2x2 reduced operator.
    """
    p = _as_matrix(p)
    n, m = p.shape
    if n != m:
        raise ValueError(f"partial trace needs a square matrix, got shape {p.shape}")
    if n % 2 != 0:
        raise ValueError(f"dimension must be even to split off a qubit, got {n}")
    return p[:2, :2].copy()


def row_slices(n_rows: int, row_len: int, budget: int) -> Iterator[slice]:
    """Consecutive row ranges of at most ``budget`` entries (one row at least), made lazily."""
    step = max(1, budget // row_len)
    return (slice(i, i + step) for i in range(0, n_rows, step))


def _float_reprs(values: np.ndarray, previous=None):
    """repr(float(x)) of every float64 entry, and the table to hand on.

    Returns the strings as an object array of ``values``' shape, and the
    table ``(bits, strings)`` of this block's distinct bit patterns (the
    sorted int64 view, which keeps -0.0 apart from 0.0) and their repr.
    Each pattern is formatted once: those found in ``previous``, the
    table of the block before, reuse its string; only the rest go
    through repr.
    """
    a = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(a.view(np.int64).ravel(), return_inverse=True)
    strings = np.empty(bits.size, dtype=object)
    miss = np.ones(bits.size, dtype=bool)
    if previous is not None and previous[0].size:
        old_bits, old_strings = previous
        at = np.searchsorted(old_bits, bits).clip(max=old_bits.size - 1)
        miss = old_bits[at] != bits
        strings[~miss] = old_strings[at[~miss]]
    strings[miss] = [repr(v) for v in bits[miss].view(np.float64).tolist()]
    return strings[inverse].reshape(a.shape), (bits, strings)


def _row_texts(text: np.ndarray, pieces: list[str]):
    """Yield pieces[0] v_0 pieces[1] v_1 ... v_{C-1} pieces[C] for each row."""
    tokens = [""] * (2 * text.shape[1] + 1)
    tokens[0::2] = pieces
    for row in text.tolist():
        tokens[1::2] = row
        yield "".join(tokens)


def write_csv_rows(fh, header: str, blocks) -> None:
    """Write a header line, then one line per row of each 2-D float block.

    A line is the ``repr`` of its entries joined by commas.
    """
    fh.write(header + "\n")
    table = None
    for block in blocks:
        text, table = _float_reprs(block, table)
        fh.writelines(",".join(row) + "\n" for row in text.tolist())


def write_json_rows(fh, fields: dict, key: str, row, blocks) -> None:
    """Write ``json.dumps({**fields, key: rows}, indent=2) + "\\n"`` block by block.

    ``fields`` must be non-empty. Each 2-D float block holds rows of
    values, and ``row(values)`` is the JSON structure of one row (lists
    and dicts around those values, in order). It is dumped once with
    placeholders to find the text between the values, so the layout is
    json's own.
    """
    head = json.dumps(fields, indent=2)[:-2]  # drop the closing "\n}"
    fh.write(f"{head},\n  {json.dumps(key)}: [")
    pieces, sep, table = None, "\n", None
    for block in blocks:
        if pieces is None:
            template = json.dumps(row([_PLACEHOLDER] * block.shape[1]), indent=2)
            pieces = textwrap.indent(template, "    ").split(json.dumps(_PLACEHOLDER))
        text, table = _float_reprs(block, table)
        # json's spelling goes into this block's entries, never the table
        bad = ~np.isfinite(block)
        text[bad] = [_JSON_NONFINITE[t] for t in text[bad]]
        for line in _row_texts(text, pieces):
            fh.write(sep)
            fh.write(line)
            sep = ",\n"
    fh.write("\n  ]\n}\n" if sep == ",\n" else "]\n}\n")
