"""Naimark extension of the phase measurement to a projective one.

The M rank-one elements Pi_k of the qubit measurement are lifted to M
orthogonal rank-one projectors P_k = Z_k Z_k† on an M-dimensional
space (ancilla of dimension M/2 tensor the qubit, ancilla-major
ordering). The extension columns Z_k are built two ways:

* a closed form giving every coefficient of every column directly, and
* a recursive construction that fixes the first two entries of each
  column to X_k = sqrt(2/M) psi_k and solves the remaining entries one
  at a time from orthogonality against the columns already built,
  finishing each column with a positive real norm-completing entry;
  it is computed as one Cholesky factorization of I - X†X.

Columns are packed in the interleaved order
(Z_0, Z_{M/2}, Z_1, Z_{M/2+1}, ..., Z_{M/2-1}, Z_{M-1}); the closed
form and the recursion agree only in this build order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    BLOCK_VALUES,
    WORK_VALUES,
    max_gap,
    row_slices,
    squared_column_norms,
    write_csv_rows,
    write_json_rows,
)

# povm_element is not called here; it stays importable from this module
# because bench/test_bench.py lists naimark.povm_element among the
# cross-module names its tracer wraps
from .povm import (  # noqa: F401
    _check_outcome_index,
    _outer,
    click_probabilities,
    outcome_distribution,
    phase_povm,
    povm_element,
    psi_k,
    random_density,
    validate_outcome_count,
)

# Largest entry of B†B - G[M-2:, M-2:] that still counts as a complete
# pair of last columns in the recursive construction, and largest
# imaginary part of G it may drop by factoring the real part.
SKIP_TOL = 1e-12

# Random qubit states on which verify_naimark compares the statistics.
NUM_STATES = 20


def column_order(m: int) -> tuple[int, ...]:
    """Outcome index carried by each column position (the interleaving)."""
    m = validate_outcome_count(m)
    return tuple(np.arange(m).reshape(2, m // 2).T.ravel().tolist())


@dataclass(frozen=True)
class ExtensionMatrix:
    """Unitary M x M matrix whose columns extend the POVM directions.

    Z is the only field: M is its size, and column_order[j], the outcome
    of column j, is the interleaved packing column_order(M). The column for
    outcome k starts with X_k = sqrt(2/M) psi_k. Z is made read-only (not
    copied) on construction, so no check can change what the others read.
    """

    Z: np.ndarray

    def __post_init__(self):
        self.Z.flags.writeable = False

    @property
    def M(self) -> int:
        return len(self.Z)

    @property
    def column_order(self) -> tuple[int, ...]:
        return column_order(self.M)

    def column_for_outcome(self, k: int) -> np.ndarray:
        j = self.column_order.index(k)
        return self.Z[:, j]


def _closed_form_columns(m: int) -> np.ndarray:
    """The closed-form extension matrix, column j for outcome column_order(m)[j].

    For k < M/2 the column is the pair (e^{-i pi k/M}, e^{i pi k/M})/sqrt(M),
    then cosine/sine pairs -2cos((k-j)pi/M), -2sin((k-j)pi/M) scaled by
    1/sqrt((M-2j)(M-2j-2)) for j = 0..k-1, then the norm-completing
    entry sqrt((M-2k-2)/(M-2k)), then zeros. For k >= M/2 the pairs are
    sine/cosine swapped with the signs (+, -) and the norm entry sits
    one position later, after an explicit zero. Entries that the
    pattern would place beyond position M are zero and are truncated.

    Every row pair j (rows 2j+2, 2j+3) is filled for every column at once,
    one block of row pairs at a time, so the index and quotient tables
    stay one block's size.
    """
    ks = np.asarray(column_order(m))
    half = m // 2
    high = ks >= half
    kk = np.where(high, ks - half, ks)
    z = np.zeros((m, ks.size), dtype=complex)
    z[0] = np.exp(-1j * np.pi * ks / m) / np.sqrt(m)
    z[1] = np.exp(1j * np.pi * ks / m) / np.sqrt(m)
    # Row pair j of a column holds a cos/sin pair of (kk - j) pi/M, over
    # sqrt((M-2j)(M-2j-2)), when kk > j. The tables are indexed by
    # kk - j, plus half for k >= M/2; entry 0 of each half stands for
    # kk <= j and holds zero.
    angle = np.arange(half) * np.pi / m
    cos2, sin2 = 2.0 * np.cos(angle), 2.0 * np.sin(angle)
    upper = np.concatenate([-cos2, sin2])
    lower = np.concatenate([-sin2, -cos2])
    upper[[0, half]] = lower[[0, half]] = 0.0
    pairs = z[2:].reshape(half - 1, 2, ks.size)  # pairs[j] is rows 2j+2, 2j+3
    js = np.arange(half - 1)[:, None]
    for r in row_slices(half - 1, 2 * ks.size, WORK_VALUES):
        j = js[r]
        pick = np.maximum(kk - j, 0) + half * high
        den = np.sqrt((m - 2 * j) * (m - 2 * j - 2))
        pairs[r, 0] = upper[pick] / den
        pairs[r, 1] = lower[pick] / den
    norm_pos = 2 * kk + 2 + high
    has_norm = norm_pos < m
    kn = kk[has_norm]
    z[norm_pos[has_norm], has_norm] = np.sqrt((m - 2 * kn - 2) / (m - 2 * kn))
    return z


def build_extension_closed(m: int) -> ExtensionMatrix:
    """Assemble the extension matrix from closed-form columns."""
    m = validate_outcome_count(m)
    return ExtensionMatrix(Z=_closed_form_columns(m))


def build_extension_recursive(m: int) -> ExtensionMatrix:
    """Build the extension from the constraints alone, without the closed form.

    The top rows are X = sqrt(2/M) psi_k in build order, and Z†Z = I asks
    the remaining rows Y to satisfy Y†Y = G := I - X†X. Column j reaches
    down to row j + 2 only, so the first M-2 columns of Y are upper
    triangular with the positive real norm-completing entries on the
    diagonal: the Cholesky factor R = L† of G[:M-2, :M-2] (Golub & Van
    Loan, Matrix Computations, 4.2). Solving one orthogonality constraint
    per fresh coefficient, column by column, computes exactly that factor.
    The last two columns solve R† B = G[:M-2, M-2:] by forward
    substitution and must complete B†B to G[M-2:, M-2:].

    Every entry of G is real in exact arithmetic (psi_k† psi_l =
    cos((k - l) pi/M)), so the real part of G is factored and Z[2:] is
    real; an imaginary part of G above SKIP_TOL is an error.
    """
    m = validate_outcome_count(m)
    n = m - 2
    x = np.sqrt(2.0 / m) * psi_k(m, column_order(m)).T
    g = x.conj().T @ -x
    g[np.diag_indices(m)] += 1.0
    # G is M x M complex: keep its real part and its largest imaginary
    # part, and free it before the factorization
    real, imaginary = g.real.copy(), max_gap(g.imag, 0)
    del g
    try:
        lower = np.linalg.cholesky(real[:n, :n])
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"M={m}: I - X†X has a non-positive pivot in its first M-2 columns"
        ) from exc
    b = real[:n, n:].copy()
    for i in range(n):
        b[i] = (b[i] - lower[i, :i] @ b[:i]) / lower[i, i]
    # a NaN residual must fail, so test "not <=" rather than ">"
    completion = max_gap(b.T @ b, real[n:, n:])
    del real  # free it before Z takes its place
    if not completion <= SKIP_TOL:
        raise RuntimeError(
            f"M={m}: the last two columns miss G[M-2:, M-2:] by {completion:.3e}"
        )
    if not imaginary <= SKIP_TOL:
        raise RuntimeError(
            f"M={m}: I - X†X has imaginary parts up to {imaginary:.3e}, not a real matrix"
        )
    z = np.zeros((m, m), dtype=complex)
    z[:2] = x
    z[2:, :n] = lower.T
    z[2:, n:] = b
    return ExtensionMatrix(Z=z)


def projector(ext: ExtensionMatrix, k: int) -> np.ndarray:
    """Rank-one projector P_k = Z_k Z_k† onto the extended direction k."""
    col = ext.column_for_outcome(_check_outcome_index(ext.M, k))
    return _outer(col)


def random_states(seed: int) -> np.ndarray:
    """The NUM_STATES random qubit states of ``seed``, as one (NUM_STATES, 2, 2) stack."""
    rng = np.random.default_rng(seed)
    return np.array([random_density(rng) for _ in range(NUM_STATES)])


def verify_naimark(ext: ExtensionMatrix, seed: int = 0) -> dict[str, float]:
    """Measure the constraints of an extension that take O(M^2) or less.

    Returns the named max-abs residuals, in this order:

    norms                  : largest | ||Z_k||^2 - 1 |, from the column
                             sums of |Z|^2 (numerics.squared_column_norms)
    povm_blocks            : largest deviation of the reduced projector
                             block from Pi_k
    probability_constraint : largest |Tr[Pi_k rho] - Tr[P_k (rho_A x rho)]|
                             over the sampled random states

    Orthogonality and unitarity are not measured here: no M x M product is
    formed, and compiler.eliminate's sweep certifies both. Never raises on
    a bad matrix; every violation shows up as a residual, and a NaN
    residual fails any ``<= tol`` test. The probability check compares
    povm.outcome_distribution's Tr[Pi_k rho] against the extended-space
    statistics Tr[P_k (rho_A tensor rho)] on the states random_states(seed).
    """
    norms = max_gap(squared_column_norms(ext.Z), 1.0)
    povm, order = phase_povm(ext.M), list(ext.column_order)  # column j is outcome order[j]
    top = ext.Z[:2].T
    max_block = max_gap(_outer(top), povm.elements[order])

    rhos = random_states(seed)
    # |e1><e1| x rho is zero outside its top 2x2 block, so Tr[P_j lifted] is
    # z[:2, j]† rho z[:2, j]: the clicks of the M x 2 isometry conj(Z[:2])ᵀ, O(M) per state
    extended = click_probabilities(top.conj(), rhos)
    direct = outcome_distribution(povm, rhos).probabilities[:, order]
    max_prob = max_gap(direct, extended)

    return {"norms": norms, "povm_blocks": max_block, "probability_constraint": max_prob}


def _row_blocks(ext: ExtensionMatrix):
    """Blocks of Z's rows as floats, each entry's real part then its imaginary part."""
    for rows in row_slices(ext.M, 2 * ext.M, BLOCK_VALUES):
        yield np.ascontiguousarray(ext.Z[rows], dtype=complex).view(np.float64)


def write_extension_json(ext: ExtensionMatrix, fh) -> None:
    """JSON form: entries as [re, im] pairs, row major, streamed to ``fh``.

    The bytes equal json.dumps({"M": M, "column_order": [...], "matrix":
    [[[re, im], ...], ...]}, indent=2) followed by a newline.
    """
    write_json_rows(
        fh,
        {"M": ext.M, "column_order": list(ext.column_order)},
        "matrix",
        lambda v: [v[i : i + 2] for i in range(0, len(v), 2)],
        _row_blocks(ext),
    )


def write_extension_csv(ext: ExtensionMatrix, fh) -> None:
    """CSV form with interleaved re/im columns, one row per matrix row."""
    header = ",".join(f"col{j}_re,col{j}_im" for j in range(ext.M))
    write_csv_rows(fh, header, _row_blocks(ext))
