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

from dataclasses import astuple, dataclass
from functools import cached_property

import numpy as np

from .numerics import row_slices, write_csv_rows, write_json_rows

# povm_element is not called here; it stays importable from this module
# because bench/test_bench.py lists naimark.povm_element among the
# cross-module names its tracer wraps
from .povm import (  # noqa: F401
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
class GramResiduals:
    """Max-abs residuals of Z†Z = I and ZZ† = I.

    orthogonality : largest |Z_k† Z_l| over k != l
    norm          : largest | ||Z_k||^2 - 1 |
    unitarity     : max-abs entry of Z†Z - I and ZZ† - I
    """

    orthogonality: float
    norm: float
    unitarity: float


def _minus_identity(p: np.ndarray) -> np.ndarray:
    """Subtract the identity from a square array in place; return its diagonal view."""
    diag = np.einsum("ii->i", p)
    diag -= 1.0
    return diag


@dataclass(frozen=True)
class ExtensionMatrix:
    """Unitary M x M matrix whose columns extend the POVM directions.

    column_order[j] is the outcome index of column j, fixed to the
    interleaved packing; the top two entries of the column for outcome
    k equal X_k = sqrt(2/M) psi_k. Z is made read-only (not copied) on
    construction, so the residuals cached from it cannot go stale.
    """

    M: int
    Z: np.ndarray
    column_order: tuple[int, ...]

    def __post_init__(self):
        self.Z.flags.writeable = False

    def column_for_outcome(self, k: int) -> np.ndarray:
        j = self.column_order.index(k)
        return self.Z[:, j]

    @cached_property
    def gram_residuals(self) -> GramResiduals:
        """Residuals from one Z†Z and one ZZ†, each formed once per matrix."""
        z = self.Z
        gram = z.conj().T @ z
        diag = _minus_identity(gram)
        norm = np.max(np.abs(diag.real))
        left = np.max(np.abs(gram))
        diag -= diag  # now the off-diagonal part alone, as Z†Z - diag(Z†Z)
        orthogonality = np.max(np.abs(gram))
        del gram, diag
        outer = z @ z.conj().T
        _minus_identity(outer)
        # np.maximum keeps a NaN residual; Python's max would drop it
        unitarity = np.maximum(left, np.max(np.abs(outer)))
        return GramResiduals(
            orthogonality=float(orthogonality), norm=float(norm), unitarity=float(unitarity)
        )


def _closed_form_columns(m: int, ks) -> np.ndarray:
    """Closed-form extension columns for the outcomes ``ks``, one per column.

    Every row pair j (rows 2j+2, 2j+3) is filled for every column at once.
    """
    ks = np.asarray(ks)
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
    j = np.arange(half - 1)[:, None]
    pick = np.maximum(kk - j, 0) + half * high
    den = np.sqrt((m - 2 * j) * (m - 2 * j - 2))
    z[2::2] = upper[pick] / den
    z[3::2] = lower[pick] / den
    norm_pos = 2 * kk + 2 + high
    has_norm = norm_pos < m
    kn = kk[has_norm]
    z[norm_pos[has_norm], has_norm] = np.sqrt((m - 2 * kn - 2) / (m - 2 * kn))
    return z


def closed_form_column(m: int, k: int) -> np.ndarray:
    """Extension column Z_k from the closed form.

    For k < M/2 the column is the pair (e^{-i pi k/M}, e^{i pi k/M})/sqrt(M),
    then cosine/sine pairs -2cos((k-j)pi/M), -2sin((k-j)pi/M) scaled by
    1/sqrt((M-2j)(M-2j-2)) for j = 0..k-1, then the norm-completing
    entry sqrt((M-2k-2)/(M-2k)), then zeros. For k >= M/2 the pairs are
    sine/cosine swapped with the signs (+, -) and the norm entry sits
    one position later, after an explicit zero. Entries that the
    pattern would place beyond position M are zero and are truncated.
    """
    m = validate_outcome_count(m)
    k = int(k)
    if not 0 <= k < m:
        raise ValueError(f"outcome index k={k} out of range for M={m}")
    return _closed_form_columns(m, [k])[:, 0]


def build_extension_closed(m: int) -> ExtensionMatrix:
    """Assemble the extension matrix from closed-form columns."""
    m = validate_outcome_count(m)
    order = column_order(m)
    return ExtensionMatrix(M=m, Z=_closed_form_columns(m, order), column_order=order)


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
    order = column_order(m)
    n = m - 2
    x = np.sqrt(2.0 / m) * np.stack([psi_k(m, k) for k in order], axis=1)
    g = x.conj().T @ -x
    g[np.diag_indices(m)] += 1.0
    real = g.real
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
    completion = float(np.max(np.abs(b.T @ b - real[n:, n:])))
    if not completion <= SKIP_TOL:
        raise RuntimeError(
            f"M={m}: the last two columns miss G[M-2:, M-2:] by {completion:.3e}"
        )
    imaginary = float(np.max(np.abs(g.imag)))
    if not imaginary <= SKIP_TOL:
        raise RuntimeError(
            f"M={m}: I - X†X has imaginary parts up to {imaginary:.3e}, not a real matrix"
        )
    z = np.zeros((m, m), dtype=complex)
    z[:2] = x
    z[2:, :n] = lower.T
    z[2:, n:] = b
    return ExtensionMatrix(M=m, Z=z, column_order=order)


def projector(ext: ExtensionMatrix, k: int) -> np.ndarray:
    """Rank-one projector P_k = Z_k Z_k† onto the extended direction k."""
    if not 0 <= int(k) < ext.M:
        raise ValueError(f"outcome index k={k} out of range for M={ext.M}")
    col = ext.column_for_outcome(int(k))
    return np.outer(col, col.conj())


@dataclass(frozen=True)
class NaimarkReport:
    """Worst-case residuals of the extension constraints.

    max_orthogonality_residual : largest |Z_k† Z_l| over k != l
    max_norm_residual          : largest | ||Z_k||^2 - 1 |
    max_povm_block_residual    : largest deviation of the reduced
                                 projector block from Pi_k
    unitarity_residual         : max-abs entry of Z†Z - I and ZZ† - I
    max_probability_residual   : largest |Tr[Pi_k rho] - Tr[P_k (rho_A x rho)]|
                                 over the sampled random states
    """

    max_orthogonality_residual: float
    max_norm_residual: float
    max_povm_block_residual: float
    unitarity_residual: float
    max_probability_residual: float

    def within_tolerance(self, tol: float) -> bool:
        """Every residual field is <= tol; a NaN residual fails."""
        return all(r <= tol for r in astuple(self))


def verify_naimark(ext: ExtensionMatrix, seed: int = 0) -> NaimarkReport:
    """Measure how well an extension satisfies all its constraints.

    Never raises on a bad matrix; every violation shows up as a
    residual, to be judged via report.within_tolerance. The probability
    check compares the qubit-level statistics Tr[Pi_k rho] against the
    extended-space statistics Tr[P_k (rho_A tensor rho)] on NUM_STATES
    random qubit states drawn from a generator seeded with ``seed``.
    """
    residuals = ext.gram_residuals
    # reference[j] is Pi_k for the outcome k that column j carries
    reference = phase_povm(ext.M).elements[list(ext.column_order)]
    top = ext.Z[:2].T
    blocks = top[:, :, None] * top.conj()[:, None, :]
    max_block = float(np.max(np.abs(blocks - reference)))

    rng = np.random.default_rng(seed)
    rhos = np.array([random_density(rng) for _ in range(NUM_STATES)])
    # The lifted state |e1><e1| x rho is zero outside its top 2x2 block,
    # so Tr[P_j lifted] = z[:2, j]† rho z[:2, j]: O(M) per state
    extended = np.einsum("ja,sab,jb->sj", top.conj(), rhos, top).real
    direct = np.einsum("jab,sba->sj", reference, rhos).real
    max_prob = float(np.max(np.abs(direct - extended)))

    return NaimarkReport(
        max_orthogonality_residual=residuals.orthogonality,
        max_norm_residual=residuals.norm,
        max_povm_block_residual=max_block,
        unitarity_residual=residuals.unitarity,
        max_probability_residual=max_prob,
    )


def _row_blocks(ext: ExtensionMatrix):
    """Blocks of Z's rows as floats, each entry's real part then its imaginary part."""
    for rows in row_slices(ext.M, 2 * ext.M):
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
