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

from .numerics import COMPARISON_TOL
from .povm import povm_element, psi_k, random_density, validate_outcome_count

# Largest entry of B†B - G[M-2:, M-2:] that still counts as a complete
# pair of last columns in the recursive construction.
SKIP_TOL = 1e-12


def column_order(m: int) -> tuple[int, ...]:
    """Outcome index carried by each column position (the interleaving)."""
    m = validate_outcome_count(m)
    return tuple(np.arange(m).reshape(2, m // 2).T.ravel().tolist())


@dataclass(frozen=True)
class ExtensionMatrix:
    """Unitary M x M matrix whose columns extend the POVM directions.

    column_order[j] is the outcome index of column j, fixed to the
    interleaved packing; the top two entries of the column for outcome
    k equal X_k = sqrt(2/M) psi_k.
    """

    M: int
    Z: np.ndarray
    column_order: tuple[int, ...]

    def column_for_outcome(self, k: int) -> np.ndarray:
        j = self.column_order.index(k)
        return self.Z[:, j]


def _closed_form_columns(m: int, ks) -> np.ndarray:
    """Closed-form extension columns for the outcomes ``ks``, one per column.

    Row pair j (rows 2j+2, 2j+3) is filled for every column at once.
    """
    ks = np.asarray(ks)
    high = ks >= m // 2
    kk = np.where(high, ks - m // 2, ks)
    z = np.zeros((m, ks.size), dtype=complex)
    z[0] = np.exp(-1j * np.pi * ks / m) / np.sqrt(m)
    z[1] = np.exp(1j * np.pi * ks / m) / np.sqrt(m)
    for j in range(m // 2 - 1):
        cols = kk > j
        den = np.sqrt((m - 2 * j) * (m - 2 * j - 2))
        c = 2.0 * np.cos((kk[cols] - j) * np.pi / m) / den
        s = 2.0 * np.sin((kk[cols] - j) * np.pi / m) / den
        z[2 * j + 2, cols] = np.where(high[cols], s, -c)
        z[2 * j + 3, cols] = -np.where(high[cols], c, s)
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
    """
    m = validate_outcome_count(m)
    order = column_order(m)
    n = m - 2
    x = np.sqrt(2.0 / m) * np.stack([psi_k(m, k) for k in order], axis=1)
    g = x.conj().T @ -x
    g[np.diag_indices(m)] += 1.0
    try:
        lower = np.linalg.cholesky(g[:n, :n])
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"M={m}: I - X†X has a non-positive pivot in its first M-2 columns"
        ) from exc
    b = g[:n, n:].copy()
    for i in range(n):
        b[i] = (b[i] - lower[i, :i] @ b[:i]) / lower[i, i]
    # a NaN residual must fail, so test "not <=" rather than ">"
    completion = float(np.max(np.abs(b.conj().T @ b - g[n:, n:])))
    if not completion <= SKIP_TOL:
        raise RuntimeError(
            f"M={m}: the last two columns miss G[M-2:, M-2:] by {completion:.3e}"
        )
    z = np.zeros((m, m), dtype=complex)
    z[:2] = x
    np.conjugate(lower.T, out=z[2:, :n])
    z[2:, n:] = b
    return ExtensionMatrix(M=m, Z=z, column_order=order)


def projector(ext: ExtensionMatrix, k: int) -> np.ndarray:
    """Rank-one projector P_k = Z_k Z_k† onto the extended direction k."""
    if not 0 <= int(k) < ext.M:
        raise ValueError(f"outcome index k={k} out of range for M={ext.M}")
    col = ext.column_for_outcome(int(k))
    return np.outer(col, col.conj())


def embed_with_ancilla(m: int, rho) -> np.ndarray:
    """Lift a qubit state to the extended space: |e1><e1|_A tensor rho."""
    rho = np.asarray(rho, dtype=complex)
    rho_a = np.zeros((m // 2, m // 2), dtype=complex)
    rho_a[0, 0] = 1.0
    return np.kron(rho_a, rho)


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
        return all(
            r <= tol
            for r in (
                self.max_orthogonality_residual,
                self.max_norm_residual,
                self.max_povm_block_residual,
                self.unitarity_residual,
                self.max_probability_residual,
            )
        )


def verify_naimark(
    ext: ExtensionMatrix,
    tol: float = COMPARISON_TOL,
    seed: int = 0,
    num_states: int = 20,
) -> NaimarkReport:
    """Measure how well an extension satisfies all its constraints.

    Never raises on a bad matrix; every violation shows up as a
    residual, to be judged against ``tol`` via report.within_tolerance.
    The probability check compares the qubit-level statistics
    Tr[Pi_k rho] against the extended-space statistics
    Tr[P_k (rho_A tensor rho)] on ``num_states`` random qubit states
    drawn from a generator seeded with ``seed``; at least one is needed.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    if num_states < 1:
        raise ValueError(f"num_states must be at least 1, got {num_states}")
    m, z = ext.M, ext.Z
    eye = np.eye(m)
    gram = z.conj().T @ z
    off = gram - np.diag(np.diag(gram))
    max_ortho = float(np.max(np.abs(off)))
    max_norm = float(np.max(np.abs(np.diag(gram).real - 1.0)))
    # np.maximum / np.max keep a NaN residual; Python's max would drop it
    unitarity = float(
        np.maximum(np.max(np.abs(gram - eye)), np.max(np.abs(z @ z.conj().T - eye)))
    )

    # reference[j] is Pi_k for the outcome k that column j carries
    reference = np.stack([povm_element(m, k) for k in range(m)])[list(ext.column_order)]
    top = z[:2].T
    blocks = top[:, :, None] * top.conj()[:, None, :]
    max_block = float(np.max(np.abs(blocks - reference)))

    rng = np.random.default_rng(seed)
    rhos = np.array([random_density(rng) for _ in range(num_states)]).reshape(-1, 2, 2)
    # The lifted state |e1><e1| x rho is zero outside its top 2x2 block,
    # so Tr[P_j lifted] = z[:2, j]† rho z[:2, j]: O(M) per state
    extended = np.einsum("ja,sab,jb->sj", top.conj(), rhos, top).real
    direct = np.einsum("jab,sba->sj", reference, rhos).real
    max_prob = float(np.max(np.abs(direct - extended)))

    return NaimarkReport(
        max_orthogonality_residual=max_ortho,
        max_norm_residual=max_norm,
        max_povm_block_residual=max_block,
        unitarity_residual=unitarity,
        max_probability_residual=max_prob,
    )


def extension_to_json_dict(ext: ExtensionMatrix) -> dict:
    """JSON-friendly form: entries as [re, im] pairs, row major."""
    return {
        "M": ext.M,
        "column_order": list(ext.column_order),
        "matrix": [
            [[float(v.real), float(v.imag)] for v in row] for row in ext.Z
        ],
    }


def extension_to_csv(ext: ExtensionMatrix) -> str:
    """CSV form with interleaved re/im columns, one row per matrix row."""
    header = ",".join(f"col{j}_re,col{j}_im" for j in range(ext.M))
    lines = [header]
    for row in ext.Z:
        lines.append(",".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row))
    return "\n".join(lines) + "\n"
