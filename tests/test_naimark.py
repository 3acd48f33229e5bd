"""Tests for the extension-matrix construction (closed form and recursive)."""

import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phasepovm.naimark as naimark
from phasepovm.cli import _naimark_checks, main
from phasepovm.compiler import eliminate
from phasepovm.naimark import (
    NUM_STATES,
    SKIP_TOL,
    ExtensionMatrix,
    build_extension_closed,
    build_extension_recursive,
    column_order,
    projector,
    random_states,
    verify_naimark,
    write_extension_csv,
    write_extension_json,
)
from phasepovm.numerics import max_gap, partial_trace_ancilla
from phasepovm.povm import (
    click_probabilities,
    outcome_distribution,
    phase_povm,
    povm_element,
    psi_k,
    random_density,
)

SEED = 20240811
POWERS = [2, 4, 8, 16, 32, 64]


def closed_form_column(m, k):
    """Reference: the closed-form extension column of outcome k."""
    return build_extension_closed(m).column_for_outcome(k).copy()


def embed_with_ancilla(m, rho):
    """Dense reference lift of a qubit state: |e1><e1|_A tensor rho."""
    rho_a = np.zeros((m // 2, m // 2), dtype=complex)
    rho_a[0, 0] = 1.0
    return np.kron(rho_a, np.asarray(rho, dtype=complex))


def extension_to_json_dict(ext):
    """Reference JSON form: entries as [re, im] pairs, row major."""
    return {
        "M": ext.M,
        "column_order": list(ext.column_order),
        "matrix": [
            [[float(v.real), float(v.imag)] for v in row] for row in ext.Z
        ],
    }


def extension_to_csv(ext):
    """Reference CSV form: per-entry repr, interleaved re/im columns."""
    header = ",".join(f"col{j}_re,col{j}_im" for j in range(ext.M))
    lines = [header]
    for row in ext.Z:
        lines.append(",".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row))
    return "\n".join(lines) + "\n"


def _written(write, ext):
    buf = io.StringIO()
    write(ext, buf)
    return buf.getvalue()


def _reference_z8():
    """The 8x8 extension written out entry by entry.

    Derived independently of the construction code: top rows are the
    direction vectors scaled by 1/sqrt(8), each later row pair holds the
    -2cos/-2sin ladder over denominators sqrt(48), sqrt(24), sqrt(8),
    with norm-completion anchors sqrt(6/8), sqrt(4/6), sqrt(2/4).
    """
    s = 1.0 / np.sqrt(8.0)

    def e(a):
        return np.exp(1j * a * np.pi / 8.0)

    def c(a):
        return np.cos(a * np.pi / 8.0)

    def sn(a):
        return np.sin(a * np.pi / 8.0)

    r48, r24, r8 = np.sqrt(48.0), np.sqrt(24.0), np.sqrt(8.0)
    return np.array(
        [
            [s, -1j * s, e(-1) * s, e(-5) * s, e(-2) * s, e(-6) * s, e(-3) * s, e(-7) * s],
            [s, 1j * s, e(1) * s, e(5) * s, e(2) * s, e(6) * s, e(3) * s, e(7) * s],
            [np.sqrt(6.0 / 8.0), 0, -2 * c(1) / r48, 2 * sn(1) / r48,
             -2 * c(2) / r48, 2 * sn(2) / r48, -2 * c(3) / r48, 2 * sn(3) / r48],
            [0, np.sqrt(6.0 / 8.0), -2 * sn(1) / r48, -2 * c(1) / r48,
             -2 * sn(2) / r48, -2 * c(2) / r48, -2 * sn(3) / r48, -2 * c(3) / r48],
            [0, 0, np.sqrt(4.0 / 6.0), 0, -2 * c(1) / r24, 2 * sn(1) / r24,
             -2 * c(2) / r24, 2 * sn(2) / r24],
            [0, 0, 0, np.sqrt(4.0 / 6.0), -2 * sn(1) / r24, -2 * c(1) / r24,
             -2 * sn(2) / r24, -2 * c(2) / r24],
            [0, 0, 0, 0, np.sqrt(2.0 / 4.0), 0, -2 * c(1) / r8, 2 * sn(1) / r8],
            [0, 0, 0, 0, 0, np.sqrt(2.0 / 4.0), -2 * sn(1) / r8, -2 * c(1) / r8],
        ],
        dtype=complex,
    )


def _closed_form_column_loop(m, k):
    """Column Z_k filled one coefficient pair at a time (loop reference)."""
    z = np.zeros(m, dtype=complex)
    z[0] = np.exp(-1j * np.pi * k / m) / np.sqrt(m)
    z[1] = np.exp(1j * np.pi * k / m) / np.sqrt(m)
    kk = k if k < m // 2 else k - m // 2
    for j in range(kk):
        den = np.sqrt((m - 2 * j) * (m - 2 * j - 2))
        c = 2.0 * np.cos((kk - j) * np.pi / m) / den
        s = 2.0 * np.sin((kk - j) * np.pi / m) / den
        if k < m // 2:
            z[2 * j + 2] = -c
            z[2 * j + 3] = -s
        else:
            z[2 * j + 2] = s
            z[2 * j + 3] = -c
    norm_pos = 2 * kk + 2 if k < m // 2 else 2 * kk + 3
    if norm_pos < m:
        z[norm_pos] = np.sqrt((m - 2 * kk - 2) / (m - 2 * kk))
    return z


def _closed_form_columns_loop(m, ks):
    """The closed form filled one row pair at a time (bit-exact reference)."""
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


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _recursive_loop(m):
    """Z built one coefficient at a time from the constraints (loop reference).

    Each column starts from X_k; orthogonality against every earlier
    column fixes one fresh coefficient while the new column is shorter
    than the earlier one and must already hold otherwise; a column still
    short of unit norm gets a final positive real entry.
    """
    z = np.zeros((m, m), dtype=complex)
    lengths = []
    for j, k in enumerate(column_order(m)):
        col = np.zeros(m, dtype=complex)
        col[:2] = np.sqrt(2.0 / m) * psi_k(m, k)
        t = 2
        for i in range(j):
            lp = lengths[i]
            if t >= lp:
                assert abs(np.vdot(z[:t, i], col[:t])) <= SKIP_TOL
                continue
            assert lp == t + 1
            pivot = z[t, i]
            assert abs(pivot) > SKIP_TOL
            col[t] = -np.vdot(z[:t, i], col[:t]) / np.conj(pivot)
            t += 1
        deficit = 1.0 - float(np.sum(np.abs(col[:t]) ** 2))
        if abs(deficit) > SKIP_TOL:
            assert 0 < deficit and t < m
            col[t] = np.sqrt(deficit)
            t += 1
        z[:, j] = col
        lengths.append(t)
    return z


def test_column_order_interleaves_low_and_high_outcomes():
    assert column_order(8) == (0, 4, 1, 5, 2, 6, 3, 7)
    assert column_order(2) == (0, 1)
    for m in POWERS:
        assert sorted(column_order(m)) == list(range(m))


def test_closed_form_matches_reference_matrix_entrywise():
    z = build_extension_closed(8).Z
    np.testing.assert_allclose(z, _reference_z8(), atol=1e-12)


@pytest.mark.parametrize("m", [2, 4, 8, 64, 256])
def test_closed_form_matches_the_per_column_loop_exactly(m):
    expected = np.stack(
        [_closed_form_column_loop(m, k) for k in column_order(m)], axis=1
    )
    assert np.array_equal(build_extension_closed(m).Z, expected)
    for k in (0, m // 2 - 1, m // 2, m - 1):
        assert np.array_equal(closed_form_column(m, k), _closed_form_column_loop(m, k))


@pytest.mark.parametrize("m", [2, 4, 8, 16, 64, 256, 1024])
def test_closed_form_matches_the_row_pair_loop_bit_for_bit(m):
    assert _same_bits(build_extension_closed(m).Z, _closed_form_columns_loop(m, column_order(m)))
    for k in (0, 1, m // 2 - 1, m // 2, m - 1):
        assert _same_bits(closed_form_column(m, k), _closed_form_columns_loop(m, [k])[:, 0])


def test_closed_form_column_anchor_entries():
    col0 = closed_form_column(8, 0)
    assert abs(col0[2] - np.sqrt(6.0 / 8.0)) < 1e-15
    col1 = closed_form_column(8, 1)
    assert abs(col1[2] - (-2.0 * np.cos(np.pi / 8.0) / np.sqrt(48.0))) < 1e-15


def test_top_rows_are_the_povm_directions():
    for m in POWERS:
        ext = build_extension_closed(m)
        for k in range(m):
            col = ext.column_for_outcome(k)
            np.testing.assert_allclose(
                col[:2], np.sqrt(2.0 / m) * psi_k(m, k), atol=1e-13
            )


@pytest.mark.parametrize("m", POWERS + [256])
def test_recursive_equals_closed_form(m):
    closed = build_extension_closed(m)
    recursive = build_extension_recursive(m)
    assert np.max(np.abs(closed.Z - recursive.Z)) <= 1e-10
    assert closed.column_order == recursive.column_order


@pytest.mark.parametrize("m", [2, 4, 8, 64, 256])
def test_recursive_matches_the_column_loop(m):
    np.testing.assert_allclose(
        build_extension_recursive(m).Z, _recursive_loop(m), rtol=0, atol=1e-13
    )


def test_recursive_equals_closed_form_at_m1024():
    closed = build_extension_closed(1024).Z
    np.testing.assert_allclose(
        build_extension_recursive(1024).Z, closed, rtol=0, atol=1e-12
    )


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "scale, message",
    [(0.9, "miss"), (1.1, "miss"), (2.0, "pivot"), (float("nan"), "miss .* nan")],
)
def test_recursive_fails_when_the_top_rows_are_not_orthonormal(
    monkeypatch, scale, message
):
    # X X† = scale² I: no unitary Z has these top rows
    monkeypatch.setattr(naimark, "psi_k", lambda m, k: scale * psi_k(m, k))
    with pytest.raises(RuntimeError, match=message) as info:
        build_extension_recursive(8)
    assert "M=8" in str(info.value)


def test_recursive_rejects_a_non_real_gram_matrix(monkeypatch):
    # a small phase per column keeps Re G complete to 1e-15 but makes
    # Im G about 1e-8; the real factor would drop that part silently
    def tilted(m, k):  # e^{1e-8 i k} times psi_k, for one index or an array of them
        return np.exp(1e-8j * np.asarray(k))[..., None] * psi_k(m, k)

    monkeypatch.setattr(naimark, "psi_k", tilted)
    with pytest.raises(RuntimeError, match=r"M=8: I - X†X has imaginary parts up to 1\.6\d+e-08"):
        build_extension_recursive(8)


@pytest.mark.parametrize("m", [2, 8, 256])
def test_recursive_extension_is_real_below_the_top_rows(m):
    z = build_extension_recursive(m).Z
    assert np.all(z[2:].imag == 0.0)


def dense_unitarity(z):
    """max(|Z†Z - I|, |ZZ† - I|) from the two dense products; np.maximum keeps a NaN."""
    eye = np.eye(len(z))
    return np.maximum(np.max(np.abs(z.conj().T @ z - eye)), np.max(np.abs(z @ z.conj().T - eye)))


@pytest.mark.parametrize("build", [build_extension_closed, build_extension_recursive])
@pytest.mark.parametrize("m", [2, 8, 64])
def test_gram_residuals_equal_a_fresh_computation(build, m):
    ext = build(m)
    gram = ext.Z.conj().T @ ext.Z
    checks = _naimark_checks(ext, SEED)[0]
    # the column sums round differently from the dense product's diagonal
    norms = np.max(np.abs(np.diag(gram).real - 1.0))
    np.testing.assert_allclose(checks["norms"], norms, rtol=0, atol=1e-13)
    assert checks["norms"] == verify_naimark(ext, seed=SEED)["norms"]
    assert checks["orthogonality"] == eliminate(ext)[2]


@pytest.mark.parametrize("build", [build_extension_closed, build_extension_recursive])
@pytest.mark.parametrize("m", [2, 8, 64])
def test_naimark_checks_against_the_dense_products(build, m):
    ext = build(m)
    z = ext.Z
    gram = z.conj().T @ z
    checks = _naimark_checks(ext, SEED)[0]
    off_diagonal = np.max(np.abs(gram - np.diag(np.diag(gram))))
    assert off_diagonal <= checks["orthogonality"] <= 1e-12
    assert dense_unitarity(z) <= checks["unitarity"] == checks["orthogonality"]


@st.composite
def perturbed_closed_z(draw):
    """The closed Z at M = 2 ... 64 with one change.

    One entry scaled, shifted, NaN or infinite, or one column scaled.
    """
    m = 2 ** draw(st.integers(1, 6))
    z = build_extension_closed(m).Z.copy()
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    size = st.floats(-1.0, 1.0)
    kind = draw(st.sampled_from(["entry_scaled", "entry_shifted", "column_scaled", "special"]))
    if kind == "entry_scaled":
        z[i, j] *= 1.0 + draw(size)
    elif kind == "entry_shifted":
        z[i, j] += complex(draw(size), draw(size))
    elif kind == "column_scaled":
        z[:, j] *= 1.0 + draw(size)
    else:
        z[i, j] = draw(st.sampled_from([np.nan, complex(0.0, np.nan), np.inf, -np.inf]))
    return z


@settings(max_examples=200, deadline=None)
@given(z=perturbed_closed_z())
@example(z=build_extension_closed(16).Z.copy())
def test_the_certified_unitarity_is_never_below_the_dense_residual(z):
    ext = dataclasses.replace(build_extension_closed(len(z)), Z=z)
    # an infinite entry meets a zero in the sweep's rotations and the products
    with np.errstate(invalid="ignore"):
        checks, _, residual = _naimark_checks(ext, SEED)
        dense = dense_unitarity(z)
    reported = checks["unitarity"]
    if np.isnan(z).any():  # NaN in, NaN out
        assert np.isnan(reported) and np.isnan(checks["orthogonality"])
    elif np.isfinite(z).all():
        assert reported >= dense
    else:  # an infinite entry: NaN or inf, which fails at any tolerance
        assert not reported <= 1e300
    # the bound is at least twice the sweep's own identity miss
    assert not checks["orthogonality"] < 2 * residual


def test_extension_matrix_is_read_only_and_not_copied():
    z = build_extension_closed(8).Z.copy()
    ext = ExtensionMatrix(Z=z)
    assert ext.Z is z
    with pytest.raises(ValueError, match="read-only"):
        ext.Z[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        ext.column_for_outcome(3)[0] = 1.0


def test_extension_size_and_column_order_follow_z():
    # M and column_order are read off Z, so a replaced Z carries its own
    ext = dataclasses.replace(build_extension_closed(8), Z=build_extension_closed(16).Z.copy())
    assert ext.M == 16
    assert ext.column_order == column_order(16)
    assert [f.name for f in dataclasses.fields(ExtensionMatrix)] == ["Z"]


@pytest.mark.parametrize("m", POWERS)
def test_extension_is_unitary(m):
    z = build_extension_closed(m).Z
    np.testing.assert_allclose(z.conj().T @ z, np.eye(m), atol=1e-12)
    np.testing.assert_allclose(z @ z.conj().T, np.eye(m), atol=1e-12)


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_projectors_orthogonal_idempotent_and_reduce_to_povm(m):
    ext = build_extension_closed(m)
    projs = [projector(ext, k) for k in range(m)]
    for k in range(m):
        np.testing.assert_allclose(projs[k] @ projs[k], projs[k], atol=1e-12)
        block = partial_trace_ancilla(projs[k])
        np.testing.assert_allclose(block, povm_element(m, k), atol=1e-12)
        for l in range(k + 1, m):
            assert np.max(np.abs(projs[k] @ projs[l])) <= 1e-12
    total = sum(projs)
    np.testing.assert_allclose(total, np.eye(m), atol=1e-12)


@pytest.mark.parametrize("bad", [2.7, -0.5, "3", 8, -1])
def test_projector_refuses_a_bad_outcome_index(bad):
    # a float index used to be truncated, so 2.7 read outcome 2
    with pytest.raises(ValueError, match="outcome index"):
        projector(build_extension_closed(8), bad)


def test_embed_with_ancilla_places_state_in_first_block():
    rng = np.random.default_rng(SEED)
    rho = random_density(rng)
    lifted = embed_with_ancilla(8, rho)
    assert lifted.shape == (8, 8)
    np.testing.assert_allclose(lifted[:2, :2], rho)
    assert np.max(np.abs(lifted[2:, :])) == 0.0
    assert abs(np.trace(lifted) - 1.0) < 1e-12


def _passes(report, tol=1e-10):
    return all(value <= tol for value in report.values())


def test_verify_naimark_reports_tiny_residuals_for_good_extensions():
    for m in (2, 8, 32):
        report = verify_naimark(build_extension_closed(m), seed=SEED)
        # in the order that verify writes them under "checks"
        assert list(report) == ["norms", "povm_blocks", "probability_constraint"]
        assert all(type(value) is float for value in report.values())
        assert _passes(report)


def test_verify_naimark_flags_a_broken_matrix():
    ext = build_extension_closed(8)
    z = ext.Z.copy()
    z[:, 3] *= 1.5  # break one column norm
    broken = dataclasses.replace(ext, Z=z)
    report = verify_naimark(broken, seed=SEED)
    assert not _passes(report)
    assert report["norms"] > 0.1


@pytest.mark.parametrize("row", [0, 1, 5])
def test_verify_naimark_fails_on_a_nan_entry(row):
    # a NaN residual must fail the report, whichever rows the checks read
    ext = build_extension_closed(8)
    z = ext.Z.copy()
    z[row, 3] = np.nan
    report = verify_naimark(dataclasses.replace(ext, Z=z), seed=SEED)
    assert not _passes(report)
    assert np.isnan(report["norms"])
    if row < 2:
        assert np.isnan(report["povm_blocks"])
        assert np.isnan(report["probability_constraint"])


def test_probability_check_equals_the_dense_lifted_trace():
    # a non-unitary Z with every row filled: the shortcut may read only
    # rows 0 and 1, the dense trace z_j† (|e1><e1| x rho) z_j reads all
    m, seed = 16, SEED
    rng = np.random.default_rng(SEED + 1)
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    assert np.all(np.abs(z[2:]) > 0)
    ext = dataclasses.replace(build_extension_closed(m), Z=z)
    report = verify_naimark(ext, seed=seed)

    states = np.random.default_rng(seed)
    expected = 0.0
    for _ in range(NUM_STATES):
        rho = random_density(states)
        lifted = embed_with_ancilla(m, rho)
        for j, k in enumerate(ext.column_order):
            extended = (z[:, j].conj() @ lifted @ z[:, j]).real
            direct = np.trace(povm_element(m, k) @ rho).real
            expected = max(expected, abs(direct - extended))
    assert abs(report["probability_constraint"] - expected) <= 1e-12
    assert expected > 1e-3  # the broken Z is visible to the check


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("m", [2, 16, 256])
def test_probability_constraint_reads_the_outcome_distribution_bit_for_bit(m, seed):
    # Tr[Pi_k rho] has one formula, povm.outcome_distribution's, in column order
    ext = build_extension_closed(m)
    rhos = random_states(seed)
    direct = outcome_distribution(phase_povm(m), rhos).probabilities[:, list(column_order(m))]
    expected = max_gap(direct, click_probabilities(ext.Z[:2].T.conj(), rhos))
    got = verify_naimark(ext, seed=seed)["probability_constraint"]
    assert np.float64(got).view(np.int64) == np.float64(expected).view(np.int64)


def test_random_states_are_the_seeded_random_densities():
    states = random_states(5)
    assert states.shape == (NUM_STATES, 2, 2)
    rng = np.random.default_rng(5)
    for rho in states:
        assert np.array_equal(rho, random_density(rng))


def test_verify_naimark_probability_check_depends_on_seed_only_in_states():
    ext = build_extension_closed(8)
    a = verify_naimark(ext, seed=1)
    b = verify_naimark(ext, seed=1)
    assert a == b  # bitwise reproducible


def test_json_and_csv_exports_round_trip_the_entries():
    ext = build_extension_closed(4)
    d = json.loads(_written(write_extension_json, ext))
    assert d["M"] == 4
    assert d["column_order"] == [0, 2, 1, 3]
    rebuilt = np.array(
        [[complex(re, im) for re, im in row] for row in d["matrix"]]
    )
    np.testing.assert_allclose(rebuilt, ext.Z)

    csv = _written(write_extension_csv, ext)
    lines = csv.strip().split("\n")
    assert lines[0].startswith("col0_re,col0_im")
    assert len(lines) == 5  # header + 4 rows
    first = [float(x) for x in lines[1].split(",")]
    assert abs(first[0] - ext.Z[0, 0].real) < 1e-15


@pytest.mark.parametrize("m", [2, 4, 8, 64])
@pytest.mark.parametrize("build", [build_extension_closed, build_extension_recursive])
def test_writers_equal_the_reference_encodings(build, m):
    ext = build(m)
    expected = json.dumps(extension_to_json_dict(ext), indent=2) + "\n"
    assert _written(write_extension_json, ext) == expected
    assert _written(write_extension_csv, ext) == extension_to_csv(ext)


def test_writers_keep_signed_zeros_and_non_finite_entries():
    ext = build_extension_closed(8)
    z = ext.Z.copy()
    z[0, :6] = [-0.0, complex(0.0, -0.0), np.nan, np.inf, -np.inf, complex(1e16, 1e-5)]
    broken = ExtensionMatrix(Z=z)
    json_text = _written(write_extension_json, broken)
    assert json_text == json.dumps(extension_to_json_dict(broken), indent=2) + "\n"
    assert "-0.0" in json_text and "NaN" in json_text and "-Infinity" in json_text
    assert _written(write_extension_csv, broken) == extension_to_csv(broken)


def test_extend_files_equal_the_reference_encodings(tmp_path, capsys):
    ext = {"closed": build_extension_closed(64), "recursive": build_extension_recursive(64)}
    assert main(["extend", "--M", "64", "--out", str(tmp_path / "e.json")]) == 0
    assert main(["extend", "--M", "64", "--format", "csv", "--out", str(tmp_path / "e.csv")]) == 0
    capsys.readouterr()
    for name, e in ext.items():
        written = (tmp_path / f"e_{name}.json").read_text(encoding="utf-8")
        assert written == json.dumps(extension_to_json_dict(e), indent=2) + "\n"
        written = (tmp_path / f"e_{name}.csv").read_text(encoding="utf-8")
        assert written == extension_to_csv(e)


@pytest.mark.parametrize("bad", [0, 1, 3, 12])
def test_builders_reject_bad_outcome_counts(bad):
    with pytest.raises(ValueError):
        build_extension_closed(bad)
    with pytest.raises(ValueError):
        build_extension_recursive(bad)
