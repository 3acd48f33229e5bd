"""Tests for the Givens-rotation factorization of the extension unitary."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasepovm.compiler import (
    BOOTSTRAP,
    GivensRotation,
    Netlist,
    PhaseShift,
    _apply_element,
    apply_netlist,
    canonical_angle,
    decompose_by_elimination,
    decompose_closed,
    eliminate,
    evaluate_netlist,
    netlist_from_json_dict,
    netlist_to_json_dict,
    netlists_equal,
    triplet_angle,
)
from phasepovm.naimark import build_extension_closed, build_extension_recursive
from phasepovm.numerics import identity_gap

SEED = 20240811
POWERS = [2, 4, 8, 16, 32, 64]


def _reference_netlist_8():
    """The 11-element factorization for M=8, written out by hand.

    Bootstrap pair, then one (ladder, ladder, mixer) triplet per block:
    ladder angles arctan sqrt(3), arctan sqrt(2), arctan 1, mixer angle
    always pi + pi/8. Listed in application order.
    """
    t3, t2, t1 = np.arctan(np.sqrt(3.0)), np.arctan(np.sqrt(2.0)), np.pi / 4.0
    mix = np.pi + np.pi / 8.0
    return Netlist(
        M=8,
        elements=(
            GivensRotation(1, 2, np.pi / 4.0),
            PhaseShift(2, np.pi / 2.0),
            GivensRotation(1, 3, t3),
            GivensRotation(2, 4, t3),
            GivensRotation(3, 4, mix),
            GivensRotation(3, 5, t2),
            GivensRotation(4, 6, t2),
            GivensRotation(5, 6, mix),
            GivensRotation(5, 7, t1),
            GivensRotation(6, 8, t1),
            GivensRotation(7, 8, mix),
        ),
    )


def givens_matrix(m, g):
    """Reference: a plane rotation embedded into an M x M identity."""
    a = np.eye(m, dtype=complex)
    _apply_element(a, g)
    return a


def phase_matrix(m, s):
    """Reference: a single-mode phase shift embedded into an M x M identity."""
    a = np.eye(m, dtype=complex)
    _apply_element(a, s)
    return a


def test_givens_matrix_embeds_plane_rotation():
    g = givens_matrix(4, GivensRotation(2, 4, 0.3))
    c, s = np.cos(0.3), np.sin(0.3)
    expected = np.eye(4, dtype=complex)
    expected[1, 1], expected[1, 3] = c, s
    expected[3, 1], expected[3, 3] = -s, c
    np.testing.assert_allclose(g, expected)
    assert np.max(np.abs(g @ g.T.conj() - np.eye(4))) < 1e-15


def test_phase_matrix_applies_conjugate_phase():
    p = phase_matrix(3, PhaseShift(2, np.pi / 2.0))
    expected = np.diag([1.0, np.exp(-1j * np.pi / 2.0), 1.0])
    np.testing.assert_allclose(p, expected)


def test_element_index_validation():
    with pytest.raises(ValueError):
        GivensRotation(3, 3, 0.1)
    with pytest.raises(ValueError):
        GivensRotation(0, 2, 0.1)
    with pytest.raises(ValueError):
        PhaseShift(0, 0.1)
    with pytest.raises(ValueError):
        Netlist(M=2, elements=(GivensRotation(1, 3, 0.1),))
    for m in (0, -3):
        with pytest.raises(ValueError, match=f"M must be >= 1, got M={m}"):
            Netlist(M=m, elements=())


@pytest.mark.parametrize(
    "m,k,expected",
    [
        (8, 0, np.arctan(np.sqrt(3.0))),
        (8, 1, np.arctan(np.sqrt(2.0))),
        (8, 2, np.pi / 4.0),
        (4, 0, np.pi / 4.0),
    ],
)
def test_triplet_angle_values(m, k, expected):
    assert abs(triplet_angle(m, k) - expected) < 1e-15


def test_decompose_closed_m8_matches_reference_element_for_element():
    got = decompose_closed(8)
    ref = _reference_netlist_8()
    assert len(got.elements) == len(ref.elements)
    for a, b in zip(got.elements, ref.elements):
        assert type(a) is type(b)
        if isinstance(a, GivensRotation):
            assert (a.u, a.v) == (b.u, b.v)
            assert abs(canonical_angle(a.omega - b.omega)) < 1e-10
        else:
            assert a.u == b.u
            assert abs(canonical_angle(a.phi - b.phi)) < 1e-10


def test_decompose_closed_m2_is_the_bootstrap_pair():
    net = decompose_closed(2)
    assert len(net.elements) == 2
    assert net.elements[0] == GivensRotation(1, 2, np.pi / 4.0)
    assert net.elements[1] == PhaseShift(2, np.pi / 2.0)


@pytest.mark.parametrize("m", POWERS)
def test_element_count_formula(m):
    net = decompose_closed(m)
    assert len(net.elements) == 2 + 3 * (m // 2 - 1)


@pytest.mark.parametrize("m", POWERS)
def test_netlist_round_trip_inverts_the_extension(m):
    z = build_extension_closed(m).Z
    product = evaluate_netlist(decompose_closed(m))
    np.testing.assert_allclose(product @ z, np.eye(m), atol=1e-9)
    # the netlist product is Z adjoint itself, not merely an inverse
    np.testing.assert_allclose(product, z.conj().T, atol=1e-12)


@pytest.mark.parametrize("m", POWERS)
def test_elimination_reproduces_the_closed_netlist(m):
    ext = build_extension_closed(m)
    elim = decompose_by_elimination(ext)
    assert netlists_equal(decompose_closed(m), elim, tol=1e-10)
    np.testing.assert_allclose(
        evaluate_netlist(elim) @ ext.Z, np.eye(m), atol=1e-9
    )


def _real_top_rows(m):
    """The closed Z after the bootstrap pair: real top rows, so none is emitted."""
    z = build_extension_closed(m).Z.copy()
    for e in BOOTSTRAP:
        _apply_element(z, e)
    return z


@pytest.mark.parametrize("m", [2, 8, 256])
@pytest.mark.parametrize(
    "build", [build_extension_closed, build_extension_recursive, _real_top_rows]
)
def test_elimination_residual_equals_its_netlist_round_trip_bit_for_bit(build, m):
    z = build(m)
    net, residual, bound = eliminate(z)
    assert net == decompose_by_elimination(z)
    assert 2 * residual <= bound <= 1e-12
    assert (net.elements[:2] == BOOTSTRAP) == (build is not _real_top_rows)
    # the same arithmetic on every column: the sweep is the netlist's round trip
    expected = identity_gap(apply_netlist(net, np.array(getattr(z, "Z", z))))
    assert np.float64(residual).view(np.int64) == np.float64(expected).view(np.int64)


def test_elimination_accepts_raw_arrays_and_handles_identity():
    net = decompose_by_elimination(np.eye(6, dtype=complex))
    assert net.elements == ()
    np.testing.assert_allclose(evaluate_netlist(net), np.eye(6))


def test_eliminate_reports_its_residual_and_judges_nothing():
    # 2I emits no rotation and misses the identity by 1 on the diagonal:
    # ||F||_F = 2, so the bound is 2 * 2 + 2^2 plus rounding
    net, residual, bound = eliminate(2.0 * np.eye(4))
    assert net.elements == () and residual == 1.0
    assert 8.0 < bound < 8.0 + 1e-13
    z = np.eye(4, dtype=complex)
    z[2, 1] = np.nan
    assert all(np.isnan(eliminate(z)[1:]))
    for shape in ((3, 5), (3, 3)):
        with pytest.raises(ValueError):
            eliminate(np.eye(*shape))


def test_a_sweep_beyond_the_float64_range_gives_an_infinite_bound_without_a_warning():
    # the rotations stay finite; only the squares of F's 1e200 entries overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        net, residual, bound = eliminate(1e200 * build_extension_closed(8).Z)
    assert len(net.elements) == len(decompose_closed(8).elements)
    assert np.isfinite(residual) and residual > 1e199
    assert bound == np.inf


def test_elimination_refuses_a_unitary_outside_its_schedule():
    # swapped columns stay unitary, but the sweep cannot certify them
    z = build_extension_closed(8).Z[:, [0, 1, 3, 2, 4, 5, 6, 7]]
    assert np.max(np.abs(z.conj().T @ z - np.eye(8))) <= 1e-15
    assert eliminate(z)[2] > 1.0
    with pytest.raises(ValueError, match="not unitary within"):
        decompose_by_elimination(z)


def test_elimination_rejects_non_unitary_input():
    with pytest.raises(ValueError):
        decompose_by_elimination(2.0 * np.eye(4))
    with pytest.raises(ValueError):
        decompose_by_elimination(np.ones((3, 5)))


def test_elimination_rejects_non_finite_input():
    z = np.eye(4, dtype=complex)
    z[2, 1] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="unitary"):
            decompose_by_elimination(np.full((4, 4), np.nan, dtype=complex))
        with pytest.raises(ValueError, match="unitary"):
            decompose_by_elimination(z)


def test_elimination_of_random_interleaved_unitaries_only_contract_cases():
    # the elimination schedule targets this family's sparsity pattern;
    # every power-of-two extension is in contract
    for m in (2, 4, 16):
        ext = build_extension_closed(m)
        elim = decompose_by_elimination(ext)
        residual = np.max(np.abs(evaluate_netlist(elim) @ ext.Z - np.eye(m)))
        assert residual <= 1e-9


def test_canonical_angle_reduces_modulo_two_pi():
    assert abs(canonical_angle(2.0 * np.pi) - 0.0) < 1e-15
    assert abs(canonical_angle(np.pi + np.pi / 8.0) - (np.pi / 8.0 - np.pi)) < 1e-12
    assert abs(canonical_angle(-np.pi) - np.pi) < 1e-15
    for a in np.linspace(-20.0, 20.0, 101):
        w = canonical_angle(a)
        assert -np.pi < w <= np.pi + 1e-15
        assert abs(np.exp(1j * w) - np.exp(1j * a)) < 1e-12


def test_netlists_equal_tolerates_two_pi_and_flags_real_differences():
    a = Netlist(M=2, elements=(GivensRotation(1, 2, np.pi + np.pi / 8.0),))
    b = Netlist(M=2, elements=(GivensRotation(1, 2, np.pi / 8.0 - np.pi),))
    assert netlists_equal(a, b)
    c = Netlist(M=2, elements=(GivensRotation(1, 2, np.pi / 8.0),))
    assert not netlists_equal(a, c)
    d = Netlist(M=2, elements=(PhaseShift(1, np.pi),))
    assert not netlists_equal(a, d)
    assert not netlists_equal(a, Netlist(M=2, elements=()))
    # abs(nan) > tol is False, so a NaN angle must be caught explicitly
    net = decompose_closed(8)
    nan_net = Netlist(
        M=8,
        elements=tuple(
            GivensRotation(e.u, e.v, float("nan"))
            if isinstance(e, GivensRotation)
            else PhaseShift(e.u, float("nan"))
            for e in net.elements
        ),
    )
    assert not netlists_equal(net, nan_net)
    assert not netlists_equal(nan_net, nan_net)
    for bad in (float("nan"), float("inf"), -1e-12):
        with pytest.raises(ValueError, match="tolerance"):
            netlists_equal(net, net, tol=bad)


def _netlists_equal_by_kind(a, b, tol):
    """Reference: the comparison written out per element kind."""
    if a.M != b.M or len(a.elements) != len(b.elements):
        return False
    for ea, eb in zip(a.elements, b.elements):
        if type(ea) is not type(eb):
            return False
        if isinstance(ea, GivensRotation):
            if (ea.u, ea.v) != (eb.u, eb.v):
                return False
            da = canonical_angle(ea.omega - eb.omega)
        else:
            if ea.u != eb.u:
                return False
            da = canonical_angle(ea.phi - eb.phi)
        if not abs(da) <= tol:
            return False
    return True


ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan"), np.pi, -np.pi]),
    st.floats(-10.0, 10.0),
)


@st.composite
def netlist_elements(draw, angle=ANGLES):
    u = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return GivensRotation(u, draw(st.integers(u + 1, 4)), draw(angle))
    return PhaseShift(u, draw(angle))


@st.composite
def netlist_variant(draw, e):
    """``e`` itself, its angle shifted by +-2 pi or redrawn, a new element, or the other kind."""
    key = "omega" if isinstance(e, GivensRotation) else "phi"
    angle = getattr(e, key)
    change = draw(st.sampled_from(["same", "shift", "angle", "element", "kind"]))
    if change == "shift":
        turn = draw(st.sampled_from([2 * np.pi, -2 * np.pi]))
        return dataclasses.replace(e, **{key: angle + turn})
    if change == "angle":
        return dataclasses.replace(e, **{key: draw(ANGLES)})
    if change == "element":
        return draw(netlist_elements(angle=st.just(angle) | ANGLES))
    if change == "kind":
        return PhaseShift(e.u, angle) if key == "omega" else GivensRotation(e.u, e.u + 1, angle)
    return e


@st.composite
def netlist_pairs(draw):
    a = draw(st.lists(netlist_elements(), max_size=6))
    b = [draw(netlist_variant(e)) for e in a]
    if draw(st.integers(0, 4)) == 0:  # mismatched lengths
        b = b[:-1] if b and draw(st.booleans()) else b + [draw(netlist_elements())]
    m_b = draw(st.sampled_from([4, 4, 4, 5]))  # mismatched modes now and then
    return Netlist(M=4, elements=tuple(a)), Netlist(M=m_b, elements=tuple(b))


@settings(max_examples=400, deadline=None)
@given(pair=netlist_pairs(), tol=st.sampled_from([0.0, 1e-15, 1e-10, 0.5]))
def test_netlists_equal_agrees_with_a_per_kind_comparison(pair, tol):
    a, b = pair
    assert netlists_equal(a, b, tol=tol) is _netlists_equal_by_kind(a, b, tol)
    assert netlists_equal(b, a, tol=tol) is _netlists_equal_by_kind(b, a, tol)


def test_netlist_json_schema_round_trip():
    net = decompose_closed(8)
    d = netlist_to_json_dict(net)
    assert d["M"] == 8
    assert d["elements"][0] == {"kind": "givens", "u": 1, "v": 2, "omega": np.pi / 4.0}
    assert d["elements"][1] == {"kind": "phase", "u": 2, "phi": np.pi / 2.0}
    rebuilt = netlist_from_json_dict(d)
    assert netlists_equal(net, rebuilt, tol=0.0 + 1e-15)
    with pytest.raises(ValueError):
        netlist_from_json_dict({"M": 4, "elements": [{"kind": "squeezer", "u": 1}]})


GOOD_GIVENS = {"kind": "givens", "u": 1, "v": 2, "omega": 0.5}
BAD_ENTRIES = [
    {**GOOD_GIVENS, "u": 1.9},
    {**GOOD_GIVENS, "u": True},
    {"kind": "givens", "u": 1, "v": 2},
    {"kind": "phase", "phi": 0.1},
    [1, 2, 0.5],
    {**GOOD_GIVENS, "omega": float("nan")},
    {**GOOD_GIVENS, "omega": float("inf")},
    {"kind": "phase", "u": 2, "phi": -float("inf")},
    {"kind": "phase", "u": 2, "phi": "0.1"},
    {"kind": "phase", "u": 2, "phi": 10**400},
    {**GOOD_GIVENS, "v": 10**400},
]


@pytest.mark.parametrize(
    "d, named",
    [
        ({"M": 4.7, "elements": [GOOD_GIVENS]}, "'M', got 4.7"),
        ({"M": True, "elements": [GOOD_GIVENS]}, "'M', got True"),
        ({"elements": [GOOD_GIVENS]}, "'M', got None"),
        ({"M": 4}, "'elements'"),
        *[({"M": 4, "elements": [GOOD_GIVENS, e]}, f"element 1 {e!r}") for e in BAD_ENTRIES],
        ({"M": 0, "elements": []}, "M must be >= 1, got M=0"),
        ({"M": -3, "elements": []}, "M must be >= 1, got M=-3"),
    ],
)
def test_netlist_from_json_dict_rejects_malformed_input(d, named):
    with pytest.raises(ValueError) as err:
        netlist_from_json_dict(d)
    assert named in str(err.value)


def test_evaluate_netlist_multiplies_in_application_order():
    # W(1,2, pi/2) then S(2, pi/2): first rotate, then phase the result
    net = Netlist(
        M=2,
        elements=(GivensRotation(1, 2, np.pi / 2.0), PhaseShift(2, np.pi / 2.0)),
    )
    u = evaluate_netlist(net)
    expected = np.diag([1.0, np.exp(-1j * np.pi / 2.0)]) @ np.array(
        [[0.0, 1.0], [-1.0, 0.0]]
    )
    np.testing.assert_allclose(u, expected, atol=1e-15)


_ANGLE = st.floats(-2.0 * np.pi, 2.0 * np.pi, allow_nan=False)


@st.composite
def _netlists(draw, angle=_ANGLE, max_m=32):
    m = draw(st.integers(2, max_m))
    rotation = st.tuples(st.integers(1, m - 1), st.integers(1, m - 1), angle).map(
        lambda t: GivensRotation(t[0], t[0] + (t[1] % (m - t[0])) + 1, t[2])
    )
    phase = st.builds(PhaseShift, st.integers(1, m), angle)
    elements = draw(st.lists(st.one_of(rotation, phase), max_size=40))
    return Netlist(M=m, elements=tuple(elements))


# any finite float64, with the signed zeros, the smallest subnormal and the extremes
_JSON_ANGLE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
)
_EXTREME_NETLIST = Netlist(
    M=4096,
    elements=(
        GivensRotation(1, 4096, -0.0),
        PhaseShift(4096, 0.0),
        GivensRotation(4095, 4096, 5e-324),
        PhaseShift(1, -0.0),
        GivensRotation(2, 3, 1e308),
        PhaseShift(7, -1e308),
    ),
)


def _literal_json_dict(n):
    """The netlist JSON with each kind's field names spelled out, independent of the schema table."""
    elements = []
    for e in n.elements:
        if isinstance(e, GivensRotation):
            elements.append({"kind": "givens", "u": e.u, "v": e.v, "omega": float(e.omega)})
        else:
            elements.append({"kind": "phase", "u": e.u, "phi": float(e.phi)})
    return {"M": n.M, "elements": elements}


def _angle_bits(n):
    """Each element's angle as its int64 bit pattern, so -0.0 and 0.0 differ."""
    angles = [e.omega if isinstance(e, GivensRotation) else e.phi for e in n.elements]
    return np.array(angles, dtype=np.float64).view(np.int64).tolist()


@settings(max_examples=200, deadline=None)
@given(_netlists(_JSON_ANGLE, max_m=4096))
@example(_EXTREME_NETLIST)
@example(decompose_closed(256))
def test_netlist_json_round_trip_is_exact(net):
    text = json.dumps(netlist_to_json_dict(net), indent=2)
    assert text == json.dumps(_literal_json_dict(net), indent=2)
    rebuilt = netlist_from_json_dict(json.loads(text))
    assert rebuilt == net
    # == takes -0.0 for 0.0, so each angle's sign bit is compared on its own
    assert _angle_bits(rebuilt) == _angle_bits(net)


@settings(max_examples=60, deadline=None)
@given(_netlists())
def test_evaluate_netlist_equals_product_of_dense_embeddings(net):
    # dense embeddings written out here, independent of the row kernel
    expected = np.eye(net.M, dtype=complex)
    for e in net.elements:
        d = np.eye(net.M, dtype=complex)
        if isinstance(e, GivensRotation):
            i, j = e.u - 1, e.v - 1
            c, s = np.cos(e.omega), np.sin(e.omega)
            d[i, i], d[i, j], d[j, i], d[j, j] = c, s, -s, c
        else:
            d[e.u - 1, e.u - 1] = np.exp(-1j * e.phi)
        expected = d @ expected
    np.testing.assert_allclose(evaluate_netlist(net), expected, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(_netlists(), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_apply_netlist_equals_the_transfer_matrix_product(net, extra, seed):
    # M rows and M + extra columns, applied in place
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(net.M, net.M + extra)) + 1j * rng.normal(size=(net.M, net.M + extra))
    expected = evaluate_netlist(net) @ a
    assert apply_netlist(net, a) is a
    np.testing.assert_allclose(a, expected, rtol=0, atol=1e-12)
    eye = apply_netlist(net, np.eye(net.M, dtype=complex))
    assert np.array_equal(evaluate_netlist(net).view(np.int64), eye.view(np.int64))


def test_apply_netlist_needs_a_complex_array_with_m_rows():
    net = decompose_closed(4)
    for bad in (np.eye(4), np.eye(2, dtype=complex), np.zeros((8, 4), dtype=complex)):
        with pytest.raises(ValueError, match="complex array with 4 rows"):
            apply_netlist(net, bad)
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    np.testing.assert_allclose(apply_netlist(net, v), evaluate_netlist(net)[:, 0], atol=1e-15)


def test_elimination_rejects_a_broken_extension_matrix():
    ext = build_extension_closed(8)
    z = ext.Z.copy()
    z[:, 3] *= 1.5
    with pytest.raises(ValueError, match="not unitary"):
        decompose_by_elimination(dataclasses.replace(ext, Z=z))
    z = ext.Z.copy()  # the broken matrix above is read-only now
    z[0, 0] = np.nan
    with pytest.raises(ValueError, match="not unitary"):
        decompose_by_elimination(dataclasses.replace(ext, Z=z))


@pytest.fixture(scope="module")
def extension_1024():
    return build_extension_closed(1024)


def test_closed_netlist_round_trip_at_m1024(extension_1024):
    residual = evaluate_netlist(decompose_closed(1024)) @ extension_1024.Z - np.eye(1024)
    assert np.max(np.abs(residual)) <= 1e-9


def test_elimination_round_trip_at_m1024(extension_1024):
    elim = decompose_by_elimination(extension_1024)
    residual = evaluate_netlist(elim) @ extension_1024.Z - np.eye(1024)
    assert np.max(np.abs(residual)) <= 1e-9
