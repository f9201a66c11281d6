"""Scalar algebra: unit table, ring axioms, norms, cone order."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyplab import (
    E1,
    E2,
    ONE,
    UNIT_I,
    UNIT_J,
    UNIT_K,
    Bicomplex,
    DPlus,
    Hyperbolic,
    InvalidInput,
    OrderRel,
    ZeroDivisor,
    bc_inverse,
    bc_mul,
    euclid_norm,
    hyp_abs,
    hyp_compare,
    hyp_leq,
    knorm,
)
from support import bc_from4, close4, componentwise_max, mul4, random_bc, rel_err_c

finite = st.floats(min_value=-1e75, max_value=1e75, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------- unit table

UNITS = {
    "1": ONE,
    "i": UNIT_I,
    "j": UNIT_J,
    "k": UNIT_K,
}

UNIT_T4 = {
    "1": (1.0, 0.0, 0.0, 0.0),
    "i": (0.0, 1.0, 0.0, 0.0),
    "j": (0.0, 0.0, 1.0, 0.0),
    "k": (0.0, 0.0, 0.0, 1.0),
}


def test_unit_table_exact():
    cases = {
        ("i", "i"): (-1.0, 0.0, 0.0, 0.0),
        ("j", "j"): (-1.0, 0.0, 0.0, 0.0),
        ("k", "k"): (1.0, 0.0, 0.0, 0.0),
        ("i", "j"): (0.0, 0.0, 0.0, 1.0),
        ("i", "k"): (0.0, 0.0, -1.0, 0.0),
        ("j", "k"): (0.0, -1.0, 0.0, 0.0),
    }
    for (a, b), expect in cases.items():
        got = bc_mul(UNITS[a], UNITS[b]).to_reals()
        assert got == expect, f"{a}*{b} -> {got}"
        # commutes and matches the independent four-real oracle
        assert bc_mul(UNITS[b], UNITS[a]).to_reals() == expect
        assert mul4(UNIT_T4[a], UNIT_T4[b]) == expect


def test_idempotents_exact():
    assert bc_mul(E1, E1).to_reals() == E1.to_reals()
    assert bc_mul(E2, E2).to_reals() == E2.to_reals()
    assert bc_mul(E1, E2).to_reals() == (0.0, 0.0, 0.0, 0.0)
    assert (E1 + E2).to_reals() == (1.0, 0.0, 0.0, 0.0)
    # e1 = (1+k)/2 and e2 = (1-k)/2 in the four-real view
    assert E1.to_reals() == (0.5, 0.0, 0.0, 0.5)
    assert E2.to_reals() == (0.5, 0.0, 0.0, -0.5)


def test_ik_is_minus_j():
    assert bc_mul(UNIT_I, UNIT_K).to_reals() == (0.0, 0.0, -1.0, 0.0)


def test_product_of_idempotent_multiples():
    z = E1 * 2.0 + E2 * 3.0
    w = E1 * 5.0 + E2 * 7.0
    got = bc_mul(z, w)
    assert got.z1 == 10.0 and got.z2 == 21.0


def test_multiplicative_identity_random():
    rng = np.random.default_rng(101)
    for _ in range(100):
        z = random_bc(rng)
        zw = bc_mul(z, ONE)
        assert zw.z1 == z.z1 and zw.z2 == z.z2


def test_product_matches_four_real_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        z = random_bc(rng)
        w = random_bc(rng)
        got = bc_mul(z, w).to_reals()
        want = mul4(z.to_reals(), w.to_reals())
        assert close4(got, want, 1e-12)


@given(finite, finite, finite, finite, finite, finite)
@settings(max_examples=200)
# y + z cancels here, so the result is far smaller than the rounding error
# of x*y + x*z, which is of the order of |x| (|y| + |z|)
@example(9955450055032844.0, 0.0, 9.998619650720335e74, 0.0, -1e75, 0.0)
def test_ring_axioms_hyperbolic(a1, a2, b1, b2, c1, c2):
    x = Hyperbolic(a1, a2)
    y = Hyperbolic(b1, b2)
    z = Hyperbolic(c1, c2)
    assert (x + y).components() == (y + x).components()
    assert (x * y).components() == (y * x).components()
    lhs = (x * (y + z)).components()
    rhs = (x * y + x * z).components()
    for u, v, xc, yc, zc in zip(lhs, rhs, x.components(), y.components(), z.components()):
        assert abs(u - v) <= 1e-12 * max(1.0, abs(xc) * (abs(yc) + abs(zc)))


# --------------------------------------------------------- cartesian views


def test_from_cartesian_real_scalar():
    z = Bicomplex.from_cartesian(1.0, 0.0)
    assert z.z1 == 1.0 and z.z2 == 1.0


def test_from_cartesian_k():
    z = Bicomplex.from_cartesian(0.0, 1j)
    assert z.z1 == 1.0 and z.z2 == -1.0
    assert z.to_reals() == UNIT_K.to_reals()


def test_cartesian_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        w1 = complex(rng.standard_normal(), rng.standard_normal())
        w2 = complex(rng.standard_normal(), rng.standard_normal())
        z = Bicomplex.from_cartesian(w1, w2)
        got1, got2 = z.to_cartesian()
        assert rel_err_c(got1, w1) < 1e-15
        assert rel_err_c(got2, w2) < 1e-15


def test_cartesian_near_float_limit_stays_finite():
    big = 1.7976931348623157e308
    for z1, z2 in ((big, 1e308), (big, -big), (1j * big, -big), (big + 1j * big, big - 1j * big)):
        w1, w2 = Bicomplex(z1, z2).to_cartesian()
        assert w1 == 0.5 * z1 + 0.5 * z2
        assert w2 == 0.5j * z1 - 0.5j * z2
        assert all(math.isfinite(t) for t in (w1.real, w1.imag, w2.real, w2.imag))


def test_four_real_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(300):
        t = tuple(rng.standard_normal(4))
        assert close4(bc_from4(t).to_reals(), t, 1e-15)


def test_non_finite_rejected():
    with pytest.raises(InvalidInput):
        Bicomplex(complex("nan"), 1.0)
    with pytest.raises(InvalidInput):
        Hyperbolic(math.inf, 0.0)
    with pytest.raises(InvalidInput):
        Bicomplex.from_cartesian(complex(math.inf, 0), 0)


# ----------------------------------------------------------------- inverse


def test_inverse_of_idempotent_multiples():
    got = bc_inverse(Bicomplex(2.0, 4.0))
    assert got.z1 == 0.5 and got.z2 == 0.25


def test_inverse_zero_divisor():
    with pytest.raises(ZeroDivisor):
        bc_inverse(E1)
    with pytest.raises(ZeroDivisor):
        bc_inverse(Bicomplex(0.0, 0.0))


def test_inverse_multiply_back():
    rng = np.random.default_rng(99)
    count = 0
    while count < 1000:
        z = random_bc(rng)
        if abs(z.z1) < 1e-6 or abs(z.z2) < 1e-6:
            continue
        count += 1
        w = bc_mul(z, bc_inverse(z))
        assert abs(w.z1 - 1.0) < 1e-12 and abs(w.z2 - 1.0) < 1e-12


# ------------------------------------------------------------------- norms


def test_knorm_complex_moduli():
    assert knorm(Bicomplex(3 + 4j, -5.0)) == DPlus(5.0, 5.0)


def test_knorm_zero_iff_zero():
    assert knorm(Bicomplex(0.0, 0.0)) == DPlus(0.0, 0.0)
    rng = np.random.default_rng(3)
    for _ in range(200):
        z = random_bc(rng)
        n = knorm(z)
        assert (n.a1 == 0.0 and n.a2 == 0.0) == (z.z1 == 0 and z.z2 == 0)


def test_knorm_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        z = random_bc(rng)
        w = random_bc(rng)
        got = knorm(bc_mul(z, w))
        # componentwise-modulus oracle
        want = (abs(z.z1) * abs(w.z1), abs(z.z2) * abs(w.z2))
        assert abs(got.a1 - want[0]) <= 1e-12 * max(1.0, want[0])
        assert abs(got.a2 - want[1]) <= 1e-12 * max(1.0, want[1])


def test_knorm_triangle_and_scale():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        z = random_bc(rng)
        w = random_bc(rng)
        s = knorm(z + w)
        t = knorm(z) + knorm(w)
        assert s.a1 <= t.a1 + 1e-12 * max(1.0, t.a1)
        assert s.a2 <= t.a2 + 1e-12 * max(1.0, t.a2)
        mu = random_bc(rng)
        lhs = knorm(bc_mul(mu, z))
        rhs = knorm(mu) * knorm(z)
        assert abs(lhs.a1 - rhs.a1) <= 1e-12 * max(1.0, rhs.a1)
        assert abs(lhs.a2 - rhs.a2) <= 1e-12 * max(1.0, rhs.a2)


def test_euclid_norm_unit():
    assert euclid_norm(ONE) == 1.0


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_euclid_norm_outside_the_squaring_range(scale):
    # |z|^2 overflows at 1e200 and underflows to 0 at 1e-200
    got = euclid_norm(Bicomplex(scale, 0))
    assert abs(got - scale * math.sqrt(0.5)) <= 1e-15 * scale


def test_euclid_norm_e1_tight():
    got = euclid_norm(E1)
    assert abs(got - math.sqrt(0.5)) < 1e-15
    # component 1 of knorm(e1) is 1 = sqrt(2) * sqrt(1/2): the bound is tight
    assert knorm(E1).a1 <= math.sqrt(2.0) * got + 1e-12


def test_knorm_le_sqrt2_euclid():
    rng = np.random.default_rng(13)
    for _ in range(10_000):
        z = random_bc(rng)
        bound = math.sqrt(2.0) * euclid_norm(z) + 1e-12
        n = knorm(z)
        assert n.a1 <= bound and n.a2 <= bound


# -------------------------------------------------------------- cone order


def test_compare_examples():
    assert hyp_compare(Hyperbolic(1, 2), Hyperbolic(2, 3)) is OrderRel.LESS
    assert hyp_compare(Hyperbolic(1, 0), Hyperbolic(0, 1)) is OrderRel.INCOMPARABLE
    assert hyp_compare(Hyperbolic(0, 1), Hyperbolic(1, 0)) is OrderRel.INCOMPARABLE
    assert hyp_compare(Hyperbolic(2, 3), Hyperbolic(1, 2)) is OrderRel.GREATER


@given(finite, finite)
def test_compare_reflexive(a1, a2):
    x = Hyperbolic(a1, a2)
    assert hyp_compare(x, x) is OrderRel.EQUAL


def test_compare_consistent_with_cone():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        x = Hyperbolic(*rng.standard_normal(2))
        y = Hyperbolic(*rng.standard_normal(2))
        rel = hyp_compare(x, y)
        d1, d2 = y.a1 - x.a1, y.a2 - x.a2
        up, down = d1 >= 0 and d2 >= 0, d1 <= 0 and d2 <= 0  # y - x, x - y in the cone
        if rel is OrderRel.LESS:
            assert up and (d1 != 0 or d2 != 0)
        elif rel is OrderRel.GREATER:
            assert down and (d1 != 0 or d2 != 0)
        elif rel is OrderRel.INCOMPARABLE:
            assert not up and not down
        else:
            assert d1 == d2 == 0


def test_order_transitive_antisymmetric():
    rng = np.random.default_rng(22)
    for _ in range(2000):
        x, y, z = (Hyperbolic(*rng.standard_normal(2)) for _ in range(3))
        if hyp_leq(x, y) and hyp_leq(y, z):
            assert hyp_leq(x, z)
        if hyp_leq(x, y) and hyp_leq(y, x):
            assert x.components() == y.components()


# ------------------------------------------------------------- abs / cone


def test_hyp_abs_of_k():
    # k has idempotent components (1, -1)
    assert hyp_abs(Hyperbolic(1.0, -1.0)) == DPlus(1.0, 1.0)


def test_hyp_abs_fixes_cone():
    rng = np.random.default_rng(31)
    for _ in range(500):
        a = DPlus(*np.abs(rng.standard_normal(2)))
        assert hyp_abs(a) == a


def test_hyp_abs_even():
    rng = np.random.default_rng(32)
    for _ in range(1000):
        a = Hyperbolic(*rng.standard_normal(2))
        assert hyp_abs(Hyperbolic(-a.a1, -a.a2)) == hyp_abs(a)


def test_dplus_rejects_negative():
    with pytest.raises(InvalidInput):
        DPlus(-0.5, 1.0)


def test_sup_is_least_upper_bound():
    # p* of uniform boundedness is the componentwise maximum of the p_s(x),
    # which is their least upper bound in the cone order
    rng = np.random.default_rng(41)
    for _ in range(300):
        vals = [DPlus(*np.abs(rng.standard_normal(2))) for _ in range(5)]
        sup = componentwise_max(vals)
        for v in vals:
            assert hyp_leq(v, sup)
        # brute-force scan over sampled candidate upper bounds
        for _ in range(20):
            u = DPlus(*np.abs(rng.standard_normal(2) * 2.0))
            if all(hyp_leq(v, u) for v in vals):
                assert hyp_leq(sup, u)
        # sup itself plus any cone perturbation stays an upper bound
        bump = hyp_abs(Hyperbolic(*rng.standard_normal(2)))
        assert hyp_leq(sup, sup + bump)


# --------------------------------------------------------------- misc views


def test_hyperbolic_cartesian_views():
    assert Hyperbolic.from_cartesian(2.0, 1.0).components() == (3.0, 1.0)
    assert Hyperbolic.from_cartesian(0.0, 1.0).components() == (1.0, -1.0)  # k


@given(finite, finite)
def test_hyperbolic_round_trip(b1, b2):
    a1, a2 = Hyperbolic.from_cartesian(b1, b2).components()
    assert abs(0.5 * (a1 + a2) - b1) <= 1e-15 * max(1.0, abs(b1), abs(b2))
    assert abs(0.5 * (a1 - a2) - b2) <= 1e-15 * max(1.0, abs(b1), abs(b2))


def test_bc_scale_embeds_complex_diagonally():
    rng = np.random.default_rng(55)
    z = random_bc(rng)
    c = complex(0.5, -2.0)
    w = c * z
    assert w.z1 == c * z.z1 and w.z2 == c * z.z2
