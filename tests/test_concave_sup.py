"""The one concave-sup kernel: `numerics.golden_max` (golden section, one row
per bracket) under `genfun.conjugate_profile`, `legendre`, `biconjugate` and
`overline_phi`.

The scalar code the kernel replaced is kept here as the reference: one
golden-section loop per bracket and one grid scan per u. Every value, argmax
and flag must keep its bits (compared by repr), and every row must end where
it ends alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khinchine import genfun
from khinchine.distributions import Distribution
from khinchine.genfun import (biconjugate, conjugate_profile, legendre, orlicz_n,
                              overline_phi, phi_natural, phi_power, phi_subgaussian,
                              phi_tabulated, tail_envelope)
from khinchine.numerics import GOLDEN, geometric_grid, golden_max

FAMILIES = {
    "subgaussian": phi_subgaussian(),
    "rademacher": phi_natural(Distribution.rademacher()),
    "poisson": phi_natural(Distribution.centered_poisson(1.0)),
    "power3": phi_power(3.0),
    "power1.5": phi_power(1.5),
    "tabulated": phi_tabulated([0.0, 0.5, 1.0, 2.0], [0.0, 0.2, 0.6, 2.0]),
}
# 0 and 404 knots from 1e-9 to 1e4: ln cosh is unbounded past u = 1, the
# tabulated phi ends on its boundary past slope 1.4, and power 1.5 needs the
# grid extended (its maximizer is u^2)
U = np.concatenate([[0.0], np.geomspace(1e-9, 1e4, 404)])


# ---------------------------------------------------------------------------
# reference: the scalar code
# ---------------------------------------------------------------------------

def scalar_golden_max(f, lo, hi, tol=1e-12, max_iter=400):
    a, b = float(lo), float(hi)
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    it = 0
    while (b - a) > tol * max(1.0, abs(a), abs(b)) and it < max_iter:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
        it += 1
    cand = [(a, f(a)), (x1, f1), (x2, f2), (b, f(b))]
    best = max(cand, key=lambda t: (t[1], -t[0]))
    return best[0], best[1]


def scalar_legendre(phi, u):
    """(value, argmax, boundary, unbounded) of the scalar transform."""
    u = float(u)
    if u == 0.0:
        return 0.0, 0.0, False, False
    hi = genfun.LEGENDRE_GRID_HI
    while True:
        top = hi if phi.lambda0 == math.inf else min(hi, phi.lambda0 * (1 - 1e-12))
        grid = np.concatenate([[0.0], geometric_grid(genfun.LEGENDRE_GRID_LO, top)])
        with np.errstate(over="ignore", invalid="ignore"):
            g = grid * u - phi(grid)
        g = np.where(np.isnan(g), -np.inf, g)
        i = int(np.argmax(g))
        at_end = i == grid.size - 1
        if at_end and phi.lambda0 == math.inf and hi < genfun.LEGENDRE_EXTEND_CAP:
            hi *= 100.0
            continue
        break
    if at_end:
        if phi.lambda0 == math.inf:
            return math.inf, math.inf, False, True
        return max(float(g[-1]), 0.0), float(grid[-1]), True, False
    lo = grid[i - 1] if i > 0 else 0.0
    arg, val = scalar_golden_max(lambda lam: lam * u - float(phi(lam)), lo, grid[i + 1])
    if val <= 0.0:
        return 0.0, 0.0, False, False
    return float(val), float(arg), False, False


def scalar_biconjugate(phi, lam):
    lam = abs(float(lam))
    if lam == 0.0:
        return 0.0

    def neg_obj(u):
        return lam * u - scalar_legendre(phi, u)[0]

    grid = np.concatenate([[0.0], geometric_grid(1e-6, 1e6)])
    vals = np.array([neg_obj(float(u)) for u in grid])
    vals = np.where(np.isnan(vals), -np.inf, vals)
    i = int(np.argmax(vals))
    if i == grid.size - 1:
        return float(vals[-1])
    lo = grid[i - 1] if i > 0 else 0.0
    arg, val = scalar_golden_max(neg_obj, lo, grid[i + 1], tol=1e-10)
    return max(float(val), 0.0)


def scalar_overline_phi(phi, lam, n_cap=1_000_000):
    lam = abs(float(lam))
    if lam == 0.0:
        return 0.0

    def h(t):
        return t * float(phi(lam / math.sqrt(t)))

    grid = np.unique(np.concatenate([[1.0], geometric_grid(1.0, float(n_cap), 64)]))
    vals = np.array([h(float(t)) for t in grid])
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    t_star, _ = scalar_golden_max(h, lo, hi, tol=1e-10)
    lo_n = max(1, int(math.floor(t_star)) - 64)
    hi_n = min(n_cap, int(math.ceil(t_star)) + 64)
    cands = set(range(lo_n, hi_n + 1)) | {1, n_cap}
    return max(h(float(n)) for n in sorted(cands))


def scalar_fenchel_young_gap(knots, values, phi):
    lam = np.concatenate([[0.0], geometric_grid(1e-4, 1e2)])
    lam = lam[lam < phi.lambda0]
    phil = phi(lam)
    worst = -math.inf
    for u, fv in zip(knots, values):
        if math.isfinite(fv):
            worst = max(worst, float(np.max(lam * u - (phil + fv))))
    return worst


@pytest.fixture(scope="module")
def scalar_profiles():
    return {name: [scalar_legendre(phi, u) for u in U] for name, phi in FAMILIES.items()}


# ---------------------------------------------------------------------------
# bit-for-bit gates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", FAMILIES)
def test_conjugate_profile_is_bitwise_the_scalar_transform(name, scalar_profiles):
    phi, ref = FAMILIES[name], scalar_profiles[name]
    prof = conjugate_profile(phi, U)
    got = list(zip(prof.values.tolist(), prof.lambda_argmax.tolist(),
                   prof.boundary.tolist(), prof.unbounded.tolist()))
    assert repr(got) == repr(ref)
    gap = prof.validate(phi)["fenchel_young_max_gap"]
    assert repr(gap) == repr(scalar_fenchel_young_gap(U, prof.values.tolist(), phi))
    if name == "rademacher":
        assert prof.unbounded.any()
    if name == "tabulated":
        assert prof.boundary.any()


@pytest.mark.parametrize("name", FAMILIES)
def test_legendre_is_the_one_knot_profile(name, scalar_profiles):
    phi, ref = FAMILIES[name], scalar_profiles[name]
    for j in range(0, U.size, 9):
        r = legendre(phi, float(U[j]))
        assert repr((r.value, r.argmax, r.boundary, r.unbounded)) == repr(ref[j])
        val = ref[j][0]
        orlicz = math.inf if val > genfun.OVERFLOW_EXPONENT else math.expm1(val)
        assert repr(orlicz_n(phi, float(U[j]))) == repr(orlicz)
        star = scalar_legendre(phi, float(U[j]) / 1.3)[0]
        tail = math.exp(-star) if math.isfinite(star) else 0.0
        assert repr(tail_envelope(phi, 1.3, float(U[j]))) == repr(tail)


@pytest.mark.parametrize("name,lam", [("subgaussian", 3.0), ("rademacher", 1.5),
                                      ("poisson", 2.0)])
def test_biconjugate_is_bitwise_the_scalar_code(name, lam):
    phi = FAMILIES[name]
    assert repr(biconjugate(phi, lam)) == repr(scalar_biconjugate(phi, lam))


@pytest.mark.parametrize("name", FAMILIES)
def test_overline_is_bitwise_the_scalar_code(name):
    phi = FAMILIES[name]
    for lam in (0.05, 0.3, 1.0, 1.9, 4.0, 12.0):
        if lam < phi.lambda0:
            assert repr(overline_phi(phi, lam)) == repr(scalar_overline_phi(phi, lam))


def test_golden_rows_end_where_they_end_alone():
    # brackets of every scale stop after different numbers of steps; plateaus
    # (min(x, c)) and a constant make the final pick break ties
    c = np.array([0.3, 2e-7, 5e5, 1.0, 0.25, 7.0])
    lo = np.array([0.0, 0.0, 1e5, 0.5, 0.0, 3.0])
    hi = np.array([1.0, 1e-6, 1e6, 4.0, 1.0, 11.0])
    kind = np.array([0, 0, 0, 1, 1, 2])

    def f(x, rows):
        k, cc = kind[rows], c[rows]
        return np.where(k == 0, -(x - cc) ** 2, np.where(k == 1, np.minimum(x, cc), 1.0))

    for tol, max_iter in ((1e-12, 400), (1e-10, 400), (1e-12, 20)):
        arg, val = golden_max(f, lo, hi, tol=tol, max_iter=max_iter)
        for r in range(c.size):
            one = golden_max(lambda x, rows: f(x, np.full(x.size, r)), lo[r], hi[r],
                             tol=tol, max_iter=max_iter)
            ref = scalar_golden_max(lambda x: float(f(np.array([x]), np.array([r]))[0]),
                                    lo[r], hi[r], tol=tol, max_iter=max_iter)
            assert repr((arg[r], val[r])) == repr((one[0][0], one[1][0]))
            assert repr((float(arg[r]), float(val[r]))) == repr(ref)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

LAWS = [Distribution.rademacher(), Distribution.gaussian(0.7),
        Distribution.centered_poisson(1.0), Distribution.symmetrized_poisson(0.5),
        Distribution.uniform_symmetric(1.0)]


@st.composite
def any_phi(draw):
    kind = draw(st.sampled_from(["subgaussian", "power", "natural", "tabulated"]))
    if kind == "subgaussian":
        return phi_subgaussian()
    if kind == "power":
        return phi_power(draw(st.floats(1.0, 4.0)))
    if kind == "natural":
        return phi_natural(draw(st.sampled_from(LAWS)))
    return FAMILIES["tabulated"]


@st.composite
def convex_phi(draw):
    kind = draw(st.sampled_from(["subgaussian", "power", "natural"]))
    if kind == "subgaussian":
        return phi_subgaussian()
    if kind == "power":
        return phi_power(draw(st.floats(2.0, 4.0)))
    return phi_natural(draw(st.sampled_from(LAWS)))


@settings(max_examples=60, deadline=None)
@given(any_phi(), st.floats(0.0, 30.0), st.floats(0.0, 1.0))
def test_fenchel_young_inequality(phi, u, t):
    lam = t * min(phi.lambda0 * (1 - 1e-12), 20.0)
    star = legendre(phi, u).value
    assert lam * u <= float(phi(lam)) + star + 1e-9


@settings(max_examples=12, deadline=None)
@given(convex_phi(), st.floats(0.0, 3.0))
def test_biconjugate_recovers_convex_phi(phi, lam):
    assert biconjugate(phi, lam) == pytest.approx(float(phi(lam)), rel=1e-6, abs=1e-9)
