"""Shape checks of a tabulated Legendre transform, shared by the genfun and
concave-sup tests."""

import numpy as np

from khinchine.numerics import geometric_grid


def profile_checks(prof, phi, fy_tol: float = 1e-9) -> dict:
    """Monotonicity, convexity and phi*(0) = 0 of a `ConjugateProfile`'s
    values, and the Fenchel-Young inequality on the grid pairs."""
    finite = np.isfinite(prof.values)
    v = prof.values[finite]
    ok_monotone = bool(np.all(np.diff(v) >= -1e-12))
    ok_zero = bool(abs(prof.values[0]) <= 1e-12) if prof.knots[0] == 0.0 else True
    t = prof.knots[finite]
    s = np.diff(v) / np.diff(t)
    ok_convex = bool(np.all(np.diff(s) >= -1e-9 * np.maximum(1.0, np.abs(s[:-1]))))
    lam = np.concatenate([[0.0], geometric_grid(1e-4, 1e2)])
    lam = lam[lam < phi.lambda0]
    gap = lam * t[:, None] - (phi(lam) + v[:, None])  # knots x lambda
    worst = float(np.max(gap, initial=-np.inf))
    return {"monotone": ok_monotone, "zero_at_zero": ok_zero,
            "convex": ok_convex, "fenchel_young_max_gap": worst,
            "fenchel_young_ok": worst <= fy_tol}
