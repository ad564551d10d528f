"""A textbook twin of every suite's residuals, from np.linalg and the paper's formulas.

For trials 0..19 of the default run at seeds 0 and 1608, the twin rebuilds
each suite's instance from framemult's public generators and the same seeds,
and recomputes every residual and boolean of all eight suites: thm1's, the
four companions', gamma's and theta's (the norm of the correction, its bare
and symbol-weighted annihilation, and the two readings of the certificate)
and equivalence's. It uses only np.linalg (pinv for S^{-1}T and the kernel
projection P, inv, svd, eigvalsh, norm) and the paper's formulas:

    Gamma = U_Phi (M^{-1})* - diag(1/conj m) U_Psi S_Psi^{-1}
    Theta = U_Psi M^{-1} - diag(1/m) U_Phi S_Phi^{-1}

Every dual of Phi has U_{Phi^d} = pinv(T_Phi) + P_Phi W*, so a residual
M^{-1} - L U_{Phi^d} is R0 - K W* with R0 = M^{-1} - L pinv(T_Phi) and
K = L P_Phi; its supremum over ||W|| <= 1 lies in [max(||R0||, ||K||),
||R0|| + ||K||]. Theta is taken in the paper's own form, against the duals
T_{Psi^d} = pinv(T_Psi)* + W P_Psi of the right frame, not through the
adjoint. The probe direction redoes the draw order of the suites' unit-norm
W in numpy.

A companion restores the multiplier after the left frame, the right frame or
the symbol moves: with old and new scaled synthesis matrices T_o = T_Phi
diag(m) and T_n, the companion of Psi is

    T_Psi' = T_Psi (U_o S_n^{-1} T_n + I - U_n S_n^{-1} T_n),

and a moved right frame is the same construction on the adjoint (frames
swapped, symbol conjugated). The twin redoes the frame noise and the symbol
perturbation in numpy, in the draw order of the suites, and takes the
admitted sizes and coefficients from the paper's hypotheses. An AST guard
keeps the twin to framemult's public generators and the run it checks.
"""

import ast
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from framemult import ExperimentConfig, random_frame, random_symbol, riesz_basis, run_suite

TRIALS = 20
SEEDS = (0, 1608)
DIMS = ((2, 5), (3, 7), (4, 9), (5, 11), (6, 13), (7, 15), (8, 17))
REL_EQ, INV_COND = 1e-8, 1e-10
SYMBOL_LO, SYMBOL_HI, RESAMPLE_LIMIT = 0.5, 2.0, 20
AGREEMENT = 1e-12
ALLOWED_IMPORTS = {"ExperimentConfig", "run_suite", "random_frame", "random_symbol", "riesz_basis"}


def _norm(a) -> float:
    return float(np.linalg.norm(a, 2))


def _rule(gap: float, *norms: float) -> float:
    return gap / max(1.0, *norms)


def _quotient(a: float, b: float) -> float:
    """The rule's quotient between the twin's value and the program's."""
    return _rule(abs(a - b), abs(a), abs(b))


def _invertible(t_phi, m, t_psi):
    """M = T_Phi diag(m) U_Psi, or None when sigma_min/sigma_max falls below inv_cond."""
    matrix = (t_phi * m) @ t_psi.conj().T
    s = np.linalg.svd(matrix, compute_uv=False)
    return matrix if s[0] > 0.0 and s[-1] / s[0] >= INV_COND else None


def _frames(seed, trial, d, n):
    return random_frame(d, n, (seed, trial, 0)).synth, random_frame(d, n, (seed, trial, 1)).synth


def _symbol(seed, trial, n):
    return random_symbol(n, SYMBOL_LO, SYMBOL_HI, (seed, trial, 2)).values


def _instance(seed, trial, d, n, zero_entry=False):
    """The trial's invertible (T_Phi, m, T_Psi, M): the symbol is redrawn until M passes.

    With zero_entry, each draw has its first entry set to zero.
    """
    t_phi, t_psi = _frames(seed, trial, d, n)
    for attempt in range(RESAMPLE_LIMIT):
        m = random_symbol(n, SYMBOL_LO, SYMBOL_HI, (seed, trial, 2, attempt)).values
        if zero_entry:
            m = np.concatenate([[0.0], m[1:]])
        matrix = _invertible(t_phi, m, t_psi)
        if matrix is not None:
            return t_phi, m, t_psi, matrix
    raise AssertionError(f"no invertible multiplier at seed {seed}, trial {trial}")


def _probe_direction(seed, trial, shape):
    """A unit-norm complex matrix: one standard-normal draw of the real, then the imaginary, part."""
    draws = np.random.default_rng((seed, trial, 7)).standard_normal((1, 2, *shape))
    w = draws[0, 0] + 1j * draws[0, 1]
    return w / _norm(w)


def _bounds(t):
    """The optimal frame bounds (A, B): the extreme eigenvalues of T T*."""
    spectrum = np.linalg.eigvalsh(t @ t.conj().T)
    return spectrum[0], spectrum[-1]


def _sigma_min(matrix) -> float:
    return float(np.linalg.svd(matrix, compute_uv=False)[-1])


def _kernel(t):
    return np.eye(t.shape[1]) - np.linalg.pinv(t) @ t


def _left_bracket(minv, left, t):
    """(||R0||, ||K||) for M^{-1} - L U_{F^d} over every dual F^d of the frame with synthesis t."""
    return _norm(minv - left @ np.linalg.pinv(t)), _norm(left @ _kernel(t))


def _right_bracket(minv, right, t):
    """(||R0||, ||K||) for M^{-1} - T_{F^d} J over every dual F^d of the frame with synthesis t."""
    return _norm(minv - np.linalg.pinv(t).conj().T @ right), _norm(_kernel(t) @ right)


def _twin_thm1(seed, trial, d, n):
    """thm1's five residuals and six booleans.

    direct is ||M^{-1} - T_{Psi~} diag(1/m) U_{Phi~}||, judged against
    ||M^{-1}|| and the candidate's norm. Conditions i and ii compare
    ||S_Psi^{-1}|| with ||M^{-1} T_{|m| Phi}||^2 and with the upper bound of
    the frame (M^{-1} m_n phi_n); iii and iv are the same with (M^{-1})*,
    Psi and Phi swapped and m conjugated.
    """
    t_phi, m, t_psi, matrix = _instance(seed, trial, d, n)
    minv = np.linalg.inv(matrix)
    inv_norm = 1.0 / np.linalg.svd(matrix, compute_uv=False)[-1]
    candidate = (np.linalg.pinv(t_psi).conj().T / m) @ np.linalg.pinv(t_phi)
    direct = _norm(minv - candidate)

    def conditions(inverse, t_weighted, weights, t_other):
        inv_s = 1.0 / np.linalg.eigvalsh(t_other @ t_other.conj().T)[0]
        norm_bound = _norm(inverse @ (t_weighted * np.abs(weights))) ** 2
        upper_bound = _norm(inverse @ (t_weighted * weights)) ** 2
        return [_rule(abs(inv_s - rhs), inv_s, rhs) for rhs in (norm_bound, upper_bound)]

    cond_i, cond_ii = conditions(minv, t_phi, m, t_psi)
    cond_iii, cond_iv = conditions(minv.conj().T, t_psi, np.conj(m), t_phi)
    residuals = {"direct": direct, "cond_i": cond_i, "cond_ii": cond_ii, "cond_iii": cond_iii, "cond_iv": cond_iv}
    holds = {key: value <= REL_EQ for key, value in residuals.items()}
    holds["direct"] = _rule(direct, inv_norm, _norm(candidate)) <= REL_EQ
    booleans = {"direct_equal": holds.pop("direct"), **holds}
    booleans["consistent"] = all(booleans.values()) or not any(booleans.values())
    return residuals, booleans


def _frame_noise(seed, trial, shape):
    """The suites' unit-norm frame noise: one standard-normal draw of the real, then the imaginary, part."""
    rng = np.random.default_rng((seed, trial, 3))
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return noise / _norm(noise)


def _symbol_noise(m, eps, seed, trial):
    """m + e: e uniform in the unit disc, rescaled so sup|e_n| is a uniform draw from [eps/2, eps]."""
    rng = np.random.default_rng((seed, trial, 4))
    radii = np.sqrt(rng.uniform(0.0, 1.0, m.size))
    angles = rng.uniform(0.0, 2.0 * np.pi, m.size)
    e = radii * np.exp(1j * angles)
    return m + e * (rng.uniform(0.5 * eps, eps) / np.abs(e).max())


def _companion(t_psi, t_old, t_new):
    """T_Psi (U_o S_n^{-1} T_n + I - U_n S_n^{-1} T_n), with S_n^{-1} T_n = pinv(T_n)*."""
    dual = np.linalg.pinv(t_new).conj().T
    return t_psi @ (t_old.conj().T @ dual + np.eye(t_psi.shape[1]) - t_new.conj().T @ dual)


def _companion_report(mu, coef, t_psi, t_companion, m_old, m_new):
    """The residuals and booleans of a companion whose multiplier moved m_old -> m_new."""
    deviation = _norm(t_companion - t_psi)
    gap = _norm(m_new - m_old)
    residuals = {
        "achieved_mu": mu,
        "bound_coefficient": coef,
        "companion_deviation": deviation,
        "multiplier_residual": gap,
    }
    booleans = {
        "invariance_ok": _rule(gap, _norm(m_old), _norm(m_new)) <= REL_EQ,
        "bound_satisfied": deviation <= coef * mu + REL_EQ,
    }
    return residuals, booleans


def _twin_per1(side, seed, trial, d, n):
    """per1 moves Phi by half of sqrt(A_Phi); per1dual moves Psi, as per1 on the adjoint.

    lambda = sup|m| sqrt(B) / (inf|m| (sqrt(A) - mu)), with A of the moved
    frame and B of the other one.
    """
    t_phi, t_psi = _frames(seed, trial, d, n)
    m = _symbol(seed, trial, n)
    moved, other, weights = (t_phi, t_psi, m) if side == "per1" else (t_psi, t_phi, np.conj(m))
    root_a = np.sqrt(_bounds(moved)[0])
    moved_new = moved + _frame_noise(seed, trial, (d, n)) * (0.9 * 0.5 * root_a)
    mu = _norm(moved_new - moved)
    companion = _companion(other, moved * weights, moved_new * weights)
    coef = np.abs(m).max() * np.sqrt(_bounds(other)[1]) / (np.abs(m).min() * (root_a - mu))
    # The multiplier in the paper's orientation, T_Phi diag(m) U_Psi, before and after.
    phi_new, psi_new = (moved_new, companion) if side == "per1" else (companion, moved_new)
    m_old, m_new = (t_phi * m) @ t_psi.conj().T, (phi_new * m) @ psi_new.conj().T
    return _companion_report(mu, coef, other, companion, m_old, m_new)


def _twin_per2(seed, trial, d, n):
    """per2: a zero-entry symbol and mu inside 0.9 / (sqrt(B_Phi) ||M^{-1}|| sup|m|) and sqrt(A_Phi).

    lambda = sup|m| sqrt(B_Psi) / sqrt(A_{m Phi'}); the floor ratio is
    A_{m Phi} B_Phi ||M^{-1}||^2.
    """
    t_phi, m, t_psi, matrix = _instance(seed, trial, d, n, zero_entry=True)
    inv_norm = 1.0 / _sigma_min(matrix)
    a_phi, b_phi = _bounds(t_phi)
    mu_request = min(0.9 / (np.sqrt(b_phi) * inv_norm * np.abs(m).max()), np.sqrt(a_phi))
    t_new = t_phi + _frame_noise(seed, trial, (d, n)) * (0.9 * mu_request)
    old, new = t_phi * m, t_new * m
    companion = _companion(t_psi, old, new)
    coef = np.abs(m).max() * np.sqrt(_bounds(t_psi)[1]) / np.sqrt(_bounds(new)[0])
    mu = _norm(t_new - t_phi)
    residuals, booleans = _companion_report(
        mu, coef, t_psi, companion, old @ t_psi.conj().T, new @ companion.conj().T
    )
    residuals["floor_ratio"] = _bounds(old)[0] * b_phi * inv_norm**2
    booleans["floor_ok"] = residuals["floor_ratio"] >= 1.0 - REL_EQ
    return residuals, booleans


def _twin_per3(seed, trial, d, n):
    """per3 moves the symbol, with the coefficient deviation / eps for eps = sup|m - m'|.

    Even trials move a semi-normalized m by up to half of inf|m|; odd trials
    move a zero-entry m by up to 0.45 sigma_min(M) / B_Phi.
    """
    semi_branch = trial % 2 == 0
    if semi_branch:
        (t_phi, t_psi), m = _frames(seed, trial, d, n), _symbol(seed, trial, n)
        eps_request = 0.5 * np.abs(m).min()
    else:
        t_phi, m, t_psi, matrix = _instance(seed, trial, d, n, zero_entry=True)
        eps_request = 0.45 * _sigma_min(matrix) / _bounds(t_phi)[1]
    m_new = _symbol_noise(m, eps_request, seed, trial)
    eps = np.abs(m - m_new).max()
    old, new = t_phi * m, t_phi * m_new
    companion = _companion(t_psi, old, new)
    residuals, booleans = _companion_report(
        eps, _norm(companion - t_psi) / eps, t_psi, companion, old @ t_psi.conj().T, new @ companion.conj().T
    )
    booleans["semi_branch"] = semi_branch
    return residuals, booleans


def _twin_correction(seed, trial, d, n):
    """The gamma and theta residuals and booleans that the certificate decides."""
    t_phi, m, t_psi, matrix = _instance(seed, trial, d, n)
    minv = np.linalg.inv(matrix)
    inv_norm = 1.0 / np.linalg.svd(matrix, compute_uv=False)[-1]
    gamma = t_phi.conj().T @ minv.conj().T - (1.0 / np.conj(m))[:, None] * np.linalg.pinv(t_psi)
    theta = t_psi.conj().T @ minv - (1.0 / m)[:, None] * np.linalg.pinv(t_phi)
    probe = _probe_direction(seed, trial, gamma.shape) * (1e3 * REL_EQ)

    def gamma_bracket(op):  # M^{-1} = (T_{Psi~} diag(1/m) + op*) U_{Phi^d}
        return _left_bracket(minv, np.linalg.pinv(t_psi).conj().T / m + op.conj().T, t_phi)

    def theta_bracket(op):  # M^{-1} = T_{Psi^d} (diag(1/m) U_{Phi~} + op)
        return _right_bracket(minv, np.linalg.pinv(t_phi) / m[:, None] + op, t_psi)

    sides = {
        "gamma": (gamma, gamma_bracket, t_psi @ gamma, (t_psi * np.conj(m)) @ gamma),
        "theta": (theta, theta_bracket, t_phi @ theta, (t_phi * m) @ theta),
    }
    out = {}
    for side, (op, bracket, bare, masked) in sides.items():
        max_dec = sum(bracket(op))
        breakage = max(bracket(op + probe))
        residuals = {
            "op_norm": _norm(op),
            "annihilation": _norm(bare),
            "masked_annihilation": _norm(masked),
            "max_decomposition": max_dec,
            "probe_breakage": breakage,
        }
        booleans = {
            "decomposition_ok": _rule(max_dec, inv_norm) <= REL_EQ,
            "annihilation_ok": _rule(_norm(bare), inv_norm) <= REL_EQ,
            "masked_annihilation_ok": _rule(_norm(masked), inv_norm) <= REL_EQ,
            "uniqueness_ok": breakage >= 1e2 * REL_EQ,
        }
        out[side] = residuals, booleans
    return out


def _twin_equivalence(seed, trial, d, n):
    """max_formula_residual and the equivalence booleans: positives on even trials, Psi = V(m Phi)."""
    positive = trial % 2 == 0
    if positive:
        t_phi = random_frame(d, n, (seed, trial, 0)).synth
        m = random_symbol(n, SYMBOL_LO, SYMBOL_HI, (seed, trial, 2)).values
        t_psi = riesz_basis(d, (seed, trial, 6)).synth @ (t_phi * m)
        matrix = (t_phi * m) @ t_psi.conj().T
    else:
        t_phi, m, t_psi, matrix = _instance(seed, trial, d, n)
    minv = np.linalg.inv(matrix)
    inv_norm = 1.0 / np.linalg.svd(matrix, compute_uv=False)[-1]
    # An invertible V with V(m_n phi_n) = psi_n: V0 = T_Psi pinv(T_{m Phi}) maps column to column.
    v0 = t_psi @ np.linalg.pinv(t_phi * m)
    s = np.linalg.svd(v0, compute_uv=False)
    maps = _rule(_norm(v0 @ (t_phi * m) - t_psi), _norm(t_psi)) <= REL_EQ
    equivalent = bool(maps and s[0] > 0.0 and s[-1] / s[0] >= INV_COND)
    gamma = t_phi.conj().T @ minv.conj().T - (1.0 / np.conj(m))[:, None] * np.linalg.pinv(t_psi)
    gamma_zero = _rule(_norm(gamma), inv_norm) <= REL_EQ
    formula = sum(_left_bracket(minv, np.linalg.pinv(t_psi).conj().T / m, t_phi))
    all_duals = _rule(formula, inv_norm) <= REL_EQ
    booleans = {
        "equivalent": equivalent,
        "gamma_zero": gamma_zero,
        "all_duals_formula": all_duals,
        "agree": equivalent == gamma_zero == all_duals,
        "expected_positive": positive,
    }
    return {"gamma_norm": _norm(gamma), "max_formula_residual": formula}, booleans


@cache
def _program(seed):
    report = run_suite(ExperimentConfig(suite="all", trials=TRIALS, seed=seed))
    return {(r.suite, r.trial): r for r in report.records}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trial", range(TRIALS))
def test_twin_matches_the_certified_residuals(seed, trial):
    d, n = DIMS[trial % len(DIMS)]
    records = _program(seed)
    twins = {
        "thm1": _twin_thm1(seed, trial, d, n),
        "per1": _twin_per1("per1", seed, trial, d, n),
        "per1dual": _twin_per1("per1dual", seed, trial, d, n),
        "per2": _twin_per2(seed, trial, d, n),
        "per3": _twin_per3(seed, trial, d, n),
        **_twin_correction(seed, trial, d, n),
        "equivalence": _twin_equivalence(seed, trial, d, n),
    }
    for suite, (residuals, booleans) in twins.items():
        record = records[suite, trial]
        assert record.note == "", (suite, record.note)
        assert residuals.keys() == record.residuals.keys(), suite
        for key, value in residuals.items():
            assert _quotient(value, record.residuals[key]) <= AGREEMENT, (suite, key, value, record.residuals[key])
        assert dict(record.booleans) == booleans, suite


def _foreign_names(tree) -> list[str]:
    """framemult imports beyond the allowed public names, and every private attribute read."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "framemult":
            if node.module != "framemult":
                found.append(f"from {node.module}")
            found += [alias.name for alias in node.names if alias.name not in ALLOWED_IMPORTS]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "framemult"]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__"):
            found.append(f".{node.attr}")
    return found


def test_the_twin_takes_only_public_generators_from_framemult():
    assert _foreign_names(ast.parse(Path(__file__).read_text(encoding="utf-8"))) == []
    for source in (
        "import framemult",
        "from framemult import canonical_dual",
        "from framemult.linalg import op_norm",
        "from framemult import suites",
        "x = f._kernel_proj",
    ):
        assert _foreign_names(ast.parse(source)), source
