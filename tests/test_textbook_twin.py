"""A textbook twin of the "for every dual" residuals, from np.linalg and the paper's formulas.

For trials 0..19 of the default run at seeds 0 and 1608, the twin rebuilds
each gamma, theta and equivalence instance from framemult's public
generators and the same seeds, and recomputes every residual and boolean
that the certificate moved: max_decomposition and probe_breakage of gamma
and theta, max_formula_residual of equivalence, and the verdict booleans of
all three suites. It uses only np.linalg (pinv for S^{-1}T and the kernel
projection P, inv, svd, norm) and the paper's formulas:

    Gamma = U_Phi (M^{-1})* - diag(1/conj m) U_Psi S_Psi^{-1}
    Theta = U_Psi M^{-1} - diag(1/m) U_Phi S_Phi^{-1}

Every dual of Phi has U_{Phi^d} = pinv(T_Phi) + P_Phi W*, so a residual
M^{-1} - L U_{Phi^d} is R0 - K W* with R0 = M^{-1} - L pinv(T_Phi) and
K = L P_Phi; its supremum over ||W|| <= 1 lies in [max(||R0||, ||K||),
||R0|| + ||K||]. Theta is taken in the paper's own form, against the duals
T_{Psi^d} = pinv(T_Psi)* + W P_Psi of the right frame, not through the
adjoint. The probe direction redoes the draw order of the suites' unit-norm
W in numpy. An AST guard keeps the twin to framemult's public generators
and the run it checks.
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


def _instance(seed, trial, d, n):
    """The trial's invertible (T_Phi, m, T_Psi, M): the symbol is redrawn until M passes."""
    t_phi = random_frame(d, n, (seed, trial, 0)).synth
    t_psi = random_frame(d, n, (seed, trial, 1)).synth
    for attempt in range(RESAMPLE_LIMIT):
        m = random_symbol(n, SYMBOL_LO, SYMBOL_HI, (seed, trial, 2, attempt)).values
        matrix = _invertible(t_phi, m, t_psi)
        if matrix is not None:
            return t_phi, m, t_psi, matrix
    raise AssertionError(f"no invertible multiplier at seed {seed}, trial {trial}")


def _probe_direction(seed, trial, shape):
    """A unit-norm complex matrix: one standard-normal draw of the real, then the imaginary, part."""
    draws = np.random.default_rng((seed, trial, 7)).standard_normal((1, 2, *shape))
    w = draws[0, 0] + 1j * draws[0, 1]
    return w / _norm(w)


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
        residuals = {"max_decomposition": max_dec, "probe_breakage": breakage}
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
    return {"max_formula_residual": formula}, booleans


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
        **_twin_correction(seed, trial, d, n),
        "equivalence": _twin_equivalence(seed, trial, d, n),
    }
    for suite, (residuals, booleans) in twins.items():
        record = records[suite, trial]
        assert record.note == "", (suite, record.note)
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
