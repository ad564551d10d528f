"""Symbols: the complex weight sequences that modulate coefficients.

A symbol m of length N acts as the diagonal mid-stage of a multiplier. What
the theory cares about are the modulus extremes: inf|m_n| separates the
semi-normalized class from sequences with vanishing entries, and sup|m_n|
enters every perturbation estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NumericalOverflow, ZeroEntry
from .linalg import _complex, _quiet

__all__ = [
    "Symbol",
    "new_symbol",
    "classify",
    "reciprocal",
    "conj",
    "modulus",
    "perturb_symbol",
]


@dataclass(frozen=True)
class Symbol:
    """Immutable weight sequence with cached modulus extremes."""

    values: np.ndarray  # 1-D complex128, length N
    inf_mod: float
    sup_mod: float

    @property
    def count(self) -> int:
        return int(self.values.shape[0])

    @property
    def semi_normalized(self) -> bool:
        # sup_mod < inf is automatic at finite length, so the class is decided
        # by the lower modulus alone.
        return self.inf_mod > 0.0

    def diag(self) -> np.ndarray:
        """The N x N diagonal matrix carrying the weights."""
        return np.diag(self.values)


def new_symbol(values) -> Symbol:
    """Build a Symbol from any 1-D complex sequence."""
    arr = _complex(values)
    if arr.ndim != 1:
        raise InvalidArgument(f"symbol must be 1-D, got ndim={arr.ndim}")
    if arr.shape[0] == 0:
        raise InvalidArgument("symbol must have at least one entry")
    moduli = np.abs(arr)  # not finite where an entry, or only its modulus, is not
    if not np.isfinite(moduli).all():
        raise InvalidArgument("symbol entries and their moduli must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return Symbol(values=arr, inf_mod=float(moduli.min()), sup_mod=float(moduli.max()))


def classify(m: Symbol) -> tuple[bool, float, float]:
    """(semi_normalized, inf_mod, sup_mod) of the symbol."""
    return m.semi_normalized, m.inf_mod, m.sup_mod


def _derived(values: np.ndarray, what: str) -> Symbol:
    """new_symbol for entries formed under _quiet from a valid symbol: a non-finite one is an overflow."""
    if not np.isfinite(np.abs(values)).all():  # an entry, or only its modulus, overflowed
        raise NumericalOverflow(f"{what} of a finite symbol overflows")
    return new_symbol(values)


@_quiet
def reciprocal(m: Symbol) -> Symbol:
    """Entrywise 1/m_n; refuses symbols with a zero entry, and is a NumericalOverflow where 1/m_n overflows."""
    if m.inf_mod == 0.0:
        raise ZeroEntry("cannot take the reciprocal of a symbol with a zero entry")
    return _derived(1.0 / m.values, "reciprocal")


def conj(m: Symbol) -> Symbol:
    """Entrywise complex conjugate.

    m is already valid and |conj z| is |z| bit for bit, so the moduli carry over.
    """
    values = np.conj(m.values)
    values.setflags(write=False)
    return Symbol(values=values, inf_mod=m.inf_mod, sup_mod=m.sup_mod)


def modulus(m: Symbol) -> Symbol:
    """Entrywise modulus |m_n| (a real nonnegative symbol)."""
    return new_symbol(np.abs(m.values).astype(np.complex128))


@_quiet
def perturb_symbol(m: Symbol, eps: float, rng_seed) -> Symbol:
    """Random additive perturbation m' = m + e with 0.5*eps <= sup|e_n| <= eps.

    Entries of e are drawn uniformly from the complex unit disc, then the
    whole perturbation is rescaled so its sup-norm lands at a uniform draw
    from [0.5*eps, eps]. Deterministic for a fixed seed. The result is not
    forced to stay semi-normalized; callers inspect classify(). It is a
    NumericalOverflow where m + e, or its modulus, overflows.
    """
    if not 0.0 < eps < np.inf:
        raise InvalidArgument(f"eps must be positive and finite, got {eps!r}")
    rng = np.random.default_rng(rng_seed)
    n = m.count
    radii = np.sqrt(rng.uniform(0.0, 1.0, size=n))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    noise = radii * np.exp(1j * angles)
    peak = float(np.abs(noise).max())
    if peak == 0.0:  # pragma: no cover - measure-zero draw
        noise = np.ones(n, dtype=np.complex128)
        peak = 1.0
    target = rng.uniform(0.5 * eps, eps)
    return _derived(m.values + noise * (target / peak), "perturbation")
