"""Seeded constructors for the frame and symbol families used in experiments.

Every generator is a pure function of its arguments: equal seeds give
bit-identical outputs, which is what makes suite reports reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import GenerationFailed, InvalidArgument, NotAFrame
from .frames import Frame, new_frame
from .linalg import DEFAULT_TOL, Tol, _is_integer
from .symbols import Symbol, _derived

__all__ = [
    "onb",
    "harmonic_tight",
    "finite_gabor",
    "random_frame",
    "riesz_basis",
    "random_symbol",
]

MAX_RETRIES = 64
DEFAULT_CONDITION_CAP = 100.0


def _check_size(d: int, n: int | None = None) -> None:
    """The size rule of every generator: integer sizes, d >= 1, and n >= d where a count n is given."""
    for name, size in (("dimension", d), ("count", n)):
        if size is not None and not _is_integer(size):
            raise InvalidArgument(f"{name} must be an integer, got {size!r}")
    if d < 1:
        raise InvalidArgument(f"dimension must be positive, got {d!r}")
    if n is not None and n < d:
        raise InvalidArgument(f"need at least d = {d} vectors, got {n}")


def onb(d: int) -> Frame:
    """The canonical orthonormal basis of C^d (identity synthesis)."""
    _check_size(d)
    return new_frame(np.eye(d, dtype=np.complex128))


def harmonic_tight(d: int, n: int) -> Frame:
    """Unit-norm tight frame from the first d rows of the n-point Fourier matrix.

    Entry (k, j) is exp(2*pi*i*k*j/n)/sqrt(d); the frame operator is (n/d) I.
    """
    _check_size(d, n)
    k = np.arange(d)[:, np.newaxis]
    j = np.arange(n)[np.newaxis, :]
    # float(d): np.sqrt of an int8 or int16 d would round to float16 or float32.
    return new_frame(np.exp(2j * np.pi * k * j / n) / np.sqrt(float(d)))


def finite_gabor(d: int, a: int, b: int) -> Frame:
    """Time-frequency shifts of a sampled Gaussian window on Z_d.

    Columns are g_{k,l}[t] = g[(t - k*a) mod d] * exp(2*pi*i*l*b*t/d) for
    k = 0..d/a-1 and l = 0..d/b-1, with g[t] = exp(-pi (t - d/2)^2 / d)
    normalized in l2. a and b must divide d; undersampled lattices
    ((d/a)(d/b) < d) fail frame validation.
    """
    _check_size(d)
    for name, step in (("a", a), ("b", b)):
        if not _is_integer(step) or step < 1 or d % step != 0:
            raise InvalidArgument(f"{name} = {step!r} must be a positive divisor of d = {d}")
    t = np.arange(d)
    window = np.exp(-np.pi * (t - d / 2.0) ** 2 / d)
    window = window / np.linalg.norm(window)
    columns = []
    for k in range(d // a):
        shifted = np.roll(window, k * a)
        for ell in range(d // b):
            columns.append(shifted * np.exp(2j * np.pi * ell * b * t / d))
    return new_frame(np.column_stack(columns))


def random_frame(
    d: int,
    n: int,
    rng_seed,
    condition_cap: float = DEFAULT_CONDITION_CAP,
    tol: Tol = DEFAULT_TOL,
) -> Frame:
    """Complex Gaussian frame with bound ratio B/A at most condition_cap.

    Entries are standard complex Gaussians scaled by 1/sqrt(2d); candidates
    are redrawn from the seeded stream until the ratio passes, a bounded
    number of times.
    """
    _check_size(d, n)
    if not condition_cap >= 1.0:  # NaN too
        raise InvalidArgument(f"condition_cap must be at least 1, got {condition_cap!r}")
    rng = np.random.default_rng(rng_seed)
    for _ in range(MAX_RETRIES):
        raw = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
        candidate = raw / np.sqrt(2.0 * d)
        try:
            frame = new_frame(candidate, tol)
        except NotAFrame:
            continue
        a, b = frame.bounds
        if b / a <= condition_cap:
            return frame
    raise GenerationFailed(
        f"no {d}x{n} frame with B/A <= {condition_cap:g} in {MAX_RETRIES} draws"
    )


def riesz_basis(d: int, rng_seed, tol: Tol = DEFAULT_TOL) -> Frame:
    """Random basis of C^d: a frame with exactly d vectors and B/A at most DEFAULT_CONDITION_CAP."""
    return random_frame(d, d, rng_seed, tol=tol)


def random_symbol(n: int, lo: float, hi: float, rng_seed) -> Symbol:
    """Semi-normalized symbol with moduli uniform in [lo, hi] and uniform phases."""
    if not 0.0 < lo <= hi < np.inf:  # NaN too
        raise InvalidArgument(f"need 0 < lo <= hi < inf, got lo={lo!r}, hi={hi!r}")
    if not _is_integer(n) or n < 1:
        raise InvalidArgument(f"length must be a positive integer, got {n!r}")
    rng = np.random.default_rng(rng_seed)
    moduli = rng.uniform(lo, hi, size=n)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return _derived(moduli * np.exp(1j * phases))
