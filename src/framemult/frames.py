"""Frames on C^d: synthesis/analysis matrices, bounds, duals, kernel projections.

A frame is stored through its synthesis matrix T (d x N, column n is the
vector phi_n). The inner product is linear in the first argument, so the
analysis operator is the conjugate transpose: (U f)_n = <f, phi_n>. The frame
operator S = T T* is cached together with its extremal eigenvalues, the
optimal frame bounds. new_frame takes outside input (non-finite entries are
an InvalidArgument); a frame derived from finite inputs under linalg's
overflow rule takes _new_frame, which judges overflow by the spectrum of S.

Each dual, canonical or carved out by one W, is built and validated on its
own by _lone_dual, the one definition of a valid dual and its error;
_check_dual, its duality half, re-checks supplied duals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, InvalidDual, NotAFrame
from .linalg import (
    _NOT_FINITE,
    DEFAULT_TOL,
    Tol,
    _complex,
    _expect,
    _finite,
    _invertible,
    _norm,
    _quiet,
    _rel_gap,
    _solve,
    _sv_extremes,
    _sym_extremes,
    as_matrix,
)
from .symbols import Symbol

__all__ = [
    "Frame",
    "DualFrame",
    "new_frame",
    "analysis",
    "synthesis",
    "frame_bounds",
    "canonical_dual",
    "random_dual",
    "proj_ker_synthesis",
    "is_riesz_basis",
    "scale_by_symbol",
    "equivalence_map",
]


@dataclass(frozen=True)
class Frame:
    """Validated frame: rank(synth) = d is guaranteed at construction."""

    dim: int
    count: int
    synth: np.ndarray  # d x N, column n is phi_n
    cached_S: np.ndarray  # d x d frame operator T T*
    bounds: tuple[float, float]  # optimal (A, B), 0 < A <= B

    @property
    def analysis_op(self) -> np.ndarray:
        """The N x d analysis matrix U = T*."""
        return self.synth.conj().T

    @cached_property
    def _canonical_synth(self) -> np.ndarray:
        """S^{-1}T, the canonical dual's synthesis matrix; solved once per frame."""
        # S is Hermitian positive definite for every validated Frame.
        return _read_only(_solve(self.cached_S, self.synth))

    @cached_property
    def _kernel_proj(self) -> np.ndarray:
        """I - U S^{-1}T, the orthogonal projection onto ker(T); formed once per frame."""
        return _read_only(np.eye(self.count) - self.analysis_op @ self._canonical_synth)

    @cached_property
    def _canonical_duals(self) -> dict[Tol, Frame]:
        """The frame of the canonical dual validated under each Tol.

        The DualFrame itself is not stored: it points back to this frame, and
        the cycle would keep both alive until the cyclic collector runs.
        """
        return {}


@dataclass(frozen=True)
class DualFrame:
    """A dual of `parent`: synthesis T_dual = S^{-1}T_parent + W(I - U S^{-1}T_parent).

    w is the read-only d x N matrix W that carved the dual out (from
    sample_duals, a view into its W block), or None for the canonical dual.
    The dual keeps W, not the product v_part, which is formed when asked for.
    """

    frame: Frame
    parent: Frame
    w: np.ndarray | None

    @property
    def v_part(self) -> np.ndarray:
        """The read-only d x N part W(I - U S^{-1}T) beyond the canonical dual; zero exactly for it."""
        if self.w is None:
            return _read_only(np.zeros((self.parent.dim, self.parent.count), dtype=np.complex128))
        return _read_only(self.w @ self.parent._kernel_proj)


def _check_shapes(frames: tuple[Frame, ...], symbols: tuple[Symbol, ...] = ()) -> None:
    """Raise DimensionMismatch unless the frames share d and the frames and symbols share N.

    A message lists each distinct value once, in order of first appearance, so
    one mismatch reads the same whichever function finds it.
    """
    if len({f.dim for f in frames}) > 1:
        raise DimensionMismatch(f"frame dimensions differ: {_distinct(f.dim for f in frames)}")
    counts, lengths = [f.count for f in frames], [m.count for m in symbols]
    if len(set(counts + lengths)) > 1:
        named = f"symbols {_distinct(lengths)}, " if symbols else ""
        raise DimensionMismatch(f"lengths differ: {named}frames {_distinct(counts)}")


def _distinct(values) -> str:
    return "/".join(dict.fromkeys(map(str, values)))


def _read_only(mat: np.ndarray) -> np.ndarray:
    mat.setflags(write=False)
    return mat


def _freeze(mat: np.ndarray) -> np.ndarray:
    return _read_only(np.array(mat, dtype=np.complex128, copy=True))


def new_frame(columns, tol: Tol = DEFAULT_TOL) -> Frame:
    """Validating constructor: rejects sequences that do not span C^d.

    S = T T* is Hermitian by construction; its bounds are the extremes of (S + S*)/2,
    with no Hermitian test (see linalg). Non-finite entries are an InvalidArgument;
    then non-finite extremes are a NumericalOverflow, and the rank test
    lambda_min(S) <= inv_cond * lambda_max(S) is a NotAFrame.
    """
    return _new_frame(as_matrix(columns).copy(order="K"), tol)


@_quiet
def _new_frame(synth: np.ndarray, tol: Tol) -> Frame:
    """new_frame for a synth formed from finite inputs, kept without a copy; _sym_extremes judges an overflow."""
    d, n = synth.shape
    if d < 1 or n < 1:
        raise NotAFrame(f"empty synthesis matrix of shape {d}x{n}")
    if n < d:
        raise NotAFrame(f"{n} vectors cannot span a {d}-dimensional space")
    s = synth @ synth.conj().T
    lo, hi = _sym_extremes(s)
    if hi <= 0.0 or lo <= tol.inv_cond * hi:
        raise NotAFrame(f"rank-deficient sequence: lambda_min(S)={lo:.3e} vs lambda_max(S)={hi:.3e}")
    return Frame(dim=d, count=n, synth=_read_only(synth), cached_S=_read_only(s), bounds=(lo, hi))


def _entries(values, length: int, what: str) -> np.ndarray:
    """values read as complex128 and flattened, for input from outside: length finite entries.

    Another length is a DimensionMismatch; an entry that is not finite (None
    reads as NaN) is an InvalidArgument, as in as_matrix.
    """
    x = _complex(values).reshape(-1)
    if x.shape[0] != length:
        raise DimensionMismatch(f"{what} has length {x.shape[0]}, expected {length}")
    if not np.isfinite(x).all():
        raise InvalidArgument(_NOT_FINITE)
    return x


@_quiet
def analysis(f: Frame, vec) -> np.ndarray:
    """Coefficients (<x, phi_n>)_n of a vector x in C^d; a NumericalOverflow where they overflow."""
    _expect(f, Frame, "f")
    return _finite(f.analysis_op @ _entries(vec, f.dim, "vector"), "analysis")


@_quiet
def synthesis(f: Frame, coeffs) -> np.ndarray:
    """The vector sum over n of c_n phi_n; a NumericalOverflow where it overflows."""
    _expect(f, Frame, "f")
    return _finite(f.synth @ _entries(coeffs, f.count, "coefficient sequence"), "synthesis")


def frame_bounds(f: Frame) -> tuple[float, float]:
    """Optimal bounds (A, B) = extremal eigenvalues of the frame operator."""
    return f.bounds


_NOT_DUAL = "reconstruction T_dual U_parent deviates from the identity"


def _not_dual(recon: np.ndarray, tol: Tol) -> bool:
    """Whether a finite d x d reconstruction T_dual U_parent misses I under the rule.

    The duality check is _rel_gap(||T_dual U - I||, ||T_dual U||) <= rel_eq.
    """
    return _rel_gap(_norm(recon - np.eye(recon.shape[0])), _norm(recon)) > tol.rel_eq


def _check_dual(f: Frame, synth: np.ndarray, tol: Tol) -> None:
    """The one duality check: raise unless a d x N synthesis matrix is a dual of f.

    T_dual U, formed under the caller's _quiet, must be finite (else a
    NumericalOverflow, linalg's overflow rule) and pass _not_dual (else InvalidDual).
    """
    if _not_dual(_finite(synth @ f.analysis_op, "T_dual U"), tol):
        raise InvalidDual(_NOT_DUAL)


@_quiet
def _lone_dual(f: Frame, synth: np.ndarray, tol: Tol) -> Frame:
    """The frame of a d x N synthesis matrix formed as a dual of f, validated as one.

    The one definition of a valid dual and of its error: _check_dual, then
    _new_frame's overflow and rank checks on T_dual T_dual*.
    """
    _check_dual(f, synth, tol)
    return _new_frame(synth, tol)


@_quiet
def _dual(f: Frame, w: np.ndarray, tol: Tol) -> DualFrame:
    """The dual S^{-1}T + W(I - U S^{-1}T) of f for a d x N matrix W, validated by _lone_dual.

    The dual keeps w itself, so w must be read-only and edited by no one
    (random_dual passes a frozen copy).
    """
    return DualFrame(frame=_lone_dual(f, f._canonical_synth + w @ f._kernel_proj, tol), parent=f, w=w)


def canonical_dual(f: Frame, tol: Tol = DEFAULT_TOL) -> DualFrame:
    """The dual with columns S^{-1} phi_n; its frame operator is S^{-1}.

    It is a function of f and tol alone, so it is validated once per Tol by
    _lone_dual and then served from f's memo in a fresh DualFrame.
    """
    frame = f._canonical_duals.get(tol)
    if frame is None:
        frame = f._canonical_duals[tol] = _lone_dual(f, f._canonical_synth, tol)
    return DualFrame(frame=frame, parent=f, w=None)


def random_dual(f: Frame, w, tol: Tol = DEFAULT_TOL) -> DualFrame:
    """The dual S^{-1}T + W(I - U S^{-1} T) carved out by a free d x N matrix W.

    W = 0 recovers the canonical dual; for a Riesz basis every W does, since
    the kernel projection vanishes. The dual keeps a frozen copy of W, so a
    later edit to the caller's array cannot change it.
    """
    w_mat = as_matrix(w)
    if w_mat.shape != (f.dim, f.count):
        raise DimensionMismatch(
            f"W has shape {w_mat.shape}, expected {(f.dim, f.count)}"
        )
    return _dual(f, _freeze(w_mat), tol)


def proj_ker_synthesis(f: Frame) -> np.ndarray:
    """The N x N orthogonal projection onto ker(T): I - U S^{-1} T."""
    return f._kernel_proj.copy()


def is_riesz_basis(f: Frame) -> bool:
    """True iff the frame has exactly d vectors (then T is invertible)."""
    return f.count == f.dim


def scale_by_symbol(f: Frame, m: Symbol, tol: Tol = DEFAULT_TOL) -> Frame:
    """The weighted sequence (m_n phi_n)_n, so T_{mF} = T_F diag(m).

    Raises NotAFrame when the weights destroy the spanning property (only if m has
    a zero entry), and NumericalOverflow when a weighted vector or S overflows.
    """
    _check_shapes((f,), (m,))
    return _scaled(f, m, tol)


@_quiet
def _scaled(f: Frame, m: Symbol, tol: Tol) -> Frame:
    """scale_by_symbol for a caller that has already checked the shapes."""
    return _new_frame(f.synth * m.values[np.newaxis, :], tol)


@_quiet
def _weighted_image(a: np.ndarray, f: Frame, m: Symbol, tol: Tol) -> Frame:
    """The frame (A m_n phi_n)_n for a d x d matrix A, formed under linalg's overflow rule."""
    return _new_frame(a @ (f.synth * m.values[np.newaxis, :]), tol)


@_quiet
def equivalence_map(f: Frame, g: Frame, tol: Tol = DEFAULT_TOL) -> np.ndarray | None:
    """Invertible V with V phi_n = g_n for all n, or None if no such V exists.

    The candidate is V0 = T_G pinv(T_F) = T_G (S_F^{-1}T_F)*; it is accepted iff it maps
    column to column under the rule, with ||T_G|| = sqrt(B_G), and is invertible per inv_cond.
    V0 and its gap V0 T_F - T_G are formed under linalg's overflow rule: one
    that is not finite is a NumericalOverflow.
    """
    _check_shapes((f, g))
    v0 = _finite(g.synth @ f._canonical_synth.conj().T, "equivalence map V0")
    gap = _finite(v0 @ f.synth - g.synth, "V0 T_F - T_G")
    residual = _rel_gap(_norm(gap), np.sqrt(g.bounds[1]))
    if residual > tol.rel_eq or not _invertible(*_sv_extremes(v0), tol):
        return None
    return v0
