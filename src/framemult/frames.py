"""Frames on C^d: synthesis/analysis matrices, bounds, duals, kernel projections.

A frame is stored through its synthesis matrix T (d x N, column n is the
vector phi_n). The inner product is linear in the first argument, so the
analysis operator is the conjugate transpose: (U f)_n = <f, phi_n>. The frame
operator S = T T* is cached together with its extremal eigenvalues, the
optimal frame bounds. S, the duals and the weighted frames that this module
derives from finite entries follow linalg's overflow rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, InvalidDual, NotAFrame, NumericalOverflow
from .linalg import (
    _NOT_FINITE,
    _OVERFLOW,
    DEFAULT_TOL,
    Tol,
    _adjoint,
    _as_2d,
    _invertible,
    _norm_bounds,
    _op_norms,
    _quiet,
    _rel_gap,
    _solve,
    _sym_extremes,
    _unbounded,
    _unless_cleared,
    as_matrix,
    op_norm,
    sv_extremes,
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

    w is the read-only d x N matrix W that carved the dual out, a view into
    its family's W block, or None for the canonical dual. The dual keeps W,
    not the product v_part, which is formed when asked for.
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


def _rank_deficient(lo, hi, tol: Tol):
    """The spectral rank test of new_frame, on scalars or stacks of (lambda_min, lambda_max)."""
    return (hi <= 0.0) | (lo <= tol.inv_cond * hi)


def _rank_error(lo: float, hi: float) -> NotAFrame:
    return NotAFrame(f"rank-deficient sequence: lambda_min(S)={lo:.3e} vs lambda_max(S)={hi:.3e}")


_GRAM_OVERFLOW = "frame operator T T* of finite entries overflows"


def new_frame(columns, tol: Tol = DEFAULT_TOL) -> Frame:
    """Validating constructor: rejects sequences that do not span C^d.

    S = T T* is Hermitian by construction; its bounds are the extremes of (S + S*)/2,
    with no Hermitian test (see linalg). Non-finite entries are an InvalidArgument;
    then a non-finite S and non-finite extremes are a NumericalOverflow, and the rank
    test lambda_min(S) <= inv_cond * lambda_max(S) is a NotAFrame.
    """
    synth = _read_only(_as_2d(columns, copy=True))
    if not np.isfinite(synth).all():
        raise InvalidArgument(_NOT_FINITE)
    return _new_frame(synth, tol)


@_quiet
def _new_frame(synth: np.ndarray, tol: Tol) -> Frame:
    """new_frame for a finite, read-only complex128 synth that the frame keeps without a copy."""
    d, n = synth.shape
    if d < 1 or n < 1:
        raise NotAFrame(f"empty synthesis matrix of shape {d}x{n}")
    if n < d:
        raise NotAFrame(f"{n} vectors cannot span a {d}-dimensional space")
    s = synth @ synth.conj().T
    if not np.isfinite(s).all():  # synth is finite, so a non-finite entry of S is an overflow
        raise NumericalOverflow(_GRAM_OVERFLOW)
    lo, hi = map(float, _sym_extremes(s))
    if _unbounded(lo, hi):
        raise NumericalOverflow(_OVERFLOW)
    if _rank_deficient(lo, hi, tol):
        raise _rank_error(lo, hi)
    return Frame(dim=d, count=n, synth=synth, cached_S=_read_only(s), bounds=(lo, hi))


def analysis(f: Frame, vec) -> np.ndarray:
    """Coefficients (<x, phi_n>)_n of a vector x in C^d."""
    x = np.asarray(vec, dtype=np.complex128).reshape(-1)
    if x.shape[0] != f.dim:
        raise DimensionMismatch(f"vector has length {x.shape[0]}, frame dimension is {f.dim}")
    return f.analysis_op @ x


def synthesis(f: Frame, coeffs) -> np.ndarray:
    """The vector sum over n of c_n phi_n."""
    c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    if c.shape[0] != f.count:
        raise DimensionMismatch(f"coefficients have length {c.shape[0]}, frame count is {f.count}")
    return f.synth @ c


def frame_bounds(f: Frame) -> tuple[float, float]:
    """Optimal bounds (A, B) = extremal eigenvalues of the frame operator."""
    return f.bounds


_NOT_DUAL = "reconstruction T_dual U_parent deviates from the identity"


def _not_dual(recon: np.ndarray, tol: Tol) -> np.ndarray:
    """Mask of the reconstructions T_dual U_parent in a finite (..., d, d) stack that miss I.

    The duality check is ||T_dual U - I|| <= rel_eq * max(1, ||T_dual U||);
    a reconstruction whose bound on ||T_dual U - I|| is at most rel_eq / 2
    passes it without an SVD.
    """
    deviation = recon - np.eye(recon.shape[-1])
    return _unless_cleared(
        _norm_bounds(deviation) <= 0.5 * tol.rel_eq,
        lambda sel: _op_norms(deviation[sel])
        > tol.rel_eq * np.maximum(1.0, _op_norms(recon[sel])),
    )


def _check_duality(dual_synth: np.ndarray, parent: Frame, tol: Tol) -> None:
    """Raise InvalidDual unless every synthesis matrix in a (..., d, N) stack is a dual of parent.

    The inputs are validated frames, whose entries are small enough that the
    reconstruction T_dual U_parent is finite.
    """
    if np.any(_not_dual(dual_synth @ parent.analysis_op, tol)):
        raise InvalidDual(_NOT_DUAL)


def _finite_or_zero(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mask of the all-finite matrices in a (K, m, n) stack, the stack with the others zeroed)."""
    finite = np.isfinite(stack).all(axis=(-2, -1))
    if finite.all():
        return finite, stack
    return finite, np.where(finite[:, np.newaxis, np.newaxis], stack, 0.0)


def _raise_first(failures) -> None:
    """Raise the error a dual-by-dual loop would raise first.

    failures lists (mask over the K duals, error factory taking the dual
    index) in the order one dual's checks run: the first dual that fails any
    check decides, and within it the first check it fails.
    """
    bad = np.array([mask for mask, _ in failures])
    failing = bad.any(axis=0)
    if failing.any():
        k = int(np.argmax(failing))
        raise failures[int(np.argmax(bad[:, k]))][1](k)


@_quiet
def _family_stack(f: Frame, w: np.ndarray, tol: Tol) -> tuple[np.ndarray, ...]:
    """The read-only (K+1, d, N) synthesis stack of f's duals for a (K, d, N) stack of W_k.

    Row 0 is S^{-1}T, row k is S^{-1}T + w[k - 1](I - U S^{-1}T). Rows 1..K are
    checked in one stacked pass, in the order canonical_dual checks its one
    dual: T_dual U finite, the duality check, then new_frame's three checks
    (finite, bounded extremes, rank) on each frame operator T_dual T_dual*.
    Also returns the read-only (K, d, d) stack of those frame operators and
    their extremal eigenvalues.
    """
    stack = np.empty((len(w) + 1, f.dim, f.count), dtype=np.complex128)
    stack[0] = f._canonical_synth
    synth = np.matmul(w, f._kernel_proj, out=stack[1:])
    synth += f._canonical_synth
    recon_ok, recon = _finite_or_zero(synth @ f.analysis_op)
    not_dual = _not_dual(recon, tol)
    del recon  # freed before the frame operators are formed
    gram_ok, gram = _finite_or_zero(synth @ _adjoint(synth))
    lo, hi = _sym_extremes(gram)
    _raise_first(
        [
            (~recon_ok, lambda k: InvalidArgument(_NOT_FINITE)),
            (not_dual, lambda k: InvalidDual(_NOT_DUAL)),
            (~gram_ok, lambda k: NumericalOverflow(_GRAM_OVERFLOW)),
            (_unbounded(lo, hi), lambda k: NumericalOverflow(_OVERFLOW)),
            (_rank_deficient(lo, hi, tol), lambda k: _rank_error(lo[k], hi[k])),
        ]
    )
    return _read_only(stack), _read_only(gram), lo, hi


def _dual_family(f: Frame, w: np.ndarray, tol: Tol) -> list[DualFrame]:
    """The duals S^{-1}T + W_k(I - U S^{-1}T) of f for a (K, d, N) stack of W_k; see _family_stack.

    Each dual keeps a view of its W_k, so w must be read-only and edited by
    no one (random_dual passes a copy), and read-only views of its rows of
    the family's synthesis and frame-operator stacks.
    """
    stack, gram, lo, hi = _family_stack(f, w, tol)
    return [
        DualFrame(
            frame=Frame(
                dim=f.dim,
                count=f.count,
                synth=stack[k + 1],
                cached_S=gram[k],
                bounds=(float(lo[k]), float(hi[k])),
            ),
            parent=f,
            w=w[k],
        )
        for k in range(len(w))
    ]


@_quiet
def canonical_dual(f: Frame, tol: Tol = DEFAULT_TOL) -> DualFrame:
    """The dual with columns S^{-1} phi_n; its frame operator is S^{-1}.

    It is a function of f and tol alone, so it is validated once per Tol and
    then served from f's memo in a fresh DualFrame.
    """
    frame = f._canonical_duals.get(tol)
    if frame is None:
        # as_matrix raises the InvalidArgument of a non-finite T_dual U before the duality check.
        if _not_dual(as_matrix(f._canonical_synth @ f.analysis_op), tol):
            raise InvalidDual(_NOT_DUAL)
        frame = f._canonical_duals[tol] = _new_frame(f._canonical_synth, tol)
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
    return _dual_family(f, _freeze(w_mat)[np.newaxis], tol)[0]


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
    scaled = f.synth * m.values[np.newaxis, :]
    if not np.isfinite(scaled).all():  # f and m are finite, so a non-finite m_n phi_n is an overflow
        raise NumericalOverflow("weighted vectors m_n phi_n of finite entries overflow")
    return _new_frame(_read_only(scaled), tol)


def equivalence_map(f: Frame, g: Frame, tol: Tol = DEFAULT_TOL) -> np.ndarray | None:
    """Invertible V with V phi_n = g_n for all n, or None if no such V exists.

    The candidate is V0 = T_G pinv(T_F) = T_G (S_F^{-1}T_F)*; it is accepted iff it maps
    column to column under the rule, with ||T_G|| = sqrt(B_G), and is invertible per inv_cond.
    """
    _check_shapes((f, g))
    v0 = g.synth @ f._canonical_synth.conj().T
    residual = _rel_gap(op_norm(v0 @ f.synth - g.synth), np.sqrt(g.bounds[1]))
    if residual > tol.rel_eq or not _invertible(*sv_extremes(v0), tol):
        return None
    return v0
