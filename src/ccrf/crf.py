"""Dense continuous-CRF core: assembly, inference, likelihood, gradients.

The model couples per-node score vectors through a quadratic energy

    E(Y) = sum_p ||Y_p - Z_p||^2 + 1/2 sum_{p != q} R[p,q] ||Y_p - Y_q||^2
         = tr(Y' A0 Y) - 2 tr(Z' Y) + tr(Z' Z),

with A0 = I + D - R, D = diag(row sums of R).  For symmetric nonnegative
R with zero diagonal, A0 is strictly diagonally dominant, hence positive
definite with every eigenvalue at least 1, so the labelling that
minimizes the energy is the unique solution of A0 Y = Z.  The same
factorization yields the exact negative log-density

    nll(Y) = tr(Y' A0 Y) - 2 tr(Z' Y) + tr(Z' A0^-1 Z)
             - (m/2) logdet(A0) + (n m / 2) log(pi),

and closed-form reverse-mode rules for both the likelihood and the
inference map.  Label dimensions never mix: every operation works on the
n x n system blockwise, one solve per score column.  R, a Gaussian
kernel, is built and differentiated here too: this module owns every
n x n array of the field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsymm, dsymv, dsyr2k, dtrmm
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs

_SYMMETRY_TOL = 1e-12
# columns per panel when a one-triangle result is mirrored into a full matrix
_MIRROR_PANEL = 256
# kernel exponents below this are flushed to exactly zero
_EXP_FLOOR = -60.0


class NonFiniteAffinityError(ValueError):
    """An affinity matrix held a NaN or infinite entry."""


class Workspace:
    """Named n x n float64 arrays that live across calls of the same n.

    The field functions take one as ``work`` and write their n x n results
    into its two arrays instead of fresh ones; an array is reallocated,
    zeroed and F-ordered, only when n changes.  Every symmetric result
    written there is exact in the array's lower triangle only, which is all
    that LAPACK and the symmetric BLAS routines read; the other triangle
    holds finite or NaN leftovers that nothing reduces over.  A result
    stays valid only until the next call that writes the same name:
    "kernel" (the negated squared distances, then the Gaussian kernel,
    which the backward reads) and "affinity" (the flush mask, then R, then
    A0 and its Cholesky factor, then dL/dR, A0^-1 first on the likelihood
    path, then the kernel-weighted gradient).  So a ``PrecisionSystem``
    assembled with a workspace is spent by the next ``assemble``,
    ``map_backward`` or ``nll_backward`` on it.  Passed back to
    ``assemble`` with the same workspace, its own "affinity" is trusted
    without the full-matrix checks that any other matrix gets.
    """

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def get(self, name: str, n: int) -> np.ndarray:
        arr = self._arrays.get(name)
        if arr is None or arr.shape[0] != n:
            arr = self._arrays[name] = np.zeros((n, n), order="F")
        return arr

    def holds(self, name: str, arr) -> bool:
        """Whether ``arr`` is this workspace's array ``name`` itself."""
        return self._arrays.get(name) is arr


def square(work: Workspace | None, name: str, n: int) -> np.ndarray:
    """An F-ordered n x n array: ``work``'s array ``name``, or a fresh one."""
    return np.empty((n, n), order="F") if work is None else work.get(name, n)


def _stacked(blocks, last) -> np.ndarray:
    """The (n, k_i) ``blocks`` side by side, then the column ``last``, an
    array or a scalar: one C-ordered (n, k + 1) array."""
    widths = [block.shape[1] for block in blocks]
    stack = np.empty((len(blocks[0]), sum(widths) + 1))
    start = 0
    for block, width in zip(blocks, widths):
        stack[:, start : start + width] = block
        start += width
    stack[:, start] = last
    return stack


def _outer_sum(left, right, out: np.ndarray, beta: float = 0.0) -> np.ndarray:
    """The lower triangle of L R' + R L' + beta out, in ``out``.

    One dsyr2k, which reads and writes only the lower triangle of the
    F-ordered ``out``.  The C-ordered (n, k) ``left`` and ``right`` are
    passed as their F-ordered transposes, so f2py copies nothing; callers
    stack [a, d] and [b, 1] with ``_stacked`` to get a b' + b a' + d 1' +
    1 d'.  numpy and scipy each bundle their own OpenBLAS thread pool;
    running every n x n product on scipy's, the one that factors A0,
    keeps the two pools from contending.  Returns dsyr2k's result, ``out``
    itself unless f2py had to copy it.
    """
    return dsyr2k(1.0, left.T, right.T, beta=beta, c=out, trans=1, lower=1, overwrite_c=1)


def symmetric_result(x: np.ndarray, work: Workspace | None) -> np.ndarray:
    """Finish a result held in the F-ordered ``x``'s lower triangle.

    Its diagonal becomes zero.  With ``work`` the result stays in its
    triangle; without, the strict lower triangle is copied onto the upper
    one, so ``x`` becomes the full, exactly symmetric matrix.
    """
    if work is not None:
        np.fill_diagonal(x, 0.0)
        return x
    # one column panel at a time, so every copy reads and writes whole
    # column segments
    n = len(x)
    for lo in range(0, n, _MIRROR_PANEL):
        hi = min(lo + _MIRROR_PANEL, n)
        x[lo:hi, hi:] = x[hi:, lo:hi].T
        block = np.tril(x[lo:hi, lo:hi], -1)
        x[lo:hi, lo:hi] = block + block.T
    return x


def _negated_squared_distances(points, work: Workspace | None) -> np.ndarray:
    # [P, d] [P, 1]' + [P, 1] [P, d]' with d = -|P|^2, the row norms of the
    # stacked ``points`` blocks, is 2 <p, q> - |p|^2 - |q|^2
    right = _stacked(points, 1.0)
    left = right.copy()
    p = right[:, :-1]
    left[:, -1] = -(p * p).sum(axis=1)
    x = _outer_sum(left, right, square(work, "kernel", len(left)))
    return symmetric_result(x, work)


def _flush_exp(exponent: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """exp of the nonpositive ``exponent`` in place, zero below ``_EXP_FLOOR``.

    Equal bit for bit to ``np.where(exponent < _EXP_FLOOR, 0, exp(exponent))``,
    NaN staying NaN, but exp never sees the -inf that would take its slow
    path: it runs on the exponent clamped at the floor, and the mask
    ``exponent >= _EXP_FLOOR``, written into the float array ``mask``,
    zeroes the flushed entries afterwards.
    """
    np.greater_equal(exponent, _EXP_FLOOR, out=mask)
    # cancellation can leave a squared distance's negation above 0
    np.clip(exponent, _EXP_FLOOR, 0.0, out=exponent)
    np.exp(exponent, out=exponent)
    return np.multiply(exponent, mask, out=exponent)


def gaussian_affinity(points, beta: float, *, work: Workspace | None = None):
    """(R, R / beta) with R[p, q] = beta exp(-||x_p - x_q||^2), x the rows
    of the (n, k_i) ``points`` blocks side by side: symmetric, nonnegative,
    zero diagonal.

    Exponents below ``_EXP_FLOOR`` flush to zero, but a NaN point or scale
    propagates into R, so a broken field cannot pass as a zero one.  With
    ``work``, both are its arrays, exact in the lower triangle only;
    without, both are full, exactly symmetric matrices.
    """
    kernel = _negated_squared_distances(points, work)
    affinity = square(work, "affinity", len(kernel))
    _flush_exp(kernel, affinity)
    np.fill_diagonal(kernel, 0.0)
    np.multiply(beta, kernel, out=affinity)
    return affinity, kernel


def gaussian_backward(
    kernel, daffinity, embeddings, beta: float, *, work: Workspace | None = None
):
    """Chain dL/dR back to (dL/d embeddings, dL/d beta).

    ``kernel`` and ``beta`` are ``gaussian_affinity``'s, ``embeddings``
    the first of its points blocks; the rest carry no parameters.
    ``daffinity``, the sensitivity to each symmetric entry pair of R, is
    read from its lower triangle, be it ``work``'s own "affinity" or a
    caller's matrix.  Each unordered pair contributes once, via
    d R[p,q] / d s_p = -2 R[p,q] (s_p - s_q) and d R[p,q] / d beta =
    kernel[p,q].  With ``work``, the weighted gradient overwrites its
    "affinity".
    """
    n = len(kernel)
    weighted = np.multiply(daffinity, kernel, out=square(work, "affinity", n))
    # row sums and (weighted s)' = s' weighted read only the lower
    # triangle; s' is an F-ordered view, so f2py copies nothing
    rows = dsymv(1.0, weighted, np.ones(n), lower=1)
    smoothed = dsymm(1.0, weighted, embeddings.T, side=1, lower=1).T
    dembeddings = (-2.0 * beta) * (rows[:, None] * embeddings - smoothed)
    return dembeddings, 0.5 * float(rows.sum())


@dataclass
class PrecisionSystem:
    """Cholesky factor of A0 = I + D - R, with A0's diagonal and log-det.

    ``factor`` is F-ordered and holds L in its lower triangle and, unless
    R was the workspace's own one-triangle affinity (``keeps_a0`` False),
    A0's strict upper triangle (-R), untouched by the factorization,
    above it.  Assembled with a workspace, the factor is its "affinity"
    array (a fresh one only when R shared that array's memory), so the
    system is spent by the next ``assemble``, ``map_backward`` or
    ``nll_backward`` on that workspace.
    """

    factor: np.ndarray
    diagonal: np.ndarray
    logdet_a0: float
    keeps_a0: bool = True

    @property
    def n(self) -> int:
        return self.factor.shape[0]

    @property
    def a0(self) -> np.ndarray:
        """A0, rebuilt from the factor's upper triangle and the diagonal.

        Valid as long as the factor is: with a workspace, until the next
        ``assemble`` or backward on it.  A system assembled from the
        workspace's own affinity never held -R outside the triangle the
        factor took, so asking it for A0 raises instead.
        """
        if not self.keeps_a0:
            raise RuntimeError(
                "A0 is not kept for a system assembled from its workspace's own "
                "affinity; assemble a full affinity matrix to read it"
            )
        a0 = np.where(np.tri(self.n, k=-1, dtype=bool), self.factor.T, self.factor)
        np.fill_diagonal(a0, self.diagonal)
        return a0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A0^-1 rhs; ``rhs`` is not checked, the functions below check it."""
        x, info = dpotrs(self.factor, rhs, lower=1)
        if info != 0:  # unreachable: potrs fails only on malformed arguments
            raise RuntimeError(f"potrs failed with info {info}")
        return x


def assemble(affinity: np.ndarray, *, work: Workspace | None = None) -> PrecisionSystem:
    """Build A0 = I + D - R from an affinity matrix R and factor it in place.

    R must be square, finite, nonnegative, symmetric, and zero on the
    diagonal; anything else is rejected, a NaN or infinite entry with
    ``NonFiniteAffinityError``.  Asymmetry and diagonal entries within
    rounding tolerance are cleaned away.  ``work``'s own affinity, as
    ``gaussian_affinity`` leaves it, is built that way and exact in its
    lower triangle, so only its finiteness is checked, through its row
    sums, and it is negated and factored where it lies.  Any other R is
    assembled into ``work``'s "affinity", or into a fresh array when R
    shares memory with it, and is left as it was.  The system is spent by
    the next ``assemble``, ``map_backward`` or ``nll_backward`` on
    ``work``.  Factorization failure would contradict the
    positive-definiteness guarantee and is surfaced as a hard internal
    error.
    """
    trusted = work is not None and work.holds("affinity", affinity)
    if trusted:
        r = a0 = affinity
        n = r.shape[0]
        # a NaN or infinite entry makes its row sums nonfinite
        degree = dsymv(1.0, r, np.ones(n), lower=1)
        if not np.isfinite(degree).all():
            raise NonFiniteAffinityError("affinity entries and row sums must be finite")
    else:
        r, degree, a0 = _checked_affinity(affinity, work)

    # the lower triangle of -R is all potrf reads; with a full R, clean=0
    # keeps -R above the diagonal
    np.negative(r, out=a0)
    degree += 1.0
    np.fill_diagonal(a0, degree)
    factor, info = dpotrf(a0, lower=1, overwrite_a=1, clean=0)
    if info != 0:  # unreachable for valid input
        raise RuntimeError("precision matrix lost positive definiteness")
    logdet = 2.0 * float(np.log(np.diagonal(factor)).sum())
    return PrecisionSystem(factor, degree, logdet, keeps_a0=not trusted)


def _checked_affinity(affinity, work: Workspace | None):
    """A caller's R, validated and cleaned, its row sums, and A0's buffer.

    The buffer is ``work``'s "affinity" unless R shares memory with it.  R
    comes back as an F-ordered view, like the buffer, so that copying it in
    is one contiguous pass.
    """
    r = np.asarray(affinity, dtype=np.float64)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or r.size == 0:
        raise ValueError(f"affinity must be a nonempty square matrix, got shape {r.shape}")
    buffer = square(work, "affinity", r.shape[0])
    if np.may_share_memory(r, buffer):
        buffer = np.empty_like(buffer, order="F")
    # every check below holds for R' exactly when it holds for R, and a
    # checked R is exactly symmetric, so R' may stand in for it; C order
    # keeps the transposed pass as fast as numpy makes it
    if not r.flags.c_contiguous:
        r = r.T
    # min is NaN if any entry is; once R >= 0 holds, the row sums are
    # finite exactly when every entry is
    low = float(r.min())
    if not np.isfinite(low):
        raise NonFiniteAffinityError("affinity entries must be finite")
    if low < 0.0:
        raise ValueError("affinity entries must be nonnegative")
    degree = r.sum(axis=1)
    if not np.isfinite(degree).all():
        raise NonFiniteAffinityError("affinity entries and row sums must be finite")
    tol = _SYMMETRY_TOL * max(1.0, float(r.max()))
    # the asymmetry, in the C-ordered view of the buffer that becomes A0
    a0 = np.subtract(r, r.T, out=buffer.T)
    asymmetry = float(np.abs(a0, out=a0).max())
    if asymmetry > tol:
        raise ValueError("affinity must be symmetric")
    diagonal = np.diagonal(r)
    if np.abs(diagonal).max() > tol:
        raise ValueError("affinity diagonal must be zero")
    if asymmetry > 0.0 or diagonal.any():
        r = 0.5 * (r + r.T)
        np.fill_diagonal(r, 0.0)
        degree = r.sum(axis=1)
    return r.T, degree, buffer


def _check_scores(system: PrecisionSystem, scores: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != system.n:
        raise ValueError(f"{name} must be ({system.n}, m), got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def map_infer(system: PrecisionSystem, scores: np.ndarray) -> np.ndarray:
    """Energy-minimizing labelling: the unique solution of A0 Y = Z."""
    return system.solve(_check_scores(system, scores, "scores"))


def _gaussian_nll(v: np.ndarray, logdet_a0: float) -> float:
    # ||v||^2 - (m/2) logdet(A0) + (n m / 2) log(pi) with v = L'(Y - W);
    # the sum runs in memory order, so callers pass v F-ordered, as trmm
    # returns it
    n, m = v.shape
    quad = float((v * v).sum())
    return quad - 0.5 * m * logdet_a0 + 0.5 * n * m * np.log(np.pi)


def nll(system: PrecisionSystem, scores: np.ndarray, targets: np.ndarray) -> float:
    """Exact negative log-density of the targets under the model."""
    z = _check_scores(system, scores, "scores")
    y = _check_scores(system, targets, "targets")
    if y.shape != z.shape:
        raise ValueError(f"targets {y.shape} do not match scores {z.shape}")
    # tr(Y'A0 Y) - 2 tr(Z'Y) + tr(Z'W) = ||L'(Y - W)||^2 with A0 W = Z;
    # trmm reads only the factor's lower triangle
    v = dtrmm(1.0, system.factor, y - system.solve(z), lower=1, trans_a=1)
    return _gaussian_nll(v, system.logdet_a0)


def unary_nll(scores: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """``nll`` and its score gradient at R = 0, where A0 = I.

    Needs no system: MAP is the scores, L = I and log det A0 = 0.  The
    result is bit-identical to ``nll``/``nll_backward`` on
    ``assemble(zeros)``.
    """
    z = np.asarray(scores, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if z.ndim != 2 or y.shape != z.shape:
        raise ValueError(f"targets {y.shape} do not match scores {z.shape}")
    return _gaussian_nll(np.asfortranarray(y - z), 0.0), 2.0 * (z - y)


def nll_backward(
    system: PrecisionSystem,
    scores: np.ndarray,
    targets: np.ndarray,
    *,
    work: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the negative log-density w.r.t. scores and affinity.

    The affinity gradient accounts for the degree matrix's dependence on
    R: entry [p, q] is the sensitivity to a symmetric perturbation of the
    pair R[p,q] = R[q,p], dA0[p,p] + dA0[q,q] - 2 dA0[p,q].  With ``work``
    it lives in the lower triangle of work's "affinity", where ``potri``
    inverts the system's factor in place when that array holds it, so the
    system is spent: call ``nll`` first.
    """
    z = _check_scores(system, scores, "scores")
    y = _check_scores(system, targets, "targets")
    m = z.shape[1]
    w = system.solve(z)
    dscores = 2.0 * (w - y)
    # dA0 = y y' - w w' - (m/2) A0^-1.  potri turns the factor, in place
    # when it is work's own, into the lower triangle of A0^-1, the only
    # one syr2k reads
    n = system.n
    x = square(work, "affinity", n)
    if x is not system.factor:
        np.copyto(x, system.factor)
    x, info = dpotri(x, lower=1, overwrite_c=1)
    if info != 0:  # unreachable: the factor came from a successful potrf
        raise RuntimeError(f"potri failed with info {info}")
    diag = (y * y).sum(axis=1) - (w * w).sum(axis=1) - 0.5 * m * np.diagonal(x)
    # m A0^-1 + [y, w] [-y, w]' + [-y, w] [y, w]' + diag_p + diag_q
    # = -2 dA0 + diag_p + diag_q
    x = _outer_sum(_stacked((y, w), diag), _stacked((-y, w), 1.0), x, beta=float(m))
    return dscores, symmetric_result(x, work)


def map_backward(
    system: PrecisionSystem,
    labelling: np.ndarray,
    dlabelling: np.ndarray,
    *,
    work: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Implicit differentiation through the solve A0 Y = Z.

    Given dL/dY at the inferred labelling, returns (dL/dZ, dL/dR) without
    ever re-solving the forward system from scratch: one extra solve with
    the incoming gradient suffices.  With ``work``, dL/dR lives in the
    lower triangle of work's "affinity", written after the solve, so a
    system whose factor that array holds is spent.
    """
    y = _check_scores(system, labelling, "labelling")
    g = system.solve(_check_scores(system, dlabelling, "dlabelling"))
    # dA0 is the symmetric part of -g y', and
    # g y' + y g' + diag_p + diag_q = -2 dA0 + diag_p + diag_q
    diag = -(g * y).sum(axis=1)
    x = _outer_sum(_stacked((g,), diag), _stacked((y,), 1.0), square(work, "affinity", system.n))
    return g, symmetric_result(x, work)
