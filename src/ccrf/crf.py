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
n x n system blockwise, one solve per score column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm, dsymv, dsyr2k, dtrmm
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs

_SYMMETRY_TOL = 1e-12
# columns per panel when a one-triangle result is mirrored into a full matrix
_MIRROR_PANEL = 256


class NonFiniteAffinityError(ValueError):
    """An affinity matrix held a NaN or infinite entry."""


class Workspace:
    """Named n x n float64 arrays that live across calls of the same n.

    The field functions take one as ``work`` and write their n x n results
    into its arrays instead of fresh ones; an array is reallocated, zeroed
    and F-ordered, only when n changes.  Every symmetric result written
    there is exact in the array's lower triangle only, which is all that
    LAPACK and the symmetric BLAS routines read; the other triangle holds
    finite or NaN leftovers that nothing reduces over.  A result stays
    valid only until the next call that writes the same name: "kernel"
    (the negated squared distances, then the Gaussian kernel), "a0" (A0,
    factored in place) and "affinity" (the flush mask, then R, then
    dL/dR, then the kernel-weighted gradient).  Passed back with the same
    workspace, its own "affinity" is trusted without the full-matrix
    checks that any other matrix gets.
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


def symmetric_product(
    left: np.ndarray, right: np.ndarray, out: np.ndarray, beta: float = 0.0
) -> np.ndarray:
    """The lower triangle of left right' + right left' + beta out, in ``out``.

    One dsyr2k, which reads and writes only the lower triangle of the
    F-ordered ``out``.  ``left`` and ``right`` are C-ordered (n, k), passed
    as their F-ordered transposes, so f2py copies nothing.  numpy and
    scipy each bundle their own OpenBLAS thread pool; running every n x n
    product on scipy's, the one that factors A0, keeps the two pools from
    contending.  Returns dsyr2k's result, ``out`` itself unless f2py had
    to copy it.
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


@dataclass
class PrecisionSystem:
    """Cholesky factor of A0 = I + D - R, with A0's diagonal and log-det.

    ``factor`` is F-ordered and holds L in its lower triangle and, unless
    R was the workspace's own one-triangle affinity (``keeps_a0`` False),
    A0's strict upper triangle (-R), untouched by the factorization,
    above it.
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
        ``assemble`` on it.  A system assembled from the workspace's own
        affinity never held -R outside the triangle the factor took, so
        asking it for A0 raises instead.
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
    ``pairwise_forward`` leaves it, is built that way and exact in its
    lower triangle, so only its finiteness is checked, through its row
    sums.  Factorization failure would contradict the
    positive-definiteness guarantee and is surfaced as a hard internal
    error.
    """
    trusted = work is not None and work.holds("affinity", affinity)
    if trusted:
        r = affinity
        n = r.shape[0]
        # a NaN or infinite entry makes its row sums nonfinite
        degree = dsymv(1.0, r, np.ones(n), lower=1)
        if not np.isfinite(degree).all():
            raise NonFiniteAffinityError("affinity entries and row sums must be finite")
        a0 = square(work, "a0", n)
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

    R comes back as an F-ordered view, like the buffer, so that copying it
    in is one contiguous pass.
    """
    r = np.asarray(affinity, dtype=np.float64)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or r.size == 0:
        raise ValueError(f"affinity must be a nonempty square matrix, got shape {r.shape}")
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
    a0 = np.subtract(r, r.T, out=square(work, "a0", r.shape[0]).T)
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
    return r.T, degree, a0.T


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


def energy(system: PrecisionSystem, scores: np.ndarray, labelling: np.ndarray) -> float:
    """Quadratic labelling energy tr(Y'A0 Y) - 2 tr(Z'Y) + tr(Z'Z)."""
    z = _check_scores(system, scores, "scores")
    y = _check_scores(system, labelling, "labelling")
    if y.shape != z.shape:
        raise ValueError(f"labelling {y.shape} does not match scores {z.shape}")
    a0y = dgemm(1.0, system.a0.T, y, trans_a=1)
    return float((y * a0y).sum() - 2.0 * (z * y).sum() + (z * z).sum())


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


def symmetrize(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x + x' written into ``out``, with a zero diagonal.

    An entry plus its mirror is the same float both ways round, so the
    result is exactly symmetric.
    """
    np.add(x, x.T, out=out)
    np.fill_diagonal(out, 0.0)
    return out


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
    it lives in the lower triangle of work's "affinity".
    """
    z = _check_scores(system, scores, "scores")
    y = _check_scores(system, targets, "targets")
    m = z.shape[1]
    w = system.solve(z)
    dscores = 2.0 * (w - y)
    # dA0 = y y' - w w' - (m/2) A0^-1.  potri turns a copy of the factor
    # into the lower triangle of A0^-1, the only one syr2k reads
    n = system.n
    x = square(work, "affinity", n)
    np.copyto(x, system.factor)
    x, info = dpotri(x, lower=1, overwrite_c=1)
    if info != 0:  # unreachable: the factor came from a successful potrf
        raise RuntimeError(f"potri failed with info {info}")
    diag = (y * y).sum(axis=1) - (w * w).sum(axis=1) - 0.5 * m * np.diagonal(x)
    # m A0^-1 + [y, w, diag] [-y, w, 1]' + [-y, w, 1] [y, w, diag]'
    # = -2 dA0 + diag_p + diag_q
    left = np.hstack([y, w, diag[:, None]])
    right = np.hstack([-y, w, np.ones((n, 1))])
    x = symmetric_product(left, right, x, beta=float(m))
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
    lower triangle of work's "affinity".
    """
    y = _check_scores(system, labelling, "labelling")
    g = system.solve(_check_scores(system, dlabelling, "dlabelling"))
    # dA0 is the symmetric part of -g y'; [g, diag] [y, 1]' plus its
    # transpose is g y' + y g' + diag_p + diag_q = -2 dA0 + diag_p + diag_q
    n = system.n
    diag = -(g * y).sum(axis=1)
    x = symmetric_product(
        np.hstack([g, diag[:, None]]),
        np.hstack([y, np.ones((n, 1))]),
        square(work, "affinity", n),
    )
    return g, symmetric_result(x, work)
