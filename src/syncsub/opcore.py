"""Dense complex linear algebra for operator computations.

Operators are plain square numpy arrays of complex128. Helpers here validate
structural invariants (Hermiticity, unitarity) against explicit tolerances
rather than wrapping arrays in classes; downstream modules build their
domain objects on top of these primitives.

All functions are pure and hold no global state.
"""

from __future__ import annotations

import numpy as np

HERM_TOL = 1e-12        # relative to max(1, ||M||)
UNITARY_TOL = 1e-12     # scaled by dimension
RECON_TOL = 1e-12       # eigendecomposition reconstruction, relative
KERNEL_TOL = 1e-10      # kernel cutoff, relative to ||K|| = max|a_i - b_j| (clocks.label_gaps)
KERNEL_ABS_FLOOR = 1e-12   # absolute cutoff for numerically zero matrices


class NumericalError(RuntimeError):
    """A numeric invariant failed beyond its tolerance mid-computation."""


def as_complex_matrix(entries) -> np.ndarray:
    """Validate and return a square, finite complex128 matrix."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def operator_norm(a) -> float:
    """Spectral norm (largest singular value); 0.0 without an SVD when every entry is 0.

    LAPACK returns exactly 0 for a zero matrix, so the shortcut changes no value.
    """
    a = np.asarray(a, dtype=np.complex128)
    if not a.any():
        return 0.0
    return float(np.linalg.norm(a, 2))


def _extreme_norm(lowest: float, highest: float) -> float:
    """||M|| of a Hermitian M from its extreme eigenvalues: max(|lambda_min|, |lambda_max|)."""
    return max(abs(lowest), abs(highest))


def hermitian_norm(m) -> float:
    """Spectral norm of an exactly Hermitian matrix from one eigvalsh; 0.0 without
    one when every entry is 0, as operator_norm.

    eigvalsh reads one triangle, so ``m`` must be Hermitian bit for bit (formed
    as (A + A^dag)/2, or as i[H, D] for such an H and a real diagonal D).
    Bound: eigvalsh and the SVD are backward stable, each returning the exact
    spectrum of M + E with ||E|| <= p(n) u ||M|| for an n x n M, u the unit
    roundoff; by Weyl's inequality each extreme value moves by at most ||E||.
    Taking p(n) = 2 n^2 for both, as the tests do for every factorization,
    |hermitian_norm(M) - ||M||_2 (SVD)| <= 4 n^2 u ||M||.
    """
    m = np.asarray(m, dtype=np.complex128)
    if not m.any():
        return 0.0
    w = np.linalg.eigvalsh(m)
    return _extreme_norm(float(w[0]), float(w[-1]))


def kron_sum(x, y) -> np.ndarray:
    """X (x) I + I (x) Y, dense: the library's one builder of a Kronecker sum."""
    return np.kron(x, np.eye(y.shape[0])) + np.kron(np.eye(x.shape[0]), y)


def kron_sum_norm(x, y) -> float:
    """||X (x) I + I (x) Y|| for Hermitian X and Y, from two factor-size eigvalsh calls.

    The two terms commute, so the spectrum of the sum is {x_k + y_l} and its
    norm is max(|x_max + y_max|, |x_min + y_min|): exact, with no n x n matrix
    formed. The sums are Python floats, so one beyond the float range is inf,
    without a numpy warning.
    """
    xs, ys = np.linalg.eigvalsh(x), np.linalg.eigvalsh(y)
    return _extreme_norm(float(xs[0]) + float(ys[0]), float(xs[-1]) + float(ys[-1]))


def screened_norm(r, limit: float) -> float:
    """Spectral norm of ``r`` as far as the check ``||R|| <= limit`` needs it:
    ||R||_F when that is at most ``limit``, which settles the check because
    ||R|| <= ||R||_F, and the exact ||R|| otherwise. The screen of ``check``.
    A sum of squares that overflows gives an inf screen, which settles nothing,
    so it is taken without a numpy warning."""
    with np.errstate(over="ignore"):
        fro = float(np.linalg.norm(r))
    return fro if fro <= limit else operator_norm(r)


def check(residual, tol: float, scale=None) -> tuple:
    """The library's one rule for a gated comparison: (r, r <= tol * max(1, scale())).

    ``residual`` is a number r, or a matrix R whose r = ||R|| is screened against
    ``tol`` (screened_norm), so a failing check reports the spectral norm.
    Without ``scale`` the limit is ``tol``. ``scale`` is called only when
    r > tol, the smallest the limit can be, so a norm it takes is skipped for a
    residual within tol; a scale that is not finite raises NumericalError, since
    that limit would pass any residual. A NaN residual fails.
    """
    r = screened_norm(residual, tol) if np.ndim(residual) == 2 else residual
    if r <= tol or scale is None:
        return r, bool(r <= tol)
    s = scale()
    if not np.isfinite(s):
        raise NumericalError(f"tolerance scale is not finite ({s!r})")
    return r, bool(r <= tol * max(1.0, s))


def require_hermitian(m) -> np.ndarray:
    """Return ``m`` as a complex matrix, raising unless ||M - M^dag|| <= HERM_TOL *
    max(1, ||M||) (``check``)."""
    m = as_complex_matrix(m)
    res, ok = check(m - m.conj().T, HERM_TOL, lambda: operator_norm(m))
    if not ok:
        raise ValueError(f"matrix is not Hermitian: residual {res:.3e} exceeds tolerance")
    return m


def require_unitary(u) -> np.ndarray:
    """Return ``u`` as a complex matrix, raising unless ||U^dag U - I|| <= UNITARY_TOL * dim."""
    u = as_complex_matrix(u)
    res, ok = check(u.conj().T @ u - np.eye(u.shape[0]), UNITARY_TOL * u.shape[0])
    if not ok:
        raise ValueError(f"matrix is not unitary: residual {res:.3e} exceeds tolerance")
    return u


def _factor_indices(x: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """X (d_A * d_B rows, or one such vector) as (d_A, d_B, m): row r = i_a * d_B + i_b."""
    if x.ndim not in (1, 2) or x.shape[0] != d_a * d_b:
        raise ValueError(f"operand shape {x.shape} does not match the {d_a * d_b}-dim product space")
    return x.reshape(d_a, d_b, x.size // (d_a * d_b))


def kron_apply(a, b, x) -> np.ndarray:
    """(A (x) B) X without forming the Kronecker product.

    A acts on the first factor index of X's rows and B on the second:
    n^2 (d_A + d_B) products for an n x n X instead of n^3. Right products
    follow from transposes: X M = (M^T X^T)^T.
    """
    a, b = as_complex_matrix(a), as_complex_matrix(b)
    x = np.asarray(x, dtype=np.complex128)
    y = _factor_indices(x, a.shape[0], b.shape[0])
    return (b @ np.tensordot(a, y, axes=1)).reshape(x.shape)


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry (the first, on ties) is real positive.

    All-zero columns are left as they are. The pivot's modulus is taken with
    np.hypot, which rounds as scalar abs does; np.abs on an array may differ in
    the last bit.
    """
    v = np.array(v, dtype=np.complex128, copy=True)
    piv = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    mag = np.hypot(piv.real, piv.imag)
    live = mag > 0.0
    v[:, live] *= piv[live].conj() / mag[live]
    return v


def spectrum(m: np.ndarray) -> tuple:
    """Eigendecomposition (w, v) of an exactly Hermitian complex matrix, as eigh
    returns it: eigenvalues ascending, and the matching orthonormal eigenbasis
    as columns, each with its largest-magnitude component real positive.

    eigh reads one triangle, so the caller Hermitizes ``m`` where it forms it,
    (A + A^dag)/2, and no copy is made here. The reconstruction error is
    checked against RECON_TOL * max(1, max|lambda|), where max|lambda| is ||M||
    read off the computed spectrum; its Frobenius norm settles a pass, and the
    SVD runs only above that limit.
    """
    w, v = np.linalg.eigh(m)
    v = _fix_phases(v)
    err, ok = check((v * w) @ v.conj().T - m, RECON_TOL * max(1.0, float(np.max(np.abs(w)))))
    if not ok:
        raise NumericalError(f"eigendecomposition reconstruction error {err:.3e}")
    return w, v


def kernel_cutoff(sigma_max: float, tol: float) -> float:
    """Absolute singular-value cutoff: tol * sigma_max, floored at KERNEL_ABS_FLOOR,
    so that a matrix that is zero up to roundoff has the full space as its kernel."""
    if tol <= 0:
        raise ValueError("kernel tolerance must be positive")
    return max(tol * sigma_max, KERNEL_ABS_FLOOR)

