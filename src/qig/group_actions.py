"""The state-space group actions of SL(2, C) and of the cotangent group.

Two groups act transitively on the faithful qubit states: SL(2, C) through
the power-deformed conjugations alpha_A, and the cotangent group of SU(2)
(pairs (U, a) with the semidirect product law) through the exponential-
translation action attached to the BKM metric.  Both are evaluated in
closed form on Bloch vectors, through the Lorentz matrix of the group
element (Bengtsson & Zyczkowski, Geometry of Quantum States), with no
eigensolver.  The closed forms broadcast a stack of states against a stack
of group elements, so a one-parameter orbit on a whole time grid, or an
axiom check over all its samples, is one batched evaluation.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, NumericError
from .state_space import (PAULIS, SIGMA_0, QubitState, Record,
                          TracelessObservable, bloch_norm, bloch_stack,
                          check_bloch_array, complex_matrix_from_json,
                          complex_matrix_to_json, require_all, require_count,
                          require_positive, state_from_bloch)

EIG_DEGENERACY_CUTOFF = 1e-8  # series fallback for the 2x2 exponential
DET_TOLERANCE = 1e-10  # |det - 1| allowed for an SL(2, C) or SU(2) matrix

_PAULI4 = np.array((SIGMA_0,) + PAULIS)
# _LORENTZ_TERMS[(j, k, i, l), (a, b)] = sigma_a[i, j] sigma_b[k, l]
_LORENTZ_TERMS = np.einsum("aij,bkl->jkilab", _PAULI4, _PAULI4).reshape(16, 16)


def _unit_det(m: np.ndarray) -> np.ndarray:
    """Whether each matrix of a stack (..., 2, 2) has determinant 1; one
    whose determinant overflows has not."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(np.linalg.det(m) - 1.0) <= DET_TOLERANCE


def _lorentz(m: np.ndarray) -> np.ndarray:
    """Lambda(m)_{mu nu} = tr(sigma_mu m sigma_nu m^dag)/2, a real 4x4 matrix.

    It maps the coefficients (t, x) of M = t I + x.sigma to those of m M m^dag.
    M has eigenvalues t +- |x|, and for |det m| = 1 the determinant
    t^2 - |x|^2 is invariant.  m may be a stack (..., 2, 2); the 16 products
    m_jk conj(m_il) meet the Pauli traces in one matrix product.
    """
    stack = m.shape[:-2]
    # An entry too large to square overflows quietly; the finite check of
    # the moved coordinates in _alpha_images raises NumericError.
    with np.errstate(over="ignore", invalid="ignore"):
        products = m[..., :, :, None, None] * m.conj()[..., None, None, :, :]
        return 0.5 * (products.reshape(stack + (16,)) @ _LORENTZ_TERMS).real.reshape(
            stack + (4, 4))


def _apply(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m x over broadcast stacks of matrices (..., n, n) and vectors (..., n)."""
    return (m @ x[..., None])[..., 0]


def _power_coords(v: np.ndarray, r: np.ndarray, s: float) -> np.ndarray:
    """(t, x) with rho^s = lambda_+^s (t I + x.sigma), for each rho of a
    stack of Bloch vectors v (..., 3) with norms r (...); shape (..., 4).

    With lambda_+- = (1 +- r)/2 and k = (lambda_-/lambda_+)^s, t = (1 + k)/2
    and x = (1 - k)/2 v/r (0 at r = 0), so t^2 - |x|^2 = k.  Scaling out
    lambda_+^s keeps t >= 1/2, so no large |s| underflows it.
    """
    k = ((1.0 - r) / (1.0 + r)) ** s
    out = np.empty(np.shape(r) + (4,))
    out[..., 0] = 0.5 * (1.0 + k)
    out[..., 1:] = _along(v, r, 0.5 * (1.0 - k))
    return out


class SLGroupElement(Record):
    """A 2x2 complex matrix with determinant 1."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        super().__init__(matrix)
        if np.shape(matrix) != (2, 2):
            raise DomainError(f"an SL(2, C) element is a 2x2 matrix, got shape "
                              f"{np.shape(matrix)}")
        if not _unit_det(matrix):
            with np.errstate(over="ignore", invalid="ignore"):
                det = complex(np.linalg.det(matrix))
            raise DomainError(f"determinant {det} != 1")

    def __matmul__(self, other: "SLGroupElement") -> "SLGroupElement":
        return SLGroupElement(self.matrix @ other.matrix)

    def to_json(self) -> dict:
        return {"sl_matrix": complex_matrix_to_json(self.matrix)}

    @staticmethod
    def from_json(data) -> "SLGroupElement":
        return SLGroupElement(complex_matrix_from_json(data["sl_matrix"]))


def sl_identity() -> SLGroupElement:
    return SLGroupElement(np.eye(2, dtype=complex))


def _expm_traceless_2x2(m: np.ndarray) -> np.ndarray:
    """exp of traceless 2x2 matrices: cosh(mu) I + sinh(mu)/mu m, mu^2 = -det m.

    m may be a stack (..., 2, 2).  The sinh(mu)/mu factor switches to its
    series where |mu| is small (degenerate eigenvalues).  A non-finite
    result raises NumericError.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mu = np.sqrt(m[..., 0, 1] * m[..., 1, 0] - m[..., 0, 0] * m[..., 1, 1])
        sinch, cosh = np.sinh(mu) / mu, np.cosh(mu)
        small = np.abs(mu) < EIG_DEGENERACY_CUTOFF
        if small.any():
            mu2 = mu * mu
            sinch = np.where(small, 1.0 + mu2 / 6.0 + mu2 * mu2 / 120.0, sinch)
            cosh = np.where(small, 1.0 + mu2 / 2.0 + mu2 * mu2 / 24.0, cosh)
        out = cosh[..., None, None] * _PAULI4[0] + sinch[..., None, None] * m
    if not np.isfinite(out).all():
        raise NumericError("matrix exponential of the generator overflows")
    return out


def sl_from_generators(a: TracelessObservable, b: TracelessObservable) -> SLGroupElement:
    """exp((a_matrix - i b_matrix)/2); traceless generators give det = 1."""
    gen = 0.5 * (a.matrix() - 1j * b.matrix())
    return SLGroupElement(_expm_traceless_2x2(gen))


def special_unitary_from_generator(b: TracelessObservable) -> np.ndarray:
    """exp(b_matrix/(2i)), an SU(2) matrix."""
    return _expm_traceless_2x2(-0.5j * b.matrix())


class CotangentGroupElement(Record):
    """Pair (U, a): special unitary U and traceless Hermitian translation a."""

    __slots__ = ("unitary", "a")

    def __init__(self, unitary: np.ndarray, a: TracelessObservable):
        super().__init__(unitary, a)
        u = np.asarray(unitary, dtype=complex)
        if not np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-10:
            raise DomainError("U is not unitary")
        if not _unit_det(u):
            raise DomainError("det U != 1")


def cotangent_identity() -> CotangentGroupElement:
    return CotangentGroupElement(np.eye(2, dtype=complex),
                                 TracelessObservable(0.0, 0.0, 0.0))


def cotangent_multiply(h1: CotangentGroupElement,
                       h2: CotangentGroupElement) -> CotangentGroupElement:
    """Semidirect product (U1, a1) (U2, a2) = (U1 U2, a1 + U1 a2 U1^dag)."""
    rotated = h1.unitary @ h2.a.matrix() @ h1.unitary.conj().T
    return CotangentGroupElement(
        h1.unitary @ h2.unitary,
        TracelessObservable.from_matrix(h1.a.matrix() + rotated))


def cotangent_inverse(h: CotangentGroupElement) -> CotangentGroupElement:
    u_inv = h.unitary.conj().T
    return CotangentGroupElement(
        u_inv, TracelessObservable.from_matrix(-u_inv @ h.a.matrix() @ u_inv.conj().T))


def _sqrt_a(a_const: float) -> float:
    require_positive("alpha_A", "A", a_const)
    return math.sqrt(a_const)


def _along(x: np.ndarray, norm: np.ndarray, length: np.ndarray) -> np.ndarray:
    """length * x/|x| over a stack of vectors x with norms norm; 0 where x = 0."""
    scale = np.divide(length, norm, out=np.zeros_like(norm), where=norm > 0.0)
    return scale[..., None] * x


def _alpha_images(s: float, lorentz: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bloch images under alpha_A, s = sqrt(A), of the states v (..., 3) by
    the Lorentz matrices (..., 4, 4); the two stacks broadcast.

    g rho^s g^dag has coefficients (t', x') = Lambda(g) (t, x) and
    eigenvalues mu_+ = t' + |x'| and mu_- = det / mu_+ (not the cancelling
    t' - |x'|); the image is (1 - q)/(1 + q) x'/|x'|, q = (mu_-/mu_+)^(1/s).
    """
    r = bloch_norm(v)
    moved = _apply(lorentz, _power_coords(v, r, s))
    require_all(np.isfinite(moved).all(axis=-1), moved, NumericError,
                "(t, x) of g rho^sqrt(A) g^dag", "is not finite")
    x = moved[..., 1:]
    rx = bloch_norm(x)
    mu_hi = moved[..., 0] + rx
    det = ((1.0 - r) / (1.0 + r)) ** s  # k of _power_coords
    q = (det / mu_hi / mu_hi) ** (1.0 / s)
    return _along(x, rx, (1.0 - q) / (1.0 + q))


def _bkm_images(rotation: np.ndarray, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bloch images under the BKM action of the states v (..., 3) by the
    elements (U, a) given as rotations R(U) (..., 3, 3) and translations
    a (..., 3); the stacks broadcast.

    ln rho = c I + artanh(r) n.sigma, so the traceless part of the exponent
    is w = artanh(r) R(U) n + a, and the image is tanh|w| w/|w|.
    """
    r = bloch_norm(v)
    # artanh(r) n = scale v, with scale -> 1 at r = 0
    scale = np.divide(np.arctanh(r), r, out=np.ones_like(r), where=r > 0.0)
    w = scale[..., None] * _apply(rotation, v) + a
    require_all(np.isfinite(w).all(axis=-1), w, NumericError, "BKM exponent w",
                "is not finite")
    rw = bloch_norm(w)
    return _along(w, rw, np.tanh(rw))


def action_alpha_a(a_const: float, g: SLGroupElement, rho: QubitState) -> QubitState:
    """alpha_A: rho -> (g rho^sqrt(A) g^dag)^(1/sqrt(A)) normalized to trace 1.

    A = 1 is plain conjugate-and-normalize; A = 1/4 squares g sqrt(rho) g^dag.
    See _alpha_images for the closed form.
    """
    s = _sqrt_a(a_const)
    return state_from_bloch(*_alpha_images(s, _lorentz(g.matrix), rho.bloch))


def action_bkm(h: CotangentGroupElement, rho: QubitState) -> QubitState:
    """BKM action: rho -> exp(U ln(rho) U^dag + a) normalized to trace 1.

    See _bkm_images for the closed form.
    """
    rotation = _lorentz(h.unitary)[1:, 1:]
    return state_from_bloch(*_bkm_images(rotation, h.a.coeffs, rho.bloch))


class ActionAxiomReport(NamedTuple):
    action: str
    identity_dev: float
    compatibility_dev: float

    @property
    def max_dev(self) -> float:
        return max(self.identity_dev, self.compatibility_dev)


def _draws(seed: int, key: int, samples: int, states: int, observables: int):
    """Random Bloch vectors (samples, states, 3) and Pauli coefficient
    triples (samples, observables, 3), drawn sample by sample from the
    stream (seed, key): first the sample's states, then its triples.

    A state is a normal direction scaled to a radius uniform in [0, 0.9).
    The coefficients are uniform in [-0.5, 0.5): bounded generators keep the
    group elements well conditioned, so the axiom deviations measure
    algebra, not roundoff.
    """
    require_count("samples", samples)
    require_count("seed", seed, 0)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
    directions = np.empty((samples, states, 3))
    radii = np.empty((samples, states))
    coeffs = np.empty((samples, observables, 3))
    for i in range(samples):
        for j in range(states):
            directions[i, j] = rng.standard_normal(3)
            radii[i, j] = rng.uniform(0.0, 0.9)
        coeffs[i] = rng.uniform(-0.5, 0.5, size=(observables, 3))
    # |direction| as the dot product that np.linalg.norm takes, row by row
    norms = np.sqrt(directions[..., None, :] @ directions[..., None])[..., 0, 0]
    return directions * (radii / norms)[..., None], coeffs


def _pauli_matrices(coeffs: np.ndarray) -> np.ndarray:
    """c.sigma for a stack of Pauli coefficient triples c (..., 3)."""
    return np.tensordot(coeffs, _PAULI4[1:], 1)


def _max_gap(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.max(np.abs(x - y)))


def verify_alpha_action(a_const: float, samples: int = 200,
                        seed: int = 0) -> ActionAxiomReport:
    """Identity and compatibility axioms for alpha_A on random triples.

    Each sample is a state rho and two elements g_i = exp((a_i - i b_i)/2).
    The identity, g2 rho, g1 (g2 rho) and (g1 g2) rho are one batched
    evaluation each, over all samples, and every image is checked.
    """
    s = _sqrt_a(a_const)
    states, coeffs = _draws(seed, 1, samples, 1, 4)
    rho = states[:, 0]
    # per sample a1, b1, a2, b2
    g1, g2 = np.moveaxis(_expm_traceless_2x2(
        0.5 * (_pauli_matrices(coeffs[:, 0::2])
               - 1j * _pauli_matrices(coeffs[:, 1::2]))), 1, 0)
    g12 = g1 @ g2
    # A determinant of a computed element that drifted from 1 is a numeric
    # breakdown, not bad input.
    for g, what in ((g1, "g1"), (g2, "g2"), (g12, "g1 g2")):
        require_all(_unit_det(g), np.arange(samples), NumericError, "sample",
                    f"gives a determinant of {what} != 1")

    def images(g, v):
        return check_bloch_array(_alpha_images(s, _lorentz(g), v))

    ident = images(sl_identity().matrix, rho)
    lhs = images(g1, images(g2, rho))
    rhs = images(g12, rho)
    return ActionAxiomReport(f"alpha_A(A={a_const:g})", _max_gap(ident, rho),
                             _max_gap(lhs, rhs))


def verify_bkm_action(samples: int = 200, seed: int = 0,
                      multiply=cotangent_multiply) -> ActionAxiomReport:
    """Identity and compatibility axioms for the BKM cotangent action.

    ``multiply`` is injectable so a deliberately wrong group law can be shown
    to fail the compatibility axiom.  It takes and returns
    CotangentGroupElement, so the elements are built, and checked, sample by
    sample; the images are one batched evaluation per axiom term.
    """
    states, coeffs = _draws(seed, 2, samples, 1, 4)
    rho = states[:, 0]
    # per sample b1, a1, b2, a2, with h_i = (exp(b_i/(2i)), a_i)
    u = _expm_traceless_2x2(-0.5j * _pauli_matrices(coeffs[:, 0::2]))
    a = coeffs[:, 1::2]
    h1, h2 = ([CotangentGroupElement(u[i, j], TracelessObservable.from_coeffs(a[i, j]))
               for i in range(samples)] for j in (0, 1))
    products = [multiply(x, y) for x, y in zip(h1, h2)]

    def images(unitary, a, v):
        return check_bloch_array(_bkm_images(_lorentz(unitary)[..., 1:, 1:], a, v))

    identity = cotangent_identity()
    ident = images(identity.unitary, identity.a.coeffs, rho)
    lhs = images(u[:, 0], a[:, 0], images(u[:, 1], a[:, 1], rho))
    rhs = images(np.array([h.unitary for h in products]),
                 np.array([h.a.coeffs for h in products]), rho)
    return ActionAxiomReport("bkm_cotangent", _max_gap(ident, rho),
                             _max_gap(lhs, rhs))


def transitivity_probe(samples: int = 100, seed: int = 0) -> float:
    """Map rho1 to rho2 under alpha_1 with g = rho2^(1/2) rho1^(-1/2).

    Returns the maximal Bloch deviation over random pairs, all mapped in
    one batched evaluation.
    """
    states, _ = _draws(seed, 3, samples, 2, 0)
    rho1, rho2 = states[:, 0], states[:, 1]
    sqrt2 = np.tensordot(_power_coords(rho2, bloch_norm(rho2), 0.5), _PAULI4, 1)
    inv_sqrt1 = np.tensordot(_power_coords(rho1, bloch_norm(rho1), -0.5),
                             _PAULI4, 1)
    raw = sqrt2 @ inv_sqrt1
    g = raw / np.sqrt(np.linalg.det(raw))[:, None, None]
    require_all(_unit_det(g), np.arange(samples), NumericError, "sample",
                "gives a determinant of rho2^(1/2) rho1^(-1/2) != 1")
    moved = check_bloch_array(_alpha_images(1.0, _lorentz(g), rho1))
    return _max_gap(moved, rho2)


class Subgroup(Record):
    """The action of a one-parameter subgroup t -> h(t) on states.

    ``images`` maps times (T, 1, ..., 1) and Bloch vectors (..., 3) to the
    (T, ..., 3) Bloch images under h(t), evaluating the closed form once for
    the whole stack of group elements and states.  ``subgroup(t)`` is the
    action of h(t) as a QubitState -> QubitState map.
    """

    __slots__ = ("images",)

    def __init__(self, images: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        super().__init__(images)

    def __call__(self, t: float):
        return lambda rho: QubitState(*self.orbit([t], rho)[0].tolist())

    def orbit(self, times, rho) -> np.ndarray:
        """Bloch images (T, ..., 3) of rho, a QubitState or a stack of Bloch
        vectors (..., 3), at the times (T,); each image is checked to be a
        faithful state."""
        if isinstance(rho, QubitState):
            v = rho.bloch
        else:
            v = check_bloch_array(bloch_stack(rho))
        times = np.asarray(times, dtype=float)
        require_all(np.isfinite(times), times, DomainError, "time t", "is not finite")
        return check_bloch_array(
            self.images(times.reshape(times.shape + (1,) * (v.ndim - 1)), v))


def generator_of_action(subgroup: Subgroup, rho,
                        t_step: float = 1e-4) -> np.ndarray:
    """Bloch-space derivative d/dt subgroup(t)(rho) at t = 0, central diff.

    rho is a QubitState or a stack of Bloch vectors (..., 3); the result
    has the shape of its Bloch vectors.
    """
    require_positive("generator_of_action", "t_step", t_step)
    fwd, bwd = subgroup.orbit([t_step, -t_step], rho)
    return (fwd - bwd) / (2.0 * t_step)


def alpha_subgroup(a_const: float, a: TracelessObservable,
                   b: TracelessObservable) -> Subgroup:
    """t -> alpha_A along exp(t (a - i b)/2).

    At large |t| the exponential's determinant drifts from 1 through
    cancellation, which raises NumericError naming t.
    """
    s = _sqrt_a(a_const)
    gen = 0.5 * (a.matrix() - 1j * b.matrix())

    def images(times: np.ndarray, v: np.ndarray) -> np.ndarray:
        g = _expm_traceless_2x2(times[..., None, None] * gen)
        require_all(_unit_det(g), times, NumericError, "t",
                    "gives a determinant of exp(t (a - i b)/2) != 1")
        return _alpha_images(s, _lorentz(g), v)

    return Subgroup(images)


def bkm_subgroup(a: TracelessObservable, b: TracelessObservable) -> Subgroup:
    """t -> BKM action along (exp(t b/(2i)), t a)."""
    gen = -0.5j * b.matrix()

    def images(times: np.ndarray, v: np.ndarray) -> np.ndarray:
        rotation = _lorentz(_expm_traceless_2x2(times[..., None, None] * gen))
        with np.errstate(over="ignore"):  # _bkm_images rejects an infinite t a
            shift = times[..., None] * a.coeffs
        return _bkm_images(rotation[..., 1:, 1:], shift, v)

    return Subgroup(images)
