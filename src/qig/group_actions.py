"""The state-space group actions of SL(2, C) and of the cotangent group.

Two groups act transitively on the faithful qubit states: SL(2, C) through
the power-deformed conjugations alpha_A, and the cotangent group of SU(2)
(pairs (U, a) with the semidirect product law) through the exponential-
translation action attached to the BKM metric.  Both are evaluated in
closed form on Bloch vectors, through the Lorentz matrix of the group
element (Bengtsson & Zyczkowski, Geometry of Quantum States), with no
eigensolver.  The closed forms run over a stack of group elements, so a
one-parameter orbit on a whole time grid is one batched evaluation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericError
from .state_space import (PAULIS, SIGMA_0, QubitState, TracelessObservable,
                          bloch_norm, check_bloch_array,
                          complex_matrix_from_json, complex_matrix_to_json,
                          first_failing, state_from_bloch)

EIG_DEGENERACY_CUTOFF = 1e-8  # series fallback for the 2x2 exponential
DET_TOLERANCE = 1e-10  # |det - 1| allowed for an SL(2, C) or SU(2) matrix

_PAULI4 = np.array((SIGMA_0,) + PAULIS)


def _unit_det(m: np.ndarray) -> np.ndarray:
    """Whether each matrix of a stack (..., 2, 2) has determinant 1."""
    return np.abs(np.linalg.det(m) - 1.0) <= DET_TOLERANCE


def _lorentz(m: np.ndarray) -> np.ndarray:
    """Lambda(m)_{mu nu} = tr(sigma_mu m sigma_nu m^dag)/2, a real 4x4 matrix.

    It maps the coefficients (t, x) of M = t I + x.sigma to those of m M m^dag.
    M has eigenvalues t +- |x|, and for |det m| = 1 the determinant
    t^2 - |x|^2 is invariant.  m may be a stack (..., 2, 2).
    """
    return 0.5 * np.einsum("aij,...jk,bkl,...il->...ab", _PAULI4, m, _PAULI4,
                           m.conj()).real


def _power_coords(v: np.ndarray, r: float, s: float) -> np.ndarray:
    """(t, x) with rho^s = lambda_+^s (t I + x.sigma), for rho at Bloch v, |v| = r.

    With lambda_+- = (1 +- r)/2 and k = (lambda_-/lambda_+)^s, t = (1 + k)/2
    and x = (1 - k)/2 v/r, so t^2 - |x|^2 = k.  Scaling out lambda_+^s keeps
    t >= 1/2, so no large |s| underflows it.
    """
    k = ((1.0 - r) / (1.0 + r)) ** s
    out = np.empty(4)
    out[0] = 0.5 * (1.0 + k)
    out[1:] = 0.5 * (1.0 - k) / r * v if r > 0.0 else 0.0
    return out


@dataclass(frozen=True)
class SLGroupElement:
    """A 2x2 complex matrix with determinant 1."""

    matrix: np.ndarray

    def __post_init__(self):
        if not _unit_det(self.matrix):
            raise DomainError(f"determinant {complex(np.linalg.det(self.matrix))} != 1")

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


@dataclass(frozen=True)
class CotangentGroupElement:
    """Pair (U, a): special unitary U and traceless Hermitian translation a."""

    unitary: np.ndarray
    a: TracelessObservable

    def __post_init__(self):
        u = np.asarray(self.unitary, dtype=complex)
        if not np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-10:
            raise DomainError("U is not unitary")
        if not _unit_det(u):
            raise DomainError("det U != 1")
        if not np.all(np.isfinite(self.a.coeffs)):
            raise DomainError(f"translation a = {self.a.coeffs} is not finite")

    def to_json(self) -> dict:
        return {"unitary": complex_matrix_to_json(self.unitary),
                "a": self.a.to_json()}


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
    if not 0.0 < a_const < math.inf:
        raise DomainError(f"alpha_A requires finite A > 0, got {a_const}")
    return math.sqrt(a_const)


def _check_finite(values: np.ndarray, what: str) -> None:
    """NumericError naming the first row of a stack that is not finite."""
    if not np.isfinite(values).all():
        finite = np.isfinite(values).all(axis=-1)
        raise NumericError(f"{what} is not finite: "
                           f"{first_failing(finite, values)}")


def _along(x: np.ndarray, norm: np.ndarray, length: np.ndarray) -> np.ndarray:
    """length * x/|x| over a stack of vectors x with norms norm; 0 where x = 0."""
    scale = np.divide(length, norm, out=np.zeros_like(norm), where=norm > 0.0)
    return scale[..., None] * x


def _alpha_images(s: float, lorentz: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bloch images of the state v under alpha_A, s = sqrt(A), one per
    Lorentz matrix of the stack (..., 4, 4); the result has shape (..., 3).

    g rho^s g^dag has coefficients (t', x') = Lambda(g) (t, x) and
    eigenvalues mu_+ = t' + |x'| and mu_- = det / mu_+ (not the cancelling
    t' - |x'|); the image is (1 - q)/(1 + q) x'/|x'|, q = (mu_-/mu_+)^(1/s).
    """
    r = math.hypot(*v)
    moved = lorentz @ _power_coords(v, r, s)
    _check_finite(moved, "(t, x) of g rho^sqrt(A) g^dag")
    x = moved[..., 1:]
    rx = bloch_norm(x)
    mu_hi = moved[..., 0] + rx
    det = ((1.0 - r) / (1.0 + r)) ** s  # k of _power_coords
    q = (det / mu_hi / mu_hi) ** (1.0 / s)
    return _along(x, rx, (1.0 - q) / (1.0 + q))


def _bkm_images(rotation: np.ndarray, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bloch images of the state v under the BKM action of (U, a), one per
    element of the stacks rotation (..., 3, 3) = R(U) and a (..., 3).

    ln rho = c I + artanh(r) n.sigma, so the traceless part of the exponent
    is w = artanh(r) R(U) n + a, and the image is tanh|w| w/|w|.
    """
    r = math.hypot(*v)
    scale = math.atanh(r) / r if r > 0.0 else 1.0  # artanh(r) n = scale v
    w = scale * (rotation @ v) + a
    _check_finite(w, "BKM exponent w")
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


@dataclass(frozen=True)
class ActionAxiomReport:
    action: str
    samples: int
    seed: int
    identity_dev: float
    compatibility_dev: float

    @property
    def max_dev(self) -> float:
        return max(self.identity_dev, self.compatibility_dev)

    def to_json(self) -> dict:
        return {"action": self.action, "samples": self.samples, "seed": self.seed,
                "identity_dev": self.identity_dev,
                "compatibility_dev": self.compatibility_dev}


def _random_state(rng) -> QubitState:
    v = rng.standard_normal(3)
    v *= rng.uniform(0.0, 0.9) / np.linalg.norm(v)
    return QubitState(*v)


def _random_observable(rng, scale: float = 0.5) -> TracelessObservable:
    # Bounded coefficients keep the group elements well conditioned, so the
    # axiom deviations measure algebra, not eigensolver noise.
    return TracelessObservable.from_coeffs(rng.uniform(-scale, scale, size=3))


def verify_alpha_action(a_const: float, samples: int = 200,
                        seed: int = 0) -> ActionAxiomReport:
    """Identity and compatibility axioms for alpha_A on random triples."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    id_dev = comp_dev = 0.0
    for _ in range(samples):
        rho = _random_state(rng)
        g1 = sl_from_generators(_random_observable(rng), _random_observable(rng))
        g2 = sl_from_generators(_random_observable(rng), _random_observable(rng))
        id_dev = max(id_dev, float(np.max(np.abs(
            action_alpha_a(a_const, sl_identity(), rho).bloch - rho.bloch))))
        lhs = action_alpha_a(a_const, g1, action_alpha_a(a_const, g2, rho))
        rhs = action_alpha_a(a_const, g1 @ g2, rho)
        comp_dev = max(comp_dev, float(np.max(np.abs(lhs.bloch - rhs.bloch))))
    return ActionAxiomReport(f"alpha_A(A={a_const:g})", samples, seed,
                             id_dev, comp_dev)


def verify_bkm_action(samples: int = 200, seed: int = 0,
                      multiply=cotangent_multiply) -> ActionAxiomReport:
    """Identity and compatibility axioms for the BKM cotangent action.

    ``multiply`` is injectable so a deliberately wrong group law can be shown
    to fail the compatibility axiom.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2,)))
    id_dev = comp_dev = 0.0
    for _ in range(samples):
        rho = _random_state(rng)
        h1 = CotangentGroupElement(
            special_unitary_from_generator(_random_observable(rng)),
            _random_observable(rng))
        h2 = CotangentGroupElement(
            special_unitary_from_generator(_random_observable(rng)),
            _random_observable(rng))
        id_dev = max(id_dev, float(np.max(np.abs(
            action_bkm(cotangent_identity(), rho).bloch - rho.bloch))))
        lhs = action_bkm(h1, action_bkm(h2, rho))
        rhs = action_bkm(multiply(h1, h2), rho)
        comp_dev = max(comp_dev, float(np.max(np.abs(lhs.bloch - rhs.bloch))))
    return ActionAxiomReport("bkm_cotangent", samples, seed, id_dev, comp_dev)


def transitivity_probe(samples: int = 100, seed: int = 0) -> float:
    """Map rho1 to rho2 under alpha_1 with g = rho2^(1/2) rho1^(-1/2).

    Returns the maximal Bloch deviation over random pairs.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3,)))
    worst = 0.0
    for _ in range(samples):
        rho1, rho2 = _random_state(rng), _random_state(rng)
        sqrt2 = np.tensordot(_power_coords(rho2.bloch, rho2.r, 0.5), _PAULI4, 1)
        inv_sqrt1 = np.tensordot(_power_coords(rho1.bloch, rho1.r, -0.5), _PAULI4, 1)
        raw = sqrt2 @ inv_sqrt1
        g = SLGroupElement(raw / cmath.sqrt(np.linalg.det(raw)))
        moved = action_alpha_a(1.0, g, rho1)
        worst = max(worst, float(np.max(np.abs(moved.bloch - rho2.bloch))))
    return worst


@dataclass(frozen=True)
class Subgroup:
    """The action of a one-parameter subgroup t -> h(t) on states.

    ``images`` maps a time array (T,) and one Bloch vector to the (T, 3)
    Bloch images under h(t), evaluating the closed form once for the whole
    stack of group elements.  ``subgroup(t)`` is the action of h(t) as a
    QubitState -> QubitState map.
    """

    images: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, t: float):
        return lambda rho: QubitState(*self.orbit([t], rho)[0].tolist())

    def orbit(self, times, rho: QubitState) -> np.ndarray:
        """Bloch images (T, 3) of rho, each checked to be a faithful state."""
        return check_bloch_array(self.images(np.asarray(times, dtype=float),
                                             rho.bloch))


def generator_of_action(subgroup: Subgroup, rho: QubitState,
                        t_step: float = 1e-4) -> np.ndarray:
    """Bloch-space derivative d/dt subgroup(t)(rho) at t = 0, central diff."""
    fwd, bwd = subgroup.orbit([t_step, -t_step], rho)
    return (fwd - bwd) / (2.0 * t_step)


def alpha_subgroup(a_const: float, a: TracelessObservable,
                   b: TracelessObservable) -> Subgroup:
    """t -> alpha_A along exp(t (a - i b)/2)."""
    s = _sqrt_a(a_const)
    gen = 0.5 * (a.matrix() - 1j * b.matrix())

    def images(times: np.ndarray, v: np.ndarray) -> np.ndarray:
        g = _expm_traceless_2x2(times[:, None, None] * gen)
        unit = _unit_det(g)
        if not unit.all():
            raise DomainError(f"determinant of exp(t (a - i b)/2) != 1 at "
                              f"t = {first_failing(unit, times[:, None])[0]}")
        return _alpha_images(s, _lorentz(g), v)

    return Subgroup(images)


def bkm_subgroup(a: TracelessObservable, b: TracelessObservable) -> Subgroup:
    """t -> BKM action along (exp(t b/(2i)), t a)."""
    gen = -0.5j * b.matrix()

    def images(times: np.ndarray, v: np.ndarray) -> np.ndarray:
        rotation = _lorentz(_expm_traceless_2x2(times[:, None, None] * gen))
        return _bkm_images(rotation[:, 1:, 1:], times[:, None] * a.coeffs, v)

    return Subgroup(images)
