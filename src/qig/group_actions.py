"""The state-space group actions of SL(2, C) and of the cotangent group.

Two groups act transitively on the faithful qubit states: SL(2, C) through
the power-deformed conjugations alpha_A, and the cotangent group of SU(2)
(pairs (U, a) with the semidirect product law) through the exponential-
translation action attached to the BKM metric.  Both are closed-form maps,
with no eigensolver, of the rapidity vector artanh(r) n of a Bloch vector
r n: BKM rotates and translates it, and alpha_A boosts sqrt(A) times it by
the Lorentz matrix of g (Bengtsson & Zyczkowski, Geometry of Quantum States).
The closed forms broadcast a stack of states against a stack of group
elements, so a one-parameter orbit on a whole time grid, or an axiom check
over all its samples, is one batched evaluation.  An image that rounds into
the ball's boundary band raises NumericError naming its row.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, NumericError
from .state_space import (CALLABLE, PAULIS, SIGMA_0, QubitState, Record,
                          TracelessObservable, bloch_norm, check_bloch_array,
                          complex_matrix_from_json, complex_matrix_to_json,
                          pauli_coeffs, require_all, require_array, require_count,
                          require_instance, require_positive)

DET_TOLERANCE = 1e-10  # |det - 1| allowed for an SL(2, C) or SU(2) matrix
GENERATOR_STEP = 1e-4  # central-difference step of generator_of_action

_PAULI4 = np.array((SIGMA_0,) + PAULIS)
# _LORENTZ_TERMS[(j, k, i, l), (a, b)] = sigma_a[i, j] sigma_b[k, l]
_LORENTZ_TERMS = np.einsum("aij,bkl->jkilab", _PAULI4, _PAULI4).reshape(16, 16)


def _unit_det(m: np.ndarray) -> np.ndarray:
    """Whether each matrix of a stack (..., 2, 2) has determinant 1; one
    whose determinant overflows has not."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return np.abs(np.linalg.det(m) - 1.0) <= DET_TOLERANCE


def _unitary(m: np.ndarray) -> np.ndarray:
    """Whether each matrix of a stack (..., 2, 2) is unitary to 1e-10."""
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(2))
    return np.max(gap, axis=(-2, -1)) <= 1e-10


def _lorentz(m: np.ndarray) -> np.ndarray:
    """Lambda(m)_{mu nu} = tr(sigma_mu m sigma_nu m^dag)/2, a real 4x4 matrix.

    It maps the coefficients (t, x) of M = t I + x.sigma to those of m M m^dag.
    M has eigenvalues t +- |x|, and for |det m| = 1 the determinant
    t^2 - |x|^2 is invariant: Lambda(m) boosts and rotates the rapidity of a
    unit timelike (t, x).  m may be a stack (..., 2, 2); the 16 products
    m_jk conj(m_il) meet the Pauli traces in one matrix product.
    """
    stack = m.shape[:-2]
    # An entry too large to square overflows quietly; the determinant check
    # of the moved coordinates in _alpha_images raises NumericError.
    with np.errstate(over="ignore", invalid="ignore"):
        products = m[..., :, :, None, None] * m.conj()[..., None, None, :, :]
        return 0.5 * (products.reshape(stack + (16,)) @ _LORENTZ_TERMS).real.reshape(
            stack + (4, 4))


def _apply(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m x over broadcast stacks of matrices (..., n, n) and vectors (..., n)."""
    return (m @ x[..., None])[..., 0]


def _rapidity_coords(v: np.ndarray, r: np.ndarray, s: float) -> np.ndarray:
    """(cosh xi, sinh xi v/r) with xi = s artanh(r), for each rho of a stack
    of Bloch vectors v (..., 3) with norms r (...); shape (..., 4).

    These are the Pauli coefficients of rho^s / det(rho)^(s/2), a unit
    timelike vector: t^2 - |x|^2 = 1; past |xi| = 710 cosh overflows to inf.
    """
    xi = s * np.arctanh(r)
    out = np.empty(np.shape(r) + (4,))
    out[..., 0] = np.cosh(xi)
    out[..., 1:] = _along(v, r, np.sinh(xi))
    return out


class SLGroupElement(Record):
    """A 2x2 complex matrix with determinant 1."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        super().__init__(require_array("matrix", matrix, (2, 2), "iufc"))
        if not _unit_det(self.matrix):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                det = complex(np.linalg.det(self.matrix))
            raise DomainError(f"determinant {det} != 1")

    def to_json(self) -> dict:
        return {"sl_matrix": complex_matrix_to_json(self.matrix)}

    @staticmethod
    def from_json(data) -> "SLGroupElement":
        if not (isinstance(data, dict) and "sl_matrix" in data):
            raise DomainError(f"data = {data!r} has no 'sl_matrix'")
        return SLGroupElement(complex_matrix_from_json(data["sl_matrix"]))


def sl_identity() -> SLGroupElement:
    return SLGroupElement(np.eye(2, dtype=complex))


def _expm_traceless_2x2(m: np.ndarray, rows, name: str) -> np.ndarray:
    """exp of traceless 2x2 matrices: cosh(mu) I + sinh(mu)/mu m, mu^2 = -det m.

    m may be a stack (..., 2, 2).  sinh(mu)/mu is 1 at mu = 0 (nilpotent or
    zero m).  rows labels the stack's entries as require_all's rows do.  The
    first entry whose exponential is not finite, or has a determinant that
    cancellation or overflow moved more than DET_TOLERANCE off 1 (a traceless
    m gives det 1), raises NumericError naming its row as name.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mu = np.sqrt(m[..., 0, 1] * m[..., 1, 0] - m[..., 0, 0] * m[..., 1, 1])
        sinch = np.where(mu == 0, 1.0, np.sinh(mu) / mu)
        out = np.cosh(mu)[..., None, None] * _PAULI4[0] + sinch[..., None, None] * m
    what = f"matrix exponential of the generator at {name}"
    require_all(np.isfinite(out).all(axis=(-2, -1)), rows, NumericError, what, "overflows")
    require_all(_unit_det(out), rows, NumericError, what,
                f"has a determinant off 1 by more than {DET_TOLERANCE:g}")
    return out


def sl_from_generators(a: TracelessObservable, b: TracelessObservable) -> SLGroupElement:
    """exp((a_matrix - i b_matrix)/2); an exponential that overflows or
    whose determinant leaves 1 raises NumericError naming (a, b)."""
    require_instance("a", a, TracelessObservable)
    require_instance("b", b, TracelessObservable)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: NumericError below
        gen = 0.5 * (a.matrix() - 1j * b.matrix())
    coeffs = np.concatenate([a.coeffs, b.coeffs])
    return SLGroupElement(_expm_traceless_2x2(gen, coeffs, "(a, b)"))


class CotangentGroupElement(Record):
    """Pair (U, a): special unitary U and traceless Hermitian translation a."""

    __slots__ = ("unitary", "a")
    _types = {"a": (TracelessObservable, "a TracelessObservable")}

    def __init__(self, unitary: np.ndarray, a: TracelessObservable):
        super().__init__(require_array("unitary", unitary, (2, 2), "iufc"), a)
        if not _unitary(self.unitary):
            raise DomainError("U is not unitary")
        if not _unit_det(self.unitary):
            raise DomainError("det U != 1")


def cotangent_multiply(u1: np.ndarray, a1: np.ndarray, u2: np.ndarray,
                       a2: np.ndarray) -> tuple:
    """Semidirect product (U1, a1) (U2, a2) = (U1 U2, a1 + U1 a2 U1^dag).

    The elements are stacks of unitaries (..., 2, 2) and Pauli coefficients
    (..., 3) of translations, as is the product.  Another shape raises
    DomainError, a product translation that is not finite NumericError.
    """
    u1, u2 = (require_array(name, u, (..., 2, 2), "iufc")
              for name, u in (("u1", u1), ("u2", u2)))
    a1, a2 = (require_array(name, a, (..., 3)) for name, a in (("a1", a1), ("a2", a2)))
    try:
        np.broadcast_shapes(u1.shape[:-2], a1.shape[:-1], u2.shape[:-2], a2.shape[:-1])
    except ValueError as exc:
        raise DomainError(f"stacks of u1, a1, u2 and a2: {exc}") from None
    with np.errstate(over="ignore", invalid="ignore"):
        rotated = u1 @ _pauli_matrices(a2) @ u1.conj().swapaxes(-1, -2)
        a12 = pauli_coeffs(_pauli_matrices(a1) + rotated)
        u12 = u1 @ u2
    require_all(np.isfinite(a12).all(axis=-1), a12, NumericError,
                "translation a1 + U1 a2 U1^dag", "is not finite")
    require_all(np.isfinite(u12).all(axis=(-2, -1)), u12, NumericError, "U1 U2",
                "is not finite")
    return u12, a12


def _sqrt_a(a_const: float) -> float:
    require_positive("alpha_A", "A", a_const)
    return math.sqrt(a_const)


def _along(x: np.ndarray, norm: np.ndarray, length: np.ndarray) -> np.ndarray:
    """length * x/|x| over a stack of vectors x with norms norm; 0 where x = 0."""
    scale = np.divide(length, norm, out=np.zeros_like(norm), where=norm > 0.0)
    return scale[..., None] * x


def _alpha_images(s: float, g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bloch images under alpha_A, s = sqrt(A), of the states v (..., 3) by
    the SL(2, C) elements g (..., 2, 2); the two stacks broadcast.

    g rho^s g^dag / det(rho)^(s/2) has the unit timelike coefficients
    (t', x') = Lambda(g) (t, x), (t, x) those of _rapidity_coords.  Its
    rapidity asinh|x'| is s artanh of the image's norm, so the image is
    tanh(asinh|x'|/s) x'/|x'|.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: rejected
        moved = _apply(_lorentz(g), _rapidity_coords(v, bloch_norm(v), s))
        x = moved[..., 1:]
        rx = bloch_norm(x)
        gap = np.abs(moved[..., 0] - np.hypot(1.0, rx))
    require_all(gap <= DET_TOLERANCE * moved[..., 0], moved, NumericError,
                "(t, x) of g rho^sqrt(A) g^dag / det(rho)^(sqrt(A)/2)",
                "is not finite or has lost t^2 - |x|^2 = 1 to rounding")
    return check_bloch_array(_along(x, rx, np.tanh(np.arcsinh(rx) / s)), NumericError)


def _bkm_images(u: np.ndarray, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bloch images under the BKM action of the states v (..., 3) by the
    elements (U, a) given as unitaries U (..., 2, 2) and translations
    a (..., 3); the stacks broadcast.

    ln rho = c I + artanh(r) n.sigma, so the traceless part of the exponent
    is w = artanh(r) R(U) n + a, R(U) the rotation block of U's Lorentz
    matrix, and the image is tanh|w| w/|w|.
    """
    r = bloch_norm(v)
    # artanh(r) n = scale v, with scale -> 1 at r = 0
    scale = np.divide(np.arctanh(r), r, out=np.ones_like(r), where=r > 0.0)
    w = scale[..., None] * _apply(_lorentz(u)[..., 1:, 1:], v) + a
    require_all(np.isfinite(w).all(axis=-1), w, NumericError, "BKM exponent w",
                "is not finite")
    rw = bloch_norm(w)
    return check_bloch_array(_along(w, rw, np.tanh(rw)), NumericError)


def action_alpha_a(a_const: float, g: SLGroupElement, rho: QubitState) -> QubitState:
    """alpha_A: rho -> (g rho^sqrt(A) g^dag)^(1/sqrt(A)) normalized to trace 1.

    A = 1 is plain conjugate-and-normalize; A = 1/4 squares g sqrt(rho) g^dag.
    See _alpha_images for the closed form.
    """
    s = _sqrt_a(a_const)
    require_instance("g", g, SLGroupElement)
    require_instance("rho", rho, QubitState)
    return QubitState(*_alpha_images(s, g.matrix, rho.bloch))


def action_bkm(h: CotangentGroupElement, rho: QubitState) -> QubitState:
    """BKM action: rho -> exp(U ln(rho) U^dag + a) normalized to trace 1.

    See _bkm_images for the closed form.
    """
    require_instance("h", h, CotangentGroupElement)
    require_instance("rho", rho, QubitState)
    return QubitState(*_bkm_images(h.unitary, h.a.coeffs, rho.bloch))


class ActionAxiomReport(Record):
    __slots__ = ("action", "identity_dev", "compatibility_dev")

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


def _axiom_report(action: str, images, identity, h1, h2, h12, rho) -> ActionAxiomReport:
    """Identity and compatibility deviations of an action on the states rho
    (N, 3).  images(h, v) acts with the elements h, in the action's stacked
    form, on v; h12 is h1 h2 sample by sample."""
    ident = images(identity, rho)
    lhs = images(h1, images(h2, rho))
    rhs = images(h12, rho)
    return ActionAxiomReport(action, _max_gap(ident, rho), _max_gap(lhs, rhs))


def verify_alpha_action(a_const: float, samples: int = 200,
                        seed: int = 0) -> ActionAxiomReport:
    """Identity and compatibility axioms for alpha_A on random triples.

    Each sample is a state rho and two elements g_i = exp((a_i - i b_i)/2).
    The identity, g2 rho, g1 (g2 rho) and (g1 g2) rho are one batched
    evaluation each, over all samples, and every image is checked.
    """
    s = _sqrt_a(a_const)
    states, coeffs = _draws(seed, 1, samples, 1, 4)
    # per sample a1, b1, a2, b2
    g1, g2 = np.moveaxis(_expm_traceless_2x2(
        0.5 * (_pauli_matrices(coeffs[:, 0::2])
               - 1j * _pauli_matrices(coeffs[:, 1::2])),
        coeffs.reshape(samples, 2, 6), "(a, b)"), 1, 0)
    g12 = g1 @ g2
    # A determinant of a computed product that drifted from 1 is a numeric
    # breakdown, not bad input.
    require_all(_unit_det(g12), np.arange(samples), NumericError, "sample",
                "gives a determinant of g1 g2 != 1")
    return _axiom_report(f"alpha_A(A={a_const:g})",
                         lambda g, v: _alpha_images(s, g, v),
                         sl_identity().matrix, g1, g2, g12, states[:, 0])


def verify_bkm_action(samples: int = 200, seed: int = 0) -> ActionAxiomReport:
    """Identity and compatibility axioms for the BKM cotangent action.

    Each sample is a state rho and two elements h_i = (exp(b_i/(2i)), a_i),
    held as stacks of unitaries and Pauli coefficients and multiplied by
    cotangent_multiply, the stacked group law.
    """
    states, coeffs = _draws(seed, 2, samples, 1, 4)
    b1, a1, b2, a2 = np.moveaxis(coeffs, 1, 0)
    u1, u2 = (_expm_traceless_2x2(-0.5j * _pauli_matrices(b), b, "b") for b in (b1, b2))
    u12, a12 = cotangent_multiply(u1, a1, u2, a2)
    # _expm_traceless_2x2 checked the determinants of U1 and U2.
    in_su2 = (_unitary(u1), _unitary(u2), _unitary(u12) & _unit_det(u12))
    for ok, what in zip(in_su2, ("U1", "U2", "U1 U2")):
        require_all(ok, np.arange(samples), NumericError, "sample", f"gives {what} not in SU(2)")
    return _axiom_report("bkm_cotangent",
                         lambda h, v: _bkm_images(*h, v),
                         (np.eye(2, dtype=complex), np.zeros(3)), (u1, a1), (u2, a2),
                         (u12, a12), states[:, 0])


def transitivity_probe(samples: int = 100, seed: int = 0) -> float:
    """Map rho1 to rho2 under alpha_1 with g = rho2^(1/2) rho1^(-1/2).

    Returns the maximal Bloch deviation over random pairs, all mapped in
    one batched evaluation.
    """
    states, _ = _draws(seed, 3, samples, 2, 0)
    rho1, rho2 = states[:, 0], states[:, 1]
    # rho^(+-1/2) / det(rho)^(+-1/4): determinant 1 each
    sqrt2, inv_sqrt1 = (np.tensordot(_rapidity_coords(v, bloch_norm(v), power), _PAULI4, 1)
                        for v, power in ((rho2, 0.5), (rho1, -0.5)))
    g = sqrt2 @ inv_sqrt1
    require_all(_unit_det(g), np.arange(samples), NumericError, "sample",
                "gives a determinant of rho2^(1/2) rho1^(-1/2) != 1")
    moved = _alpha_images(1.0, g, rho1)
    return _max_gap(moved, rho2)


class Subgroup(Record):
    """The action of a one-parameter subgroup t -> h(t) on states.

    ``images`` maps times (T, 1, ..., 1) and Bloch vectors (..., 3) to the
    (T, ..., 3) Bloch images under h(t), evaluating the closed form once for
    the whole stack of group elements and states, each image checked.
    """

    __slots__ = ("images",)
    _types = {"images": CALLABLE}

    def __init__(self, images: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        super().__init__(images)

    def orbit(self, times, rho) -> np.ndarray:
        """Bloch images (T, ..., 3) of rho, a QubitState or a stack of Bloch
        vectors (..., 3), at the times (T,); a point of rho outside the
        ball is a BoundaryViolation."""
        if isinstance(rho, QubitState):  # checked when it was built
            v = rho.bloch
        else:
            v = check_bloch_array(require_array("rho", rho, (..., 3)))
        times = require_array("times", times)
        require_all(np.isfinite(times), times, DomainError, "time t", "is not finite")
        return self.images(times.reshape(times.shape + (1,) * (v.ndim - 1)), v)


def generator_of_action(subgroup: Subgroup, rho) -> np.ndarray:
    """Bloch-space derivative d/dt subgroup(t)(rho) at t = 0, central diff.

    rho is a QubitState or a stack of Bloch vectors (..., 3); the result
    has the shape of its Bloch vectors.
    """
    require_instance("subgroup", subgroup, Subgroup)
    fwd, bwd = subgroup.orbit([GENERATOR_STEP, -GENERATOR_STEP], rho)
    return (fwd - bwd) / (2.0 * GENERATOR_STEP)


def alpha_subgroup(a_const: float, a: TracelessObservable,
                   b: TracelessObservable) -> Subgroup:
    """t -> alpha_A along exp(t (a - i b)/2).

    At large |t| the exponential's determinant drifts from 1 through
    cancellation, which raises NumericError naming t (_expm_traceless_2x2).
    """
    s = _sqrt_a(a_const)
    require_instance("a", a, TracelessObservable)
    require_instance("b", b, TracelessObservable)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: NumericError below
        gen = 0.5 * (a.matrix() - 1j * b.matrix())

    def images(times: np.ndarray, v: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow: NumericError
            g = _expm_traceless_2x2(times[..., None, None] * gen, times, "t")
        return _alpha_images(s, g, v)

    return Subgroup(images)


def bkm_subgroup(a: TracelessObservable, b: TracelessObservable) -> Subgroup:
    """t -> BKM action along (exp(t b/(2i)), t a)."""
    require_instance("a", a, TracelessObservable)
    require_instance("b", b, TracelessObservable)
    gen = -0.5j * b.matrix()

    def images(times: np.ndarray, v: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # an inf t b or t a raises below
            u = _expm_traceless_2x2(times[..., None, None] * gen, times, "t")
            shift = times[..., None] * a.coeffs
        return _bkm_images(u, shift, v)

    return Subgroup(images)
