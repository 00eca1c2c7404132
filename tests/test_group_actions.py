import json
import math
import re
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from qig import group_actions, verify
from qig.errors import BoundaryViolation, DomainError, NumericError
from qig.group_actions import (ActionAxiomReport, CotangentGroupElement,
                               SLGroupElement, _along, _alpha_images, _apply,
                               _bkm_images, _draws, _expm_pauli, _lorentz,
                               action_alpha_a, action_bkm,
                               alpha_subgroup, bkm_subgroup, cotangent_multiply,
                               generator_of_action, sl_identity,
                               sl_from_generators, transitivity_probe,
                               verify_alpha_action, verify_bkm_action)
from qig.state_space import (PAULIS, SIGMA_1, SIGMA_2, SIGMA_3, QubitState,
                             TracelessObservable, bloch_norm, check_bloch_array,
                             pauli_coeffs, pauli_matrices, require_all)

SIGMA3 = TracelessObservable(0.0, 0.0, 1.0)
ZERO = TracelessObservable(0.0, 0.0, 0.0)


def _hermitian_fn(m, fn):
    lam, vec = np.linalg.eigh(m)
    return (vec * fn(lam)) @ vec.conj().T


def _density(rho):
    """The density matrix (I + r.sigma)/2 of a QubitState."""
    return 0.5 * (np.eye(2) + pauli_matrices(rho.bloch))


def _bloch(m):
    m = m / np.trace(m).real
    return np.array([np.trace(m @ p).real for p in PAULIS])


def _special_unitary(b):
    """exp(b_matrix/(2i)), an SU(2) matrix, for Pauli coefficients b."""
    return sl_from_generators(ZERO, TracelessObservable.from_coeffs(b)).matrix


def _rotation(u):
    """R(U)_{ij} = tr(sigma_i U sigma_j U^dag)/2."""
    return np.array([[0.5 * np.trace(pi @ u @ pj @ u.conj().T).real
                      for pj in PAULIS] for pi in PAULIS])


def test_closed_forms_match_eigh_oracle():
    # Oracle: the defining matrix formulas evaluated through eigh.
    rng = np.random.default_rng(17)
    for r in (0.0, 1e-300, 1e-12, 1e-6, 0.1, 0.5, 0.9, 0.99):
        for _ in range(10):
            d = rng.standard_normal(3)
            rho = QubitState(*(r * d / np.linalg.norm(d)))
            g = sl_from_generators(
                TracelessObservable.from_coeffs(rng.uniform(-1, 1, 3)),
                TracelessObservable.from_coeffs(rng.uniform(-1, 1, 3)))
            for a_const in (0.25, 0.5, 1.0, 2.0, 4.0):
                s = math.sqrt(a_const)
                inner = (g.matrix @ _hermitian_fn(_density(rho), lambda lam: lam ** s)
                         @ g.matrix.conj().T)
                want = _bloch(_hermitian_fn(inner, lambda lam: lam ** (1.0 / s)))
                npt.assert_allclose(action_alpha_a(a_const, g, rho).bloch, want,
                                    atol=1e-12)
            h = CotangentGroupElement(
                _special_unitary(rng.uniform(-2, 2, 3)),
                TracelessObservable.from_coeffs(rng.uniform(-1, 1, 3)))
            u = h.unitary
            want = _bloch(_hermitian_fn(
                u @ _hermitian_fn(_density(rho), np.log) @ u.conj().T + h.a.matrix(),
                np.exp))
            npt.assert_allclose(action_bkm(h, rho).bloch, want, atol=1e-12)


# (z, shift): a boost moves artanh(z) by shift.  The last pair lands at
# 1 - |z'| = 1.5e-9, between the open-ball guard 1e-9 and 2e-9.
_SHIFTS = [(0.0, 0.7), (0.3, -1.2), (-0.7, 2.0), (0.999, 0.3),
           (1.0 - 1e-8, -0.5), (-(1.0 - 1e-8), 0.4), (1.0 - 1e-8, 0.95)]


def _boost(beta):
    return np.diag([math.exp(beta / 2.0), math.exp(-beta / 2.0)]).astype(complex)


def _boost_images(v):
    """(got, want) Bloch pairs for boosts along the axis that v carries e_z to."""
    axis = _rotation(v)[:, 2]
    for z, shift in _SHIFTS:
        want = math.tanh(math.atanh(z) + shift) * axis
        rho = QubitState(*(z * axis))
        for a_const in (0.25, 1.0, 4.0):
            g = SLGroupElement(v @ _boost(shift * math.sqrt(a_const)) @ v.conj().T)
            yield action_alpha_a(a_const, g, rho).bloch, want
        # U = v turns z e_z into z axis, then a translates along axis.
        h = CotangentGroupElement(v, TracelessObservable.from_coeffs(shift * axis))
        yield action_bkm(h, QubitState(0.0, 0.0, z)).bloch, want


def test_exact_boosts_along_z():
    # g = diag(e^(beta/2), e^(-beta/2)) moves artanh(z) by beta/sqrt(A);
    # the BKM translation a = (0, 0, beta) with U = I moves it by beta.
    for got, want in _boost_images(np.eye(2, dtype=complex)):
        npt.assert_allclose(got, want, atol=1e-13)


def test_conjugated_boosts():
    # The same boosts about a random axis: V g V^dag acting on V rho V^dag.
    rng = np.random.default_rng(23)
    for _ in range(5):
        v = _special_unitary(rng.uniform(-3, 3, 3))
        for got, want in _boost_images(v):
            npt.assert_allclose(got, want, atol=1e-10)


def test_cli_non_finite_boost_is_numeric_error():
    g = {"sl_matrix": [[1e200, 0.0], [0.0, 0.0], [0.0, 0.0], [1e-200, 0.0]]}
    r = subprocess.run([sys.executable, "-m", "qig.cli", "act", "--family", "bh",
                        "--g-json", json.dumps(g),
                        "--state-json", '{"bloch":[0.1,0.2,0.3]}'],
                       capture_output=True, text=True)
    assert r.returncode == 3
    assert json.loads(r.stdout)["error"] == "NumericError"
    assert "Traceback" not in r.stderr


def test_sl_from_generators_against_scipy_expm():
    # Independent oracle: scipy's general matrix exponential.
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = TracelessObservable.from_coeffs(rng.uniform(-2.0, 2.0, 3))
        b = TracelessObservable.from_coeffs(rng.uniform(-2.0, 2.0, 3))
        ours = sl_from_generators(a, b).matrix
        ref = scipy.linalg.expm((a.matrix() - 1j * b.matrix()) / 2.0)
        npt.assert_allclose(ours, ref, atol=1e-12)
        assert abs(np.linalg.det(ours) - 1.0) < 1e-12


def test_sl_from_generators_tiny_argument():
    # sinh(mu)/mu near mu = 0 must stay accurate.
    a = TracelessObservable(1e-10, 0.0, 0.0)
    ours = sl_from_generators(a, ZERO).matrix
    ref = scipy.linalg.expm(a.matrix() / 2.0)
    npt.assert_allclose(ours, ref, atol=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a,b", [((1e3, 0.0, 0.0), (0.0, 0.0, 0.0)),
                                 ((0.0, 0.0, 16.0), (0.0, 0.0, 0.0)),
                                 ((0.0, 30.0, 0.0), (0.0, 0.0, 20.0))])
def test_sl_from_generators_names_a_and_b_when_the_determinant_leaves_one(a, b):
    # exp((a - i b)/2) is finite, but its determinant overflows (a1 = 1e3,
    # entries near cosh 500) or rounds off 1 (|mu| >= 8): valid a and b
    # make a numeric error, not an input error.
    with pytest.raises(NumericError) as err:
        sl_from_generators(TracelessObservable(*a), TracelessObservable(*b))
    assert str(err.value) == (
        f"matrix exponential of the generator at (a, b) = {list(a + b)} "
        "has a determinant off 1 by more than 1e-10")


def _old_matrix(c):
    """c.sigma as TracelessObservable.matrix formed it before pauli_matrices."""
    return c[0] * SIGMA_1 + c[1] * SIGMA_2 + c[2] * SIGMA_3


def _old_expm(m):
    """exp of traceless matrices m (..., 2, 2) as the matrix-taking exponential
    that _expm_pauli replaced formed it, checks aside."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mu = np.sqrt(m[..., 0, 1] * m[..., 1, 0] - m[..., 0, 0] * m[..., 1, 1])
        sinch = np.where(mu == 0, 1.0, np.sinh(mu) / mu)
        return (np.cosh(mu)[..., None, None] * np.eye(2, dtype=complex)
                + sinch[..., None, None] * m)


def _old_orbits(a_const, a, b, times, v):
    """Bloch images at the times of v under alpha_subgroup(a_const, a, b) and
    bkm_subgroup(a, b), from the generators that the subgroups formed as
    matrices before they passed Pauli coefficients: t (a - i b).sigma/2 and
    t b.sigma/(2i)."""
    gen = 0.5 * (_old_matrix(a.coeffs) - 1j * _old_matrix(b.coeffs))
    g = _old_expm(times[:, None, None] * gen)
    u = _old_expm(times[:, None, None] * (-0.5j * _old_matrix(b.coeffs)))
    return (_alpha_images(math.sqrt(a_const), g, v),
            _bkm_images(u, times[:, None] * a.coeffs, v))


def _observables(rng, scale):
    return TracelessObservable.from_coeffs(scale * rng.uniform(-1.0, 1.0, 3))


def test_sl_from_generators_equals_the_matrix_generator_bit_for_bit():
    # Oracle: exp((a_matrix - i b_matrix)/2), the generator formed as a matrix.
    rng = np.random.default_rng(35)
    for scale in (1e-300, 1e-8, 1.0, 5.0):
        for zero in (None, "a", "b"):
            a, b = _observables(rng, scale), _observables(rng, scale)
            a, b = (ZERO if zero == "a" else a), (ZERO if zero == "b" else b)
            gen = 0.5 * (_old_matrix(a.coeffs) - 1j * _old_matrix(b.coeffs))
            assert sl_from_generators(a, b).matrix.tolist() == _old_expm(gen).tolist()


def test_subgroup_orbits_equal_the_matrix_generators():
    # Bit for bit where a or b is zero, the orbits that the CLI and the
    # suites draw.  With both nonzero, t (a - b) now rounds as t a - t b:
    # over 900 such draws with |t| <= 3 the images moved by at most
    # 4 eps = 8.9e-16; the bound is twice that.
    rng = np.random.default_rng(36)
    times = np.linspace(-3.0, 3.0, 61)
    v = np.array([0.3, -0.2, 0.4])
    worst = 0.0
    for zero in (None, "a", "b") * 10:
        a, b = _observables(rng, 1.0), _observables(rng, 1.0)
        a, b = (ZERO if zero == "a" else a), (ZERO if zero == "b" else b)
        for a_const in (0.25, 1.0, 2.0):
            alpha = alpha_subgroup(a_const, a, b).orbit(times, v)
            bkm = bkm_subgroup(a, b).orbit(times, v)
            old_alpha, old_bkm = _old_orbits(a_const, a, b, times, v)
            assert bkm.tolist() == old_bkm.tolist()
            if zero:
                assert alpha.tolist() == old_alpha.tolist()
            else:
                worst = max(worst, float(np.max(np.abs(alpha - old_alpha))))
    assert worst <= 8.0 * np.finfo(float).eps


def _scaled(parts, exponent):
    """c = parts[:3] + i parts[3:] scaled to norm 2 10^exponent, so that
    m = c.sigma/2 has |mu| = |c.c|^(1/2)/2 <= 10^exponent."""
    c = np.array(parts[:3]) + 1j * np.array(parts[3:])
    return c * (2.0 * 10.0 ** exponent / np.linalg.norm(c))


_UNIT = st.floats(-1.0, 1.0)
# Complex coefficients c with |c| in [2e-300, 2], or c.sigma nilpotent
# (c.c = 0, mu = 0 exactly): x (1, i, 0) and x (1, -i, 0), triangular, and
# x (0, -i, 1) = x [[1, -1], [1, -1]], or 0.
_COEFFS = st.one_of(
    st.builds(_scaled, st.lists(_UNIT, min_size=6, max_size=6).filter(
        lambda v: np.linalg.norm(v) > 0.1), st.floats(-300.0, 0.0)),
    *(_UNIT.map(lambda x, n=n: x * np.array(n))
      for n in ((1.0, 1j, 0.0), (1.0, -1j, 0.0), (0.0, -1j, 1.0))))


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None)
@given(_COEFFS)
def test_expm_traceless_2x2_matches_mpmath(c):
    got = _expm_pauli(c, c, "c")
    with mpmath.workdps(40):
        m = sum((mpmath.mpc(ck) * mpmath.matrix(p.tolist())
                 for ck, p in zip(c.tolist(), PAULIS)), mpmath.zeros(2))
        want = mpmath.expm(m / 2)
        error = max(abs(mpmath.mpc(got[i, j]) - want[i, j])
                    for i in range(2) for j in range(2))
    assert error <= 1e-15, c


@pytest.mark.filterwarnings("error")
def test_expm_traceless_2x2_names_the_row_whose_determinant_leaves_one():
    # exp(t sigma_3/2) is formed as diag(cosh mu + sinh mu, cosh mu - sinh mu),
    # mu = t/2: the second entry cancels at t = 40, so the determinant leaves
    # 1; t = 0.5 and the nilpotent row (1, i, 0).sigma/2 = [[0, 1], [0, 0]] pass.
    times = np.array([0.5, 40.0, 0.0])
    c = times[:, None] * SIGMA3.coeffs + 0j
    c[2] = (1.0, 1j, 0.0)
    with pytest.raises(NumericError) as err:
        _expm_pauli(c, times, "t")
    assert str(err.value) == ("matrix exponential of the generator at t = 40.0 "
                              "has a determinant off 1 by more than 1e-10")


def test_special_unitary_from_generator():
    u = _special_unitary([0.3, -0.5, 0.2])
    npt.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
    assert abs(np.linalg.det(u) - 1.0) < 1e-13


@pytest.mark.filterwarnings("error")
def test_sl_element_validation():
    with pytest.raises(DomainError):
        SLGroupElement(np.diag([2.0, 1.0]))  # det != 1
    # A NaN or overflowing determinant is not 1, and naming it is quiet.
    with pytest.raises(DomainError, match="nan"):
        SLGroupElement(np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex))
    with pytest.raises(DomainError, match="inf"):
        SLGroupElement(np.diag([1e300, 1e300]).astype(complex))
    # det(I_3) = 1, but no 3x3 matrix is an SL(2, C) element.
    with pytest.raises(DomainError) as err:
        SLGroupElement(np.eye(3, dtype=complex))
    assert str(err.value) == (f"matrix = {np.eye(3, dtype=complex)!r} "
                              f"is not a complex array of shape (2, 2)")


def test_alpha_one_pinned_example():
    # Conjugating the maximally mixed state by diag(sqrt2, 1/sqrt2) and
    # normalizing gives diag(0.8, 0.2), i.e. Bloch (0, 0, 0.6).
    s2 = math.sqrt(2.0)
    g = SLGroupElement(np.diag([s2, 1.0 / s2]).astype(complex))
    out = action_alpha_a(1.0, g, QubitState(0.0, 0.0, 0.0))
    npt.assert_allclose(out.bloch, [0.0, 0.0, 0.6], atol=1e-14)


def test_alpha_action_axioms():
    for a_const in (0.25, 1.0, 2.0):
        rep = verify_alpha_action(a_const, samples=50, seed=1)
        assert rep.max_dev < 1e-10


def test_alpha_nonlinearity_for_a_not_one():
    # For A = 1 the action is linear up to normalization: the image of a
    # midpoint is the trace-weighted mixture of the images.  For A = 2 the
    # same combination fails: a structural negative control.
    rng = np.random.default_rng(5)
    g = sl_from_generators(TracelessObservable(0.6, -0.2, 0.4),
                           TracelessObservable(0.1, 0.3, -0.5))

    def mixture_gap(a_const):
        rho1 = QubitState(0.4, 0.1, -0.2)
        rho2 = QubitState(-0.3, 0.2, 0.5)
        mid = QubitState(*(0.5 * (rho1.bloch + rho2.bloch)))
        w1 = float(np.trace(g.matrix @ _density(rho1) @ g.matrix.conj().T).real)
        w2 = float(np.trace(g.matrix @ _density(rho2) @ g.matrix.conj().T).real)
        combo = (w1 * action_alpha_a(a_const, g, rho1).bloch
                 + w2 * action_alpha_a(a_const, g, rho2).bloch) / (w1 + w2)
        return float(np.max(np.abs(action_alpha_a(a_const, g, mid).bloch - combo)))

    assert mixture_gap(1.0) < 1e-12
    assert mixture_gap(2.0) > 1e-3


def _random_cotangent(rng, n):
    """n elements (U, a) as stacks: unitaries (n, 2, 2), coefficients (n, 3)."""
    return (np.array([_special_unitary(b) for b in rng.uniform(-1, 1, (n, 3))]),
            rng.uniform(-1, 1, (n, 3)))


def test_cotangent_group_axioms():
    rng = np.random.default_rng(9)
    h1, h2, h3 = (_random_cotangent(rng, 20) for _ in range(3))
    lhs = cotangent_multiply(*cotangent_multiply(*h1, *h2), *h3)
    rhs = cotangent_multiply(*h1, *cotangent_multiply(*h2, *h3))
    npt.assert_allclose(lhs[0], rhs[0], atol=1e-13)
    npt.assert_allclose(lhs[1], rhs[1], atol=1e-13)
    # (U, a)^-1 = (U^dag, -U^dag a U), and (I, 0) is the identity
    u, a = h1
    u_inv = u.conj().swapaxes(-1, -2)
    a_inv = pauli_coeffs(-u_inv @ pauli_matrices(a) @ u)
    inv = cotangent_multiply(u, a, u_inv, a_inv)
    npt.assert_allclose(inv[0], np.broadcast_to(np.eye(2), (20, 2, 2)), atol=1e-13)
    npt.assert_allclose(inv[1], 0.0, atol=1e-13)
    same = cotangent_multiply(u, a, np.eye(2, dtype=complex), np.zeros(3))
    npt.assert_array_equal(same[0], u)
    npt.assert_allclose(same[1], a, atol=1e-15)


def _record_multiply(h1, h2):
    """The record-level semidirect product that cotangent_multiply replaced,
    with the Pauli traces of the matrix product."""
    m = h1.a.matrix() + h1.unitary @ h2.a.matrix() @ h1.unitary.conj().T
    return CotangentGroupElement(h1.unitary @ h2.unitary, TracelessObservable(
        *(float(np.trace(m @ p).real / 2.0) for p in PAULIS)))


def _wrong_record_multiply(h1, h2):
    # The semidirect product without the conjugation.
    return CotangentGroupElement(
        h1.unitary @ h2.unitary,
        TracelessObservable.from_coeffs(h1.a.coeffs + h2.a.coeffs))


def _wrong_multiply(u1, a1, u2, a2):
    # _wrong_record_multiply on stacks.
    return u1 @ u2, a1 + a2


def test_stacked_law_equals_record_law_bit_for_bit():
    rng = np.random.default_rng(12)
    (u1, a1), (u2, a2) = _random_cotangent(rng, 50), _random_cotangent(rng, 50)
    u12, a12 = cotangent_multiply(u1, a1, u2, a2)
    for i in range(50):
        want = _record_multiply(
            CotangentGroupElement(u1[i], TracelessObservable.from_coeffs(a1[i])),
            CotangentGroupElement(u2[i], TracelessObservable.from_coeffs(a2[i])))
        assert u12[i].tolist() == want.unitary.tolist()
        assert a12[i].tolist() == want.a.coeffs.tolist()


def _record_loop_bkm_action(samples, seed, multiply=_record_multiply):
    """verify_bkm_action as it was before the stacked law: it builds the
    elements and their products as records, sample by sample."""
    states, coeffs = _draws(seed, 2, samples, 1, 4)
    rho = states[:, 0]
    b = coeffs[:, 0::2]
    u = _expm_pauli(-1j * b, b, "b")
    a = coeffs[:, 1::2]
    h1, h2 = ([CotangentGroupElement(u[i, j], TracelessObservable.from_coeffs(a[i, j]))
               for i in range(samples)] for j in (0, 1))
    products = [multiply(x, y) for x, y in zip(h1, h2)]

    def images(unitary, a, v):
        return check_bloch_array(_bkm_images(unitary, a, v))

    ident = images(np.eye(2, dtype=complex), np.zeros(3), rho)
    lhs = images(u[:, 0], a[:, 0], images(u[:, 1], a[:, 1], rho))
    rhs = images(np.array([h.unitary for h in products]),
                 np.array([h.a.coeffs for h in products]), rho)
    return ActionAxiomReport("bkm_cotangent", float(np.max(np.abs(ident - rho))),
                             float(np.max(np.abs(lhs - rhs))))


@pytest.mark.parametrize("samples", [1, 7, 200])
def test_bkm_axioms_equal_record_loop(samples):
    # The actions suite's sub-seeds, seed * 1000 + 3 for seeds 0-9.
    for seed in range(10):
        sub = seed * 1000 + verify.SUITE_IDS["actions"]
        assert (verify_bkm_action(samples=samples, seed=sub)
                == _record_loop_bkm_action(samples, sub))


def test_bkm_action_axioms():
    rep = verify_bkm_action(samples=50, seed=1)
    assert rep.max_dev < 1e-10


def test_bkm_action_wrong_group_law_fails(monkeypatch):
    # Dropping the conjugation from the semidirect product breaks
    # compatibility by a macroscopic margin.
    monkeypatch.setattr(group_actions, "cotangent_multiply", _wrong_multiply)
    rep = verify_bkm_action(samples=50, seed=1)
    assert rep.compatibility_dev > 1e-3
    assert rep == _record_loop_bkm_action(50, 1, _wrong_record_multiply)


@pytest.mark.filterwarnings("error")
def test_computed_unitary_outside_su2_is_numeric_error(monkeypatch):
    # A law whose product is not unitary names the action, the seed and the
    # first such sample.
    def scaled(u1, a1, u2, a2):
        u12, a12 = cotangent_multiply(u1, a1, u2, a2)
        u12[3] *= 2.0
        return u12, a12

    monkeypatch.setattr(group_actions, "cotangent_multiply", scaled)
    with pytest.raises(NumericError, match=r"^bkm_cotangent at seed = 0: sample = 3 gives "
                                           r"U1 U2 not in SU\(2\)$"):
        verify_bkm_action(samples=5, seed=0)


@pytest.mark.filterwarnings("error")
def test_cotangent_element_checks_its_unitary():
    # The product U^dag U overflowed with a raw warning.
    for u in (np.diag([1e200, 1e-200]), np.diag([2.0, 0.5]), np.eye(2) * np.nan):
        with pytest.raises(DomainError, match="^U is not unitary$"):
            CotangentGroupElement(u, ZERO)
    with pytest.raises(DomainError, match="^det U != 1$"):
        CotangentGroupElement(np.diag([1.0, -1.0]), ZERO)


def test_bkm_flow_from_center_is_tanh():
    # Translating ln(rho) by t sigma_3 from the maximally mixed state gives
    # z(t) = tanh(t) exactly.
    times = [0.0, 0.3, 1.0, 2.5]
    out = bkm_subgroup(SIGMA3, ZERO).orbit(times, QubitState(0.0, 0.0, 0.0))
    npt.assert_allclose(out, [[0.0, 0.0, math.tanh(t)] for t in times], atol=1e-14)


def test_transitivity_probe():
    assert transitivity_probe(samples=50, seed=2) < 1e-10


def test_generator_of_alpha_matches_fields():
    from qig.vector_fields import fundamental_field, rescaled_gradient_field
    rho = QubitState(0.2, -0.1, 0.3)
    a = TracelessObservable(0.5, 0.2, -0.4)
    for a_const in (0.25, 1.0, 2.0):
        num = generator_of_action(alpha_subgroup(a_const, ZERO, a), rho)
        npt.assert_allclose(num, fundamental_field(a).cartesian(rho.bloch),
                            atol=1e-7)
        num = generator_of_action(alpha_subgroup(a_const, a, ZERO), rho)
        npt.assert_allclose(
            num, rescaled_gradient_field(a, a_const).cartesian(rho.bloch),
            atol=1e-7)


def test_json_roundtrip():
    g = sl_from_generators(TracelessObservable(0.1, 0.2, 0.3), ZERO)
    back = SLGroupElement.from_json(
        {"sl_matrix": [[v.real, v.imag] for v in g.matrix.ravel().tolist()]})
    npt.assert_allclose(back.matrix, g.matrix, atol=1e-15)


def _random_bloch(rng, n, r_max=0.95):
    v = rng.standard_normal((n, 3))
    return v * (rng.uniform(0.0, r_max, n) / np.linalg.norm(v, axis=1))[:, None]


def test_stacked_images_match_per_state_actions():
    # Oracle: the one-element path, called state by state.  Row 0 is the
    # center, row 1 near the sphere: the masked r = 0 branch and the
    # boundary rows must not depend on their neighbours.
    rng = np.random.default_rng(31)
    v = _random_bloch(rng, 200)
    v[0], v[1] = 0.0, [0.0, 0.6, -0.799]
    gs = [sl_from_generators(TracelessObservable.from_coeffs(rng.uniform(-1, 1, 3)),
                             TracelessObservable.from_coeffs(rng.uniform(-1, 1, 3)))
          for _ in v]
    hs = [CotangentGroupElement(_special_unitary(rng.uniform(-2, 2, 3)),
              TracelessObservable.from_coeffs(rng.uniform(-1, 1, 3)))
          for _ in v]
    states = [QubitState(*row) for row in v]
    g = np.array([g.matrix for g in gs])
    for a_const in (0.25, 1.0, 2.0, 4.0):
        want = [action_alpha_a(a_const, g, rho).bloch for g, rho in zip(gs, states)]
        npt.assert_allclose(_alpha_images(math.sqrt(a_const), g, v), want,
                            rtol=0.0, atol=1e-15)
    u = np.array([h.unitary for h in hs])
    want = [action_bkm(h, rho).bloch for h, rho in zip(hs, states)]
    npt.assert_allclose(_bkm_images(u, np.array([h.a.coeffs for h in hs]), v),
                        want, rtol=0.0, atol=1e-15)


def test_stacked_images_name_the_failing_row():
    # A translation by 10 along z sends z = 0.9 to 1 - 2e-10, inside the
    # 1e-9 boundary guard; the other rows stay inside.  The states are valid,
    # so the computed image that rounds there is a numeric failure.
    rows = [[0.3, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.9], [0.0, 0.0, -0.9]]
    with pytest.raises(NumericError, match=r"\[0\.0, 0\.0, 0\.99999999"):
        bkm_subgroup(SIGMA3, ZERO).orbit([1.0, 10.0], rows)
    rows[1] = [math.nan, 0.25, 0.0]
    with pytest.raises(BoundaryViolation, match=r"\[nan, 0\.25, 0\.0\]"):
        generator_of_action(bkm_subgroup(SIGMA3, ZERO), rows)
    with pytest.raises(DomainError) as err:
        generator_of_action(bkm_subgroup(SIGMA3, ZERO), [[0.1, 0.2], [0.0, 0.3]])
    assert str(err.value) == ("rho = [[0.1, 0.2], [0.0, 0.3]] is not a real array "
                              "of shape (..., 3)")
    # A non-finite element: the exponent w = a of that row (at the center)
    # is named.
    a = np.full((3, 3), 0.1)
    a[2] = [math.inf, 0.5, 0.0]
    with pytest.raises(NumericError, match=r"\[inf, 0\.5, 0\.0\]"):
        _bkm_images(np.eye(2), a, np.zeros((3, 3)))


def test_generator_of_action_on_a_stack():
    rng = np.random.default_rng(41)
    v = _random_bloch(rng, 5, r_max=0.7)
    a = TracelessObservable(0.5, 0.2, -0.4)
    for subgroup in (alpha_subgroup(0.25, ZERO, a), alpha_subgroup(3.0, a, ZERO),
                     bkm_subgroup(a, ZERO), bkm_subgroup(ZERO, a)):
        want = [generator_of_action(subgroup, QubitState(*row)) for row in v]
        npt.assert_allclose(generator_of_action(subgroup, v), want,
                            rtol=0.0, atol=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda: action_bkm(CotangentGroupElement(
        np.eye(2), TracelessObservable(40.0, 0.0, 0.0)), QubitState(0.1, 0.0, 0.0)),
    lambda: action_alpha_a(1.0, SLGroupElement(np.diag([1e8, 1e-8])),
                           QubitState(0.1, 0.0, 0.2)),
    lambda: bkm_subgroup(TracelessObservable(1.0, 0.0, 0.0), ZERO).orbit(
        [20.0], QubitState(0.1, 0.2, 0.3)),
])
def test_saturated_image_of_a_valid_state_is_numeric_error(call):
    # The exact image lies inside the ball, but its computed norm rounds
    # to 1: a numeric failure (exit 3), not bad input.
    with pytest.raises(NumericError, match=r"^Bloch point = \[.+\] is not strictly "
                                           r"inside the unit ball$"):
        call()


@pytest.mark.filterwarnings("error")
def test_alpha_action_of_an_overflowing_element_is_numeric_error():
    # det = 1, but the products of _lorentz overflowed with a raw warning.
    g = SLGroupElement(np.diag([1e200, 1e-200]).astype(complex))
    with pytest.raises(NumericError, match="^" + re.escape(
            "(t, x) of g rho^sqrt(A) g^dag / det(rho)^(sqrt(A)/2) = [nan, nan, nan, nan] "
            "is not finite or has lost t^2 - |x|^2 = 1 to rounding") + "$"):
        action_alpha_a(1.0, g, QubitState(0.5, 0.0, 0.0))


@pytest.mark.parametrize("mode", ["error", "always"])
def test_bkm_orbit_overflow_is_numeric_error(mode):
    # t a overflowed with a raw RuntimeWarning under -W error.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(mode)
        with pytest.raises(NumericError,
                           match=r"^BKM exponent w = \[.+\] is not finite$"):
            bkm_subgroup(TracelessObservable(2.0, 2.0, 2.0), ZERO).orbit(
                [1e308], QubitState(0.1, 0.2, 0.3))
    assert not caught


@pytest.mark.parametrize("a,b,t", [(1e308, -1e308, 1.0), (1e300, 0.0, 1e10)])
def test_alpha_orbit_overflow_is_numeric_error(a, b, t):
    # (a - i b)/2 at construction, or t (a - i b)/2 in the orbit, overflowed
    # with a raw RuntimeWarning under -W error.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error")
        group = alpha_subgroup(1.0, TracelessObservable(a, 0.0, 0.0),
                               TracelessObservable(0.0, b, 0.0))
        with pytest.raises(NumericError, match="^" + re.escape(
                f"matrix exponential of the generator at t = {t!r} overflows") + "$"):
            group.orbit([t], np.zeros(3))
    assert not caught


def _per_sample_draws(rng, samples, states, observables):
    """The draws of the per-sample axiom loops: states, then observables."""
    drawn = []
    for _ in range(samples):
        for _ in range(states):
            v = rng.standard_normal(3)
            v *= rng.uniform(0.0, 0.9) / np.linalg.norm(v)
            drawn.append(QubitState(*v))
        for _ in range(observables):
            drawn.append(TracelessObservable.from_coeffs(rng.uniform(-0.5, 0.5, size=3)))
    return drawn


def _axiom_rng(seed, key):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def test_stacked_draws_equal_per_sample_draws():
    for states, observables in ((1, 4), (2, 0)):
        v, c = _draws(3, 1, 50, states, observables)
        drawn = iter(_per_sample_draws(_axiom_rng(3, 1), 50, states, observables))
        for i in range(50):
            for j in range(states):
                assert v[i, j].tolist() == next(drawn).bloch.tolist()
            for j in range(observables):
                assert c[i, j].tolist() == next(drawn).coeffs.tolist()


def test_alpha_axioms_match_per_sample_loop():
    # Oracle: the per-sample loop, one action call per axiom term.
    a_const, samples, seed = 2.0, 200, 3
    drawn = iter(_per_sample_draws(_axiom_rng(seed, 1), samples, 1, 4))
    id_dev = comp_dev = 0.0
    for _ in range(samples):
        rho = next(drawn)
        g1 = sl_from_generators(next(drawn), next(drawn))
        g2 = sl_from_generators(next(drawn), next(drawn))
        id_dev = max(id_dev, float(np.max(np.abs(
            action_alpha_a(a_const, sl_identity(), rho).bloch - rho.bloch))))
        lhs = action_alpha_a(a_const, g1, action_alpha_a(a_const, g2, rho))
        rhs = action_alpha_a(a_const, SLGroupElement(g1.matrix @ g2.matrix), rho)
        comp_dev = max(comp_dev, float(np.max(np.abs(lhs.bloch - rhs.bloch))))
    rep = verify_alpha_action(a_const, samples=samples, seed=seed)
    assert abs(rep.identity_dev - id_dev) <= 1e-15
    assert abs(rep.compatibility_dev - comp_dev) <= 1e-15


def test_bkm_wrong_law_matches_per_sample_loop(monkeypatch):
    # A wrong group law gives a macroscopic deviation, so agreement to
    # 1e-15 shows that the batched check tests the same states and elements.
    samples, seed = 60, 4
    drawn = iter(_per_sample_draws(_axiom_rng(seed, 2), samples, 1, 4))
    worst = 0.0
    for _ in range(samples):
        rho = next(drawn)
        h1 = CotangentGroupElement(_special_unitary(next(drawn).coeffs), next(drawn))
        h2 = CotangentGroupElement(_special_unitary(next(drawn).coeffs), next(drawn))
        lhs = action_bkm(h1, action_bkm(h2, rho))
        rhs = action_bkm(_wrong_record_multiply(h1, h2), rho)
        worst = max(worst, float(np.max(np.abs(lhs.bloch - rhs.bloch))))
    monkeypatch.setattr(group_actions, "cotangent_multiply", _wrong_multiply)
    rep = verify_bkm_action(samples=samples, seed=seed)
    assert worst > 1e-3
    assert abs(rep.compatibility_dev - worst) <= 1e-15


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("subgroup", [alpha_subgroup(2.0, SIGMA3, ZERO),
                                      bkm_subgroup(SIGMA3, SIGMA3)])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_orbit_rejects_non_finite_times(subgroup, bad):
    with pytest.raises(DomainError, match=f"t = {bad} is not finite"):
        subgroup.orbit([0.5, bad], np.zeros((2, 3)))


def _old_power_coords(v, r, s):
    """(t, x) with rho^s = lambda_+^s (t I + x.sigma), lambda_+- = (1 +- r)/2:
    with k = (lambda_-/lambda_+)^s, t = (1 + k)/2 and x = (1 - k)/2 v/r."""
    k = ((1.0 - r) / (1.0 + r)) ** s
    out = np.empty(np.shape(r) + (4,))
    out[..., 0] = 0.5 * (1.0 + k)
    out[..., 1:] = _along(v, r, 0.5 * (1.0 - k))
    return out


def _old_alpha_images(s, g, v):
    """The alpha_A images before the rapidity form, kept as an oracle: the
    eigenvalues mu_+ = t' + |x'| and mu_- = det/mu_+ of g rho^s g^dag give
    (1 - q)/(1 + q) x'/|x'|, q = (mu_-/mu_+)^(1/s).  1 - k cancels as s -> 0,
    and q carries the rounding of Lambda(g) to the power 1/s.  Its overflows
    end in the NumericError of a NaN, quietly."""
    r = bloch_norm(v)
    with np.errstate(all="ignore"):
        moved = _apply(_lorentz(g), _old_power_coords(v, r, s))
        require_all(np.isfinite(moved).all(axis=-1), moved, NumericError,
                    "(t, x) of g rho^sqrt(A) g^dag", "is not finite")
        x = moved[..., 1:]
        rx = bloch_norm(x)
        mu_hi = moved[..., 0] + rx
        require_all(mu_hi > 0.0, moved, NumericError, "(t, x) of g rho^sqrt(A) g^dag",
                    "has lost t + |x| > 0 to rounding")
        det = ((1.0 - r) / (1.0 + r)) ** s
        q = (det / mu_hi / mu_hi) ** (1.0 / s)
        return check_bloch_array(_along(x, rx, (1.0 - q) / (1.0 + q)), NumericError)


def test_rapidity_form_matches_the_old_form():
    # A of order 1 and bounded generators, where the old form is accurate.
    rng = np.random.default_rng(29)
    v = _random_bloch(rng, 400)
    g = np.array([sl_from_generators(
        TracelessObservable.from_coeffs(rng.uniform(-1, 1, 3)),
        TracelessObservable.from_coeffs(rng.uniform(-1, 1, 3))).matrix for _ in v])
    for a_const in rng.uniform(0.25, 4.0, 8):
        s = math.sqrt(a_const)
        npt.assert_allclose(_alpha_images(s, g, v), _old_alpha_images(s, g, v),
                            rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("a_const", [1e-300, 1e-32, 1e-16, 1e6])
def test_identity_returns_the_state_at_extreme_a(a_const):
    # 1 - ((1 - r)/(1 + r))^sqrt(A) cancelled: the state moved by 7.3e-10
    # at A = 1e-16 and by 0.10 at A = 1e-32, and went to the centre at
    # A = 1e-300.
    out = action_alpha_a(a_const, sl_identity(), QubitState(0.1, 0.2, 0.3))
    npt.assert_allclose(out.bloch, [0.1, 0.2, 0.3], rtol=0.0, atol=1e-15)


def _unit(parts):
    return np.array(parts) / np.linalg.norm(parts)


_DIRECTION = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
    lambda d: np.linalg.norm(d) > 0.1).map(_unit)


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None)
@given(st.floats(-300.0, 6.0), _DIRECTION,
       st.one_of(st.floats(0.0, 1.0 - 2e-9), st.floats(-300.0, -1.0).map(lambda e: 10.0 ** e)))
def test_identity_returns_the_state_to_4_ulps(log_a, direction, radius):
    # Wherever sqrt(A) artanh(r) is a normal float no larger than 700.
    v = radius * direction
    r = float(bloch_norm(v))
    s = math.sqrt(10.0 ** log_a)
    assume(r > 0.0 and 2.3e-308 <= s * math.atanh(r) <= 700.0)
    got = _alpha_images(s, np.eye(2, dtype=complex), v)
    assert np.max(np.abs(got - v)) <= 4.0 * np.spacing(r), (got, v)


def _mp_alpha_image(a_const, g, v):
    """alpha_A(g, rho) from its definition, (g rho^s g^dag)^(1/s) over its
    trace, in mpmath, with enough digits for the cancellation in
    g rho^s g^dag; mu_- = det/mu_+ keeps mu_- off the cancelling t - |x|."""
    s_float = math.sqrt(a_const)
    beta = 2.0 * math.log(np.linalg.norm(g, 2))
    with mpmath.workdps(40 + int((beta + 2.0 * s_float * math.atanh(
            float(bloch_norm(v)))) / math.log(10.0))):
        s = mpmath.sqrt(mpmath.mpf(a_const))
        x = [mpmath.mpf(float(c)) for c in v]
        r = mpmath.sqrt(sum(c * c for c in x))
        lam_hi, lam_lo = ((1 + r) / 2) ** s, ((1 - r) / 2) ** s
        t, x = (lam_hi + lam_lo) / 2, [(lam_hi - lam_lo) / 2 * c / r for c in x]
        m = mpmath.matrix([[t + x[2], x[0] - 1j * x[1]], [x[0] + 1j * x[1], t - x[2]]])
        gm = mpmath.matrix(g.tolist())
        moved = gm * m * gm.H
        t = mpmath.re(moved[0, 0] + moved[1, 1]) / 2
        x = [mpmath.re(moved[0, 1]), -mpmath.im(moved[0, 1]),
             mpmath.re(moved[0, 0] - moved[1, 1]) / 2]
        rx = mpmath.sqrt(sum(c * c for c in x))
        mu_hi = t + rx
        mu_lo = abs(mpmath.det(gm)) ** 2 * lam_hi * lam_lo / mu_hi
        q = (mu_lo / mu_hi) ** (1 / s)
        return np.array([float((1 - q) / (1 + q) * c / rx) for c in x])


def _boosted_draw(beta, b1, b2, direction, log_depth, log_a):
    """A = 10^log_a and g = U1 diag(e^(beta/2), e^(-beta/2)) U2, U_i =
    exp(b_i.sigma/(2i)), acting on the state 10^log_depth inside the sphere
    along direction."""
    return (10.0 ** log_a,
            _special_unitary(b1) @ _boost(beta) @ _special_unitary(b2),
            (1.0 - 10.0 ** log_depth) * direction)


def _alpha_errors(a_const, g, v):
    """The errors of the rapidity and the old form against mpmath, each None
    for a NumericError; None where the exact image is not inside the
    ball's boundary band, as no form can return it."""
    want = _mp_alpha_image(a_const, g, v)
    if not np.linalg.norm(want) < 1.0 - 1e-9:
        return None
    errors = []
    for form in (_alpha_images, _old_alpha_images):
        try:
            errors.append(float(np.max(np.abs(form(math.sqrt(a_const), g, v) - want))))
        except NumericError:
            errors.append(None)
    return errors


def _accurate(error):
    return error is not None and error <= 1e-8


_ROTATION = st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), min_size=3, max_size=3)


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None)
@given(st.builds(_boosted_draw, st.floats(0.0, 40.0), _ROTATION, _ROTATION,
                 _DIRECTION, st.floats(-8.0, math.log10(0.5)), st.floats(-6.0, 4.0)))
def test_boosted_images_match_mpmath_where_the_old_form_does(draw):
    errors = _alpha_errors(*draw)
    assume(errors is not None)
    new, old = errors
    assert _accurate(new) or not _accurate(old), (draw, errors)


def test_boosted_sweep_is_no_worse_than_the_old_form():
    # The draws above, from one seed: no draw that the old form gets right
    # is wrong in the new one, and the new one raises no more often.
    rng = np.random.default_rng(2718)
    raised = np.zeros(2, int)
    for _ in range(500):
        draw = _boosted_draw(rng.uniform(0.0, 40.0),
                             *rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (2, 3)),
                             _unit(rng.standard_normal(3)),
                             rng.uniform(-8.0, math.log10(0.5)), rng.uniform(-6.0, 4.0))
        errors = _alpha_errors(*draw)
        if errors is None:
            continue
        new, old = errors
        assert _accurate(new) or not _accurate(old), (draw, errors)
        raised += [new is None, old is None]
    assert raised[0] <= raised[1], raised
