"""Dense truncated-Fock reference for the closed-form oracle in ``omclab.fock``.

The same pair-creation and state-swap interactions as matrix-exponential
unitaries on a truncated Fock space (``thermal_state``, ``apply_*``,
``click_probability``, ``heralded_state``), kept beside the tests as an
independent check of the closed form.  Index convention: the joint Hilbert
space is optical (x) mechanical with both modes truncated to dimension ``d``;
basis state (m photons, j phonons) lives at flat index ``m * d + j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse

from omclab.fock import HeraldingError


class TruncationError(ValueError):
    """The requested state or interaction does not fit in the truncated space."""


TRACE_TOL = 1e-10
_THERMAL_TAIL_TOL = 1e-8


def suggested_dim(n_th: float, tail_tol: float = _THERMAL_TAIL_TOL, minimum: int = 8) -> int:
    """Smallest per-mode dimension keeping the thermal tail below tail_tol."""
    if n_th < 0:
        raise ValueError("thermal occupation must be non-negative")
    if n_th == 0:
        return minimum
    lam = n_th / (n_th + 1)
    return max(minimum, math.ceil(math.log(tail_tol) / math.log(lam)))


def thermal_weights(n_th: float, d: int) -> np.ndarray:
    """Truncated, renormalized geometric distribution with mean ~ n_th."""
    if n_th == 0:
        out = np.zeros(d)
        out[0] = 1.0
        return out
    lam = n_th / (n_th + 1)
    weights = (1 - lam) * lam ** np.arange(d)
    return weights / weights.sum()


@dataclass(frozen=True)
class TwoModeState:
    """Density operator on the truncated optical (x) mechanical space."""

    rho: np.ndarray
    d: int

    def __post_init__(self):
        dim = self.d * self.d
        if self.rho.shape != (dim, dim):
            raise ValueError(f"state: expected {dim}x{dim} density matrix")
        if abs(np.trace(self.rho).real - 1.0) > TRACE_TOL or abs(np.trace(self.rho).imag) > TRACE_TOL:
            raise ValueError("state: trace must equal 1 within 1e-10")
        if not np.allclose(self.rho, self.rho.conj().T, atol=1e-10):
            raise ValueError("state: density matrix must be Hermitian")

    def validate(self) -> None:
        """Full (slower) check including positive semidefiniteness."""
        eigs = np.linalg.eigvalsh(self.rho)
        if eigs.min() < -TRACE_TOL:
            raise ValueError(f"state: negative eigenvalue {eigs.min():.3e}")

    def _rho4(self) -> np.ndarray:
        return self.rho.reshape(self.d, self.d, self.d, self.d)

    def optical_reduced(self) -> np.ndarray:
        return np.einsum("mjkj->mk", self._rho4())

    def mechanical_reduced(self) -> np.ndarray:
        return np.einsum("mjmk->jk", self._rho4())

    def mechanical_occupation(self) -> float:
        return float(np.real(np.diag(self.mechanical_reduced()) @ np.arange(self.d)))

    def optical_occupation(self) -> float:
        return float(np.real(np.diag(self.optical_reduced()) @ np.arange(self.d)))

    def joint_number_probability(self, m: int, j: int) -> float:
        """P(m photons and j phonons)."""
        idx = m * self.d + j
        return float(self.rho[idx, idx].real)


def thermal_state(n_th: float, d: int) -> TwoModeState:
    """Optical vacuum (x) mechanical thermal state at occupation n_th.

    Raises ``TruncationError`` (with the dimension that would suffice) when
    the geometric tail beyond ``d`` exceeds 1e-8.
    """
    if d < 2:
        raise ValueError("thermal_state: d >= 2 required")
    if n_th < 0:
        raise ValueError("thermal_state: n_th must be non-negative")
    if n_th > 0:
        lam = n_th / (n_th + 1)
        tail = lam**d
        if tail > _THERMAL_TAIL_TOL:
            raise TruncationError(
                f"thermal tail {tail:.2e} beyond d={d} exceeds {_THERMAL_TAIL_TOL}; "
                f"use d >= {suggested_dim(n_th)}"
            )
    rho = np.zeros((d * d, d * d), dtype=complex)
    weights = thermal_weights(n_th, d)
    for j, w in enumerate(weights):
        rho[j, j] = w  # optical vacuum block: index m=0 -> flat index j
    return TwoModeState(rho=rho, d=d)


# --- sector-blocked unitaries -------------------------------------------------
#
# Both generators conserve a number quantity (photon-phonon difference for
# pair creation, total quanta for the beamsplitter), so the truncated
# generator is block diagonal and each block can be exponentiated on its own.
# The truncated generators stay antisymmetric, hence the assembled matrices
# are exactly unitary and trace preservation holds to machine precision.


def _tms_block(r: float, delta: int, size: int) -> np.ndarray:
    """expm of the pair-creation generator on sector j - m = delta (delta>=0)."""
    m = np.arange(size - 1)
    g = r * np.sqrt((m + 1) * (m + delta + 1))
    gen = np.diag(g, -1) - np.diag(g, 1)
    return scipy.linalg.expm(gen)


def _bs_block(theta: float, s: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """expm of the swap generator on sector m + j = s; returns (block, m indices)."""
    m_lo, m_hi = max(0, s - (d - 1)), min(s, d - 1)
    ms = np.arange(m_lo, m_hi + 1)
    g = theta * np.sqrt((ms[:-1] + 1) * (s - ms[:-1]))
    gen = np.diag(g, -1) - np.diag(g, 1)
    return scipy.linalg.expm(gen), ms


@lru_cache(maxsize=16)
def _tms_unitary(d: int, r: float) -> scipy.sparse.csr_matrix:
    rows, cols, vals = [], [], []
    for delta in range(-(d - 1), d):
        a = abs(delta)
        size = d - a
        block = _tms_block(r, a, size)
        if delta >= 0:
            idx = np.array([m * d + (m + delta) for m in range(size)])
        else:
            idx = np.array([(j + a) * d + j for j in range(size)])
        rr, cc = np.meshgrid(idx, idx, indexing="ij")
        rows.append(rr.ravel())
        cols.append(cc.ravel())
        vals.append(block.ravel())
    mat = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(d * d, d * d),
    )
    return mat.tocsr()


@lru_cache(maxsize=16)
def _bs_unitary(d: int, theta: float) -> scipy.sparse.csr_matrix:
    rows, cols, vals = [], [], []
    for s in range(2 * d - 1):
        block, ms = _bs_block(theta, s, d)
        idx = ms * d + (s - ms)
        rr, cc = np.meshgrid(idx, idx, indexing="ij")
        rows.append(rr.ravel())
        cols.append(cc.ravel())
        vals.append(block.ravel())
    mat = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(d * d, d * d),
    )
    return mat.tocsr()


def apply_two_mode_squeeze(state: TwoModeState, r: float) -> TwoModeState:
    """Pair-creation interaction exp(r (a+b+ - ab)); sinh^2(r) ~ p_s per vacuum.

    Guards against truncation overflow: sinh^2(r) * (n_mech + 1) must stay
    well below the per-mode dimension.
    """
    load = math.sinh(r) ** 2 * (state.mechanical_occupation() + 1)
    if load > state.d / 4:
        raise TruncationError(
            f"pair creation load {load:.2f} too close to truncation d={state.d}"
        )
    u = _tms_unitary(state.d, float(r))
    rho = u @ state.rho @ u.conj().T.tocsr()
    return TwoModeState(rho=np.asarray(rho), d=state.d)


def apply_beamsplitter(state: TwoModeState, theta: float) -> TwoModeState:
    """State-swap interaction exp(theta (a+b - ab+)); swap probability sin^2(theta)."""
    u = _bs_unitary(state.d, float(theta))
    rho = u @ state.rho @ u.conj().T.tocsr()
    return TwoModeState(rho=np.asarray(rho), d=state.d)


def _click_weights(eta: float, d: int) -> np.ndarray:
    """P(>= 1 of m photons detected) = 1 - (1-eta)^m for m < d.

    Formed as -expm1(m log1p(-eta)), so a rare click is not the difference
    of two numbers close to one.
    """
    m = np.arange(d)
    if eta == 1.0:
        return (m > 0).astype(float)
    return -np.expm1(m * np.log1p(-eta))


def click_probability(state: TwoModeState, eta: float) -> float:
    """Threshold click probability on the optical mode after loss eta.

    Loss is a beamsplitter of transmissivity eta in front of the detector;
    a click is any outcome with >= 1 detected photon.
    """
    if not (0.0 <= eta <= 1.0):
        raise ValueError("click: eta must lie in [0, 1]")
    diag = np.real(np.diag(state.rho)).reshape(state.d, state.d)
    return float(_click_weights(eta, state.d) @ diag.sum(axis=1))


def heralded_state(state: TwoModeState, eta: float) -> np.ndarray:
    """Mechanical reduced state conditioned on a detected optical click.

    Returns the normalized d x d mechanical density matrix; raises
    ``HeraldingError`` when the click probability vanishes.
    """
    p_click = click_probability(state, eta)
    if p_click <= 0.0:
        raise HeraldingError("cannot herald on a zero-probability click")
    clicked = np.einsum("m,mjmk->jk", _click_weights(eta, state.d), state._rho4())
    return clicked / p_click

