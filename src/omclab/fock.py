"""Exact model of the write/read pulse pair on a thermal mechanical mode.

The oracle is closed form: the pair-creation (blue) and state-swap (red)
pulses, the detection loss and the thermal initial state are all Gaussian,
so the threshold-click statistics of both pulses (``two_pulse_click_table``,
``single_pulse_click_probability``, ``oracle_g2``) are ratios of vacuum
overlaps with no truncation and no dimension to choose.  Dark counts are
independent electronic events OR-ed with the optical click.  Everything the
fast Monte Carlo engine produces is validated against these functions.

The tests check the closed form against an independent dense reference,
the same interactions as matrix-exponential unitaries on a truncated Fock
space, kept in ``tests/fock_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import UndefinedEstimateError


@dataclass(frozen=True)
class ClickTable:
    """Joint signal-click probabilities of the write/read pulse pair."""

    p00: float  # no write click, no read click
    p01: float  # read click only
    p10: float  # write click only
    p11: float  # both

    def __post_init__(self):
        probs = (self.p00, self.p01, self.p10, self.p11)
        if any(p < -1e-12 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError("click table: probabilities must be a distribution")

    @property
    def p_write(self) -> float:
        return self.p10 + self.p11

    @property
    def p_read(self) -> float:
        return self.p01 + self.p11


def two_pulse_click_table(n_th: float, p_write: float, p_read: float,
                          eta: float) -> ClickTable:
    """Exact joint click statistics for pair-creation then state-swap pulses.

    The mechanical mode starts thermal at ``n_th``; the write and read
    interactions have pair/swap probabilities ``p_write``/``p_read``; both
    optical outputs hit a threshold detector of efficiency ``eta``.  Dark
    counts are not included here (they are independent and OR-ed on top by
    the callers).

    Both pulses and the loss are Gaussian channels acting on a thermal state,
    so each optical output is thermal and the no-click probabilities are
    vacuum overlaps: P(no write) = 1/(1+a), P(no read) = 1/(1+b) and
    P(neither) = 1/((1+a)(1+b) - c), with a = eta p_w (n+1),
    b = eta p_r ((1+p_w) n + p_w) and c = eta^2 p_r p_w (1+p_w) (n+1)^2.
    p11 is written so that no two large terms cancel when it is ~1e-9.
    """
    if not (0.0 <= p_write < 1.0 and 0.0 <= p_read <= 1.0):
        raise ValueError("click table: probabilities out of range")
    if not (0.0 <= eta <= 1.0):
        raise ValueError("click table: eta must lie in [0, 1]")
    if n_th < 0:
        raise ValueError("click table: n_th must be non-negative")
    a = eta * p_write * (n_th + 1)
    b = eta * p_read * ((1 + p_write) * n_th + p_write)
    c = eta**2 * p_read * p_write * (1 + p_write) * (n_th + 1) ** 2
    ab1 = (1 + a) * (1 + b)
    det = ab1 - c
    p11 = (a * b * ab1 + c * (1 - a * b)) / (ab1 * det)
    return ClickTable(p00=1 / det, p01=b / (1 + b) - p11, p10=a / (1 + a) - p11, p11=p11)


def single_pulse_click_probability(side: str, n_th: float, p_s: float, eta: float) -> float:
    """Exact threshold click probability of one pulse on a thermal mode."""
    if side == "blue":
        return two_pulse_click_table(n_th, p_s, 0.0, eta).p_write
    if side == "red":
        return two_pulse_click_table(n_th, 0.0, p_s, eta).p_read
    raise ValueError(f"unknown side {side!r}")


def oracle_g2(n_th: float, p_write: float, p_read: float, eta_det: float,
              dark_per_window: tuple[float, float] = (0.0, 0.0)) -> float:
    """Exact same-sequence photon-photon correlation of the two-pulse protocol.

    g2 = P(write and read click) / (P(write click) * P(read click)), with
    dark counts entering the (write, read) detection windows as independent
    Bernoulli events of probability ``dark_per_window``.
    """
    q_w, q_r = dark_per_window
    if not (0.0 <= q_w <= 1.0 and 0.0 <= q_r <= 1.0):
        raise ValueError("g2: dark probabilities must lie in [0, 1]")

    table = two_pulse_click_table(n_th, p_write, p_read, eta_det)
    s_w, s_r = table.p_write, table.p_read  # signal marginals; properties, so read once
    p_w = s_w + q_w * (1.0 - s_w)
    p_r = s_r + q_r * (1.0 - s_r)
    if p_w == 0.0 or p_r == 0.0:
        raise UndefinedEstimateError("g2 undefined: a marginal click probability is zero")
    p_wr = (table.p11
            + table.p10 * q_r
            + table.p01 * q_w
            + table.p00 * q_w * q_r)
    return p_wr / (p_w * p_r)
