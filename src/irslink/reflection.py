"""Reflection coefficients, their feasible sets, and the composite channel.

Each surface element multiplies its incident signal by a complex
coefficient v_n = beta_n * exp(j*theta_n) with beta_n <= 1 (a passive
element never amplifies).  Four feasible sets are supported: free
amplitude and phase, unit amplitude with free phase, unit amplitude with a
b-bit uniform phase lattice, and the absorbing state where every
coefficient is zero.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .numerics import as_complex_vector, integer

_FEAS_TOL = 1e-9
# The finest phase lattice.  From 5 bits on, one refinement step holds 2^bits
# candidates for each of the at most 32 elements a row scans, up to about 50 MB
# at 16 bits, and rounding takes level indices as machine integers, which
# overflow from 63 bits on.
_MAX_BITS = 16


class ConstraintKind(enum.Enum):
    IDEAL_CONTINUOUS = "ideal_continuous"
    UNIT_MODULUS = "unit_modulus"
    DISCRETE_PHASE = "discrete_phase"
    ABSORB = "absorb"


@dataclass(frozen=True)
class ConstraintSet:
    """Feasible set for the per-element reflection coefficients."""

    kind: ConstraintKind
    bits: int | None = None

    def __post_init__(self) -> None:
        if self.kind is ConstraintKind.DISCRETE_PHASE:
            object.__setattr__(self, "bits", integer("bits", self.bits, 1, _MAX_BITS))
        elif self.bits is not None:
            raise ValueError(f"{self.kind.value} takes no bit count")

    @classmethod
    def ideal_continuous(cls) -> "ConstraintSet":
        return cls(ConstraintKind.IDEAL_CONTINUOUS)

    @classmethod
    def unit_modulus(cls) -> "ConstraintSet":
        return cls(ConstraintKind.UNIT_MODULUS)

    @classmethod
    def discrete_phase(cls, bits: int) -> "ConstraintSet":
        return cls(ConstraintKind.DISCRETE_PHASE, bits)

    @classmethod
    def absorb(cls) -> "ConstraintSet":
        return cls(ConstraintKind.ABSORB)

    def phase_levels(self) -> np.ndarray:
        """The 2^bits lattice phases {2*pi*k / 2^bits}."""
        if self.kind is not ConstraintKind.DISCRETE_PHASE:
            raise ValueError("phase levels exist only for discrete phase control")
        nlev = 1 << self.bits
        return 2.0 * np.pi * np.arange(nlev) / nlev

    def contains(self, v: np.ndarray) -> bool:
        """Whether every coefficient satisfies this set (within _FEAS_TOL)."""
        v = np.asarray(v, dtype=np.complex128)
        mod = np.abs(v)
        if self.kind is ConstraintKind.ABSORB:
            return bool(np.all(v == 0))
        if self.kind is ConstraintKind.IDEAL_CONTINUOUS:
            return bool(np.all(mod <= 1.0 + _FEAS_TOL))
        if not np.all(np.abs(mod - 1.0) <= _FEAS_TOL):
            return False
        if self.kind is ConstraintKind.UNIT_MODULUS:
            return True
        # each phase's distance to the level k that project rounds it to:
        # phase - 2*pi*k / 2^bits is near 0, or near -2*pi for a negative phase
        phases = np.angle(v)
        off = phases - 2.0 * np.pi * _round_to_lattice(phases, self.bits) / (1 << self.bits)
        return bool(np.all(np.minimum(np.abs(off), np.abs(off + 2.0 * np.pi)) <= _FEAS_TOL))


@dataclass(frozen=True, eq=False)
class ReflectionState:
    """Per-element reflection coefficients plus the set they satisfy."""

    coefficients: np.ndarray
    constraint: ConstraintSet

    def __post_init__(self) -> None:
        v = as_complex_vector(self.coefficients, "coefficients")
        if not self.constraint.contains(v):
            raise ValueError(f"coefficients violate {self.constraint.kind.value} constraint")
        object.__setattr__(self, "coefficients", v)

    @property
    def n_elements(self) -> int:
        return self.coefficients.shape[0]


def absorb_state(n: int) -> ReflectionState:
    """All-zero coefficients: the surface contributes nothing."""
    return ReflectionState(np.zeros(n, dtype=np.complex128), ConstraintSet.absorb())


def project(v: np.ndarray, c: ConstraintSet) -> ReflectionState:
    """Entrywise nearest feasible point of ``c``.

    Free amplitude clips the modulus to one and keeps the phase; unit
    modulus keeps only the phase; discrete phase additionally rounds the
    phase to the nearest lattice level, breaking exact ties toward the
    lower level.  Zero entries carry phase 0.  Idempotent by construction.
    """
    v = as_complex_vector(v, "coefficients")
    if c.kind is ConstraintKind.ABSORB:
        return ReflectionState(np.zeros_like(v), c)
    if c.kind is ConstraintKind.IDEAL_CONTINUOUS:
        return ReflectionState(v / np.maximum(np.abs(v), 1.0), c)
    return ReflectionState(unit_phases(v, c.bits), c)


def unit_phases(v: np.ndarray, bits: int | None = None) -> np.ndarray:
    """exp(j * arg v), entrywise for an array of any shape, with the phase
    rounded to the nearest b-bit lattice level when ``bits`` is given
    (exact ties toward the lower level) and zero entries carrying phase 0:
    the unit-modulus and discrete-phase cases of :func:`project`."""
    # np.angle(-0.0) is pi, so zeros are mapped to phase 0 explicitly
    phases = np.where(v == 0, 0.0, np.angle(v))
    if bits is None:
        return np.exp(1j * phases)
    # looked up, not exponentiated: with 2^bits levels, delta * k is
    # 2*pi*k / 2^bits bit for bit, so the table holds exp(1j * delta * k)
    levels = np.exp(1j * ConstraintSet.discrete_phase(bits).phase_levels())
    return levels[_round_to_lattice(phases, bits)]


def _round_to_lattice(phases: np.ndarray, bits: int) -> np.ndarray:
    """The index k of the lattice level delta * k nearest to each phase."""
    nlev = 1 << bits
    # np.mod's wrap at a third of its cost: the exact remainder, plus 2*pi
    # once where it is negative, as np.mod adds it (and 0.0 elsewhere, which
    # changes no value but -0, to +0 as np.mod has it)
    m = np.fmod(phases, 2.0 * np.pi)
    m += 2.0 * np.pi * (m < 0)
    q = m / (2.0 * np.pi / nlev)
    k0 = np.floor(q)
    frac = q - k0
    k = k0.astype(np.intp)
    # exact half-step ties resolve to the smaller phase value, except the
    # one between the last level and 2*pi, which is level 0; q may also
    # round up to nlev itself, so the count wraps modulo nlev
    k += (frac > 0.5) | ((frac == 0.5) & (k == nlev - 1))
    return k & (nlev - 1)


def effective_channel(ch: ChannelRealization, refl: ReflectionState) -> np.ndarray:
    """Composite channel seen by the transmit beamformer (length M).

    Returns h_eff such that the received amplitude for beamformer w is
    <h_eff, w> = <h_d, w> + sum_n conj(h_r_n) * v_n * (G w)_n: the direct
    path plus the reflection-weighted multiplicative cascade.  Under the
    absorbing state, or with zero elements, equals the direct channel
    exactly.
    """
    if refl.n_elements != ch.n_elements:
        raise ValueError(
            f"reflection state has {refl.n_elements} elements, channel has {ch.n_elements}"
        )
    if ch.n_elements == 0 or refl.constraint.kind is ConstraintKind.ABSORB:
        return ch.h_bs_user.copy()
    weighted = np.conj(refl.coefficients) * ch.h_irs_user
    return ch.h_bs_user + ch.g_bs_irs.conj().T @ weighted
