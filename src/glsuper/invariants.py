"""Closed-form complexity, z-invariant, and variety dimensions for gl(m|n) modules.

Everything here is a formula in the atypicality of the highest weight.  No
resolution is computed; the brute-force measurements live in the oracle
subpackage and the two sides are compared in the acceptance tests.
"""

from __future__ import annotations

import enum

from . import weights
from ._record import Record
from .errors import DomainError, InternalCheckError


class ModuleKind(enum.Enum):
    KAC = "kac"
    DUAL_KAC = "dualkac"
    SIMPLE = "simple"


class InvariantReport(Record):
    """Invariants of a Kac, dual Kac, or simple module of atypicality k.

    dim_rank_plus / dim_rank_minus are the maximal ranks of square-zero odd
    elements of g_{+1} / g_{-1} in the support (equivalently the dimensions of
    the detecting-subalgebra slices); the full rank-variety dimensions in
    g_{+-1} are recovered via ``rank_orbit_closure_dim``.
    """

    __slots__ = (
        "complexity", "z_invariant", "dim_X", "dim_V_g_g0", "dim_V_f_f0", "dim_rank_plus",
        "dim_rank_minus",
    )

    def __post_init__(self) -> None:
        if self.complexity != self.dim_X + self.dim_V_g_g0:
            raise InternalCheckError(
                f"complexity {self.complexity} is not dim_X + dim_V_g_g0 "
                f"= {self.dim_X} + {self.dim_V_g_g0}"
            )

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


def rank_orbit_closure_dim(params: weights.SuperParams, r: int) -> int:
    """Dimension (m+n)r - r^2 of the closure of the rank-r orbit in g_{+-1}."""
    if not 0 <= r <= params.n:
        raise DomainError(f"rank {r} out of range 0..{params.n}")
    return (params.m + params.n) * r - r * r


def complexity(kind: ModuleKind, lam: weights.Weight) -> int:
    return variety_dims(kind, lam).complexity


def z_invariant(kind: ModuleKind, lam: weights.Weight) -> int:
    return variety_dims(kind, lam).z_invariant


def variety_dims(kind: ModuleKind, lam: weights.Weight) -> InvariantReport:
    k = weights.atypicality(lam).atypicality
    dim_x = rank_orbit_closure_dim(lam.params, k)
    dim_v = k if kind is ModuleKind.SIMPLE else 0
    z = 2 * k if kind is ModuleKind.SIMPLE else k
    return InvariantReport(
        complexity=dim_x + dim_v,
        z_invariant=z,
        dim_X=dim_x,
        dim_V_g_g0=dim_v,
        dim_V_f_f0=z,
        dim_rank_plus=k if kind in (ModuleKind.KAC, ModuleKind.SIMPLE) else 0,
        dim_rank_minus=k if kind in (ModuleKind.DUAL_KAC, ModuleKind.SIMPLE) else 0,
    )
