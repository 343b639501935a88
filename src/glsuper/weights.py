"""Weight, root, and block combinatorics for gl(m|n).

A weight is an integer vector on the basis eps_1, ..., eps_{m+n}.  The
bilinear form is +1 on the first m coordinates and -1 on the last n; the
shifted weight lam + rho (with rho = (m, ..., 1, -1, ..., -n)) drives all
block data: atypicality, the orthogonal odd root set, and the core
multisets.  Everything here is exact integer arithmetic on immutable
values.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple

from ._record import Record
from .errors import DomainError, ParameterError, is_int


class SuperParams(Record, order=True):
    """Size data (m|n), normalized so that m >= n >= 1."""

    __slots__ = ("m", "n")

    def __post_init__(self) -> None:
        if not (is_int(self.m) and is_int(self.n)):
            raise ParameterError("m and n must be integers")
        if not self.m >= self.n >= 1:
            raise ParameterError(f"need m >= n >= 1, got ({self.m}|{self.n})")

    @property
    def rank(self) -> int:
        return self.m + self.n

    def __str__(self) -> str:
        return f"gl({self.m}|{self.n})"


class Weight(Record):
    """Integral weight sum(coeffs[i] * eps_{i+1}) for gl(m|n)."""

    __slots__ = ("params", "coeffs")

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != self.params.rank:
            raise ParameterError(
                f"expected {self.params.rank} coefficients, got {len(coeffs)}"
            )
        for c in coeffs:
            if not is_int(c):
                raise ParameterError(f"non-integral coefficient {c!r}")

    @staticmethod
    def zero(params: SuperParams) -> "Weight":
        return Weight(params, (0,) * params.rank)

    @staticmethod
    def eps(params: SuperParams, i: int) -> "Weight":
        """Basis weight eps_i, 1-based."""
        if not 1 <= i <= params.rank:
            raise ParameterError(f"index {i} out of range 1..{params.rank}")
        coeffs = [0] * params.rank
        coeffs[i - 1] = 1
        return Weight(params, tuple(coeffs))

    def __add__(self, other: "Weight") -> "Weight":
        _require_same_params(self, other)
        return Weight(self.params, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Weight") -> "Weight":
        _require_same_params(self, other)
        return Weight(self.params, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c: int) -> "Weight":
        return Weight(self.params, tuple(c * a for a in self.coeffs))

    def __str__(self) -> str:
        m = self.params.m
        left = ",".join(str(c) for c in self.coeffs[:m])
        right = ",".join(str(c) for c in self.coeffs[m:])
        return f"({left}|{right})"


class Root(Record, order=True):
    """The root eps_i - eps_j, i != j, 1-based indices."""

    __slots__ = ("i", "j")

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise ParameterError("root indices must differ")

    def is_odd(self, params: SuperParams) -> bool:
        return (self.i <= params.m) != (self.j <= params.m)

    def to_weight(self, params: SuperParams) -> Weight:
        return Weight.eps(params, self.i) - Weight.eps(params, self.j)


class RootPartition(NamedTuple):
    A_m: tuple[Root, ...]
    B_m: tuple[Root, ...]
    C_m: tuple[Root, ...]
    A_n: tuple[Root, ...]
    B_n: tuple[Root, ...]
    C_n: tuple[Root, ...]


def _require_same_params(a: Weight, b: Weight) -> None:
    if a.params != b.params:
        raise ParameterError(f"mismatched parameters {a.params} vs {b.params}")


def require_dominant(lam: Weight) -> None:
    if not is_dominant(lam):
        raise DomainError(f"weight {lam} is not dominant")


def bilinear_form(a: Weight, b: Weight) -> int:
    """Evaluate the supertrace form: +sum over the first m slots, -sum over the rest."""
    _require_same_params(a, b)
    m = a.params.m
    pos = sum(x * y for x, y in zip(a.coeffs[:m], b.coeffs[:m]))
    neg = sum(x * y for x, y in zip(a.coeffs[m:], b.coeffs[m:]))
    return pos - neg


def rho(params: SuperParams) -> Weight:
    """The shifted Weyl vector (m, m-1, ..., 1, -1, -2, ..., -n)."""
    m, n = params.m, params.n
    return Weight(params, tuple(range(m, 0, -1)) + tuple(range(-1, -n - 1, -1)))


def rho_m(params: SuperParams) -> Weight:
    m, n = params.m, params.n
    return Weight(params, tuple(range(m, 0, -1)) + (0,) * n)


def rho_n(params: SuperParams) -> Weight:
    m, n = params.m, params.n
    return Weight(params, (0,) * m + tuple(range(-1, -n - 1, -1)))


def is_dominant(lam: Weight) -> bool:
    """Coefficients weakly decrease within each factor; no constraint across the bar."""
    m = lam.params.m
    c = lam.coeffs
    for i in range(len(c) - 1):
        if i + 1 == m:
            continue
        if c[i] < c[i + 1]:
            return False
    return True


def positive_roots_m(params: SuperParams) -> Iterator[Root]:
    return itertools.starmap(Root, itertools.combinations(range(1, params.m + 1), 2))


def positive_roots_n(params: SuperParams) -> Iterator[Root]:
    return itertools.starmap(Root, itertools.combinations(range(params.m + 1, params.rank + 1), 2))


def odd_positive_roots(params: SuperParams) -> Iterator[Root]:
    return itertools.starmap(
        Root, itertools.product(range(1, params.m + 1), range(params.m + 1, params.rank + 1))
    )


class BlockDescriptor(Record):
    """Atypicality, core multisets, and the orthogonal odd root set of a weight.

    The cores are stored as sorted tuples so equality is multiset equality.
    Two dominant weights lie in the same block iff their descriptors agree on
    (atypicality, core_left, core_right); omega records where the atypical
    pairs sit for the particular weight and is not part of the block key.
    """

    __slots__ = ("atypicality", "core_left", "core_right", "omega")

    def __post_init__(self) -> None:
        object.__setattr__(self, "core_left", tuple(sorted(self.core_left)))
        object.__setattr__(self, "core_right", tuple(sorted(self.core_right)))
        object.__setattr__(self, "omega", tuple(sorted(self.omega)))
        if self.atypicality != len(self.omega):
            raise ParameterError("atypicality must equal |omega|")
        # pairwise orthogonality of eps_i - eps_j roots is a pure index condition
        for r, s in itertools.combinations(self.omega, 2):
            if r.i == s.i or r.j == s.j:
                raise ParameterError(f"roots {r} and {s} are not orthogonal")

    def block_key(self) -> tuple:
        return (self.atypicality, self.core_left, self.core_right)

    def to_json(self) -> dict:
        return {
            "k": self.atypicality,
            "core_left": list(self.core_left),
            "core_right": list(self.core_right),
            "omega": [[r.i, r.j] for r in self.omega],
        }


def atypicality(lam: Weight) -> BlockDescriptor:
    """Atypicality, omega, and cores of a dominant weight.

    For dominant lam the entries of lam + rho strictly decrease within each
    factor, so the odd roots orthogonal to lam + rho form a partial matching
    between the two index ranges that is forced by value equality; the greedy
    pairing below is therefore the unique maximal orthogonal set.  An
    exhaustive cross-check lives in ``atypicality_exhaustive``.
    """
    require_dominant(lam)
    m = lam.params.m
    # lam + rho, with rho = (m, ..., 1, -1, ..., -n)
    left_raw = [c + m - i for i, c in enumerate(lam.coeffs[:m])]
    right_raw = [c - j for j, c in enumerate(lam.coeffs[m:], 1)]
    # (lam+rho, eps_i - eps_j) = left_raw[i] + right_raw[j-m] for i <= m < j
    right_lookup = {value: pos for pos, value in enumerate(right_raw)}
    omega = []
    matched_left = set()
    matched_right = set()
    for i, value in enumerate(left_raw):
        pos = right_lookup.get(-value)
        if pos is not None:
            omega.append(Root(i + 1, m + pos + 1))
            matched_left.add(i)
            matched_right.add(pos)
    core_left = tuple(sorted(v for i, v in enumerate(left_raw) if i not in matched_left))
    core_right = tuple(sorted(-v for j, v in enumerate(right_raw) if j not in matched_right))
    return BlockDescriptor(len(omega), core_left, core_right, tuple(omega))


def atypicality_exhaustive(lam: Weight) -> int:
    """Brute-force maximum over all subsets of candidate odd roots (test oracle)."""
    require_dominant(lam)
    params = lam.params
    if params.n > 8:
        raise DomainError("exhaustive search limited to n <= 8")
    shifted = lam + rho(params)
    candidates = [
        r
        for r in odd_positive_roots(params)
        if bilinear_form(shifted, r.to_weight(params)) == 0
    ]
    best = 0
    for size in range(len(candidates), 0, -1):
        if size <= best:
            break
        for subset in itertools.combinations(candidates, size):
            rows = {r.i for r in subset}
            cols = {r.j for r in subset}
            if len(rows) == size and len(cols) == size:
                best = size
                break
    return best


def same_block(a: Weight, b: Weight) -> bool:
    """Serganova's criterion: equal atypicality and equal core multisets."""
    _require_same_params(a, b)
    return atypicality(a).block_key() == atypicality(b).block_key()


def naive_length(lam: Weight) -> int:
    require_dominant(lam)
    return sum(lam.coeffs[: lam.params.m])


def length(lam: Weight, desc: BlockDescriptor | None = None) -> int:
    """k(k+1)/2 + sum over omega of (lam^+ + rho_n, eps_i - eps_j) = lam_i - (j - m).

    desc, if given, is atypicality(lam), which is then not computed again.
    """
    if desc is None:
        desc = atypicality(lam)
    k = desc.atypicality
    m = lam.params.m
    return k * (k + 1) // 2 + sum(lam.coeffs[r.i - 1] - (r.j - m) for r in desc.omega)


def is_principal_block_gl_kk(lam: Weight) -> bool:
    """True iff lam is a dominant weight of gl(k|k) with full atypicality and empty cores."""
    params = lam.params
    if params.m != params.n or not is_dominant(lam):
        return False
    desc = atypicality(lam)
    return desc.atypicality == params.n and not desc.core_left and not desc.core_right


def bruhat_leq_principal(a: Weight, b: Weight) -> bool:
    """Coordinate criterion for the Bruhat order on the principal block of gl(k|k).

    Only this special case is supported; the order on other blocks is out of
    scope here.
    """
    _require_same_params(a, b)
    if not (is_principal_block_gl_kk(a) and is_principal_block_gl_kk(b)):
        raise DomainError("both weights must lie in the principal block of a gl(k|k)")
    m = a.params.m
    return all(a.coeffs[i] <= b.coeffs[i] for i in range(m))


def root_partition(lam: Weight) -> RootPartition:
    """Split the even positive roots by how many endpoints meet omega's indices."""
    require_dominant(lam)
    params = lam.params
    desc = atypicality(lam)
    rows = {r.i for r in desc.omega}
    cols = {r.j for r in desc.omega}

    def split(roots: Iterable[Root], hits: set[int]) -> tuple[list, list, list]:
        buckets: tuple[list, list, list] = ([], [], [])
        for r in roots:
            buckets[len({r.i, r.j} & hits)].append(r)
        return buckets

    am, bm, cm = split(positive_roots_m(params), rows)
    an, bn, cn = split(positive_roots_n(params), cols)
    return RootPartition(tuple(am), tuple(bm), tuple(cm), tuple(an), tuple(bn), tuple(cn))


def berezinian_weight(params: SuperParams) -> Weight:
    """Weight of the Berezinian character (1, ..., 1 | -1, ..., -1)."""
    return Weight(params, (1,) * params.m + (-1,) * params.n)


def weight_to_json(w: Weight) -> dict:
    return {"m": w.params.m, "n": w.params.n, "coeffs": list(w.coeffs)}


def weight_from_json(data: dict) -> Weight:
    return Weight(SuperParams(data["m"], data["n"]), data["coeffs"])
