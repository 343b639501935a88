"""Weight constructions transporting the lattice-point sets into a block of gl(m|n).

The injective map zeta plants a k-vector x into the middle coordinates of a
weight of the distinguished block B of atypicality k (with the mirrored
values -x on the other side of the bar); the pair set S(d) is the image of
the lattice points of the dilated polytope.  Only the stated values of the
block bijection onto the principal block of gl(k|k) are implemented: its
value on zeta images, its value on the mu^(a) family when k=1, and the
length/order transport used by the pair conditions.
"""

from __future__ import annotations

from ._record import Record
from .errors import DomainError, InternalCheckError, ParameterError, require_int
from .polytope import enumerate_lattice_points
from .weights import (
    BlockDescriptor,
    SuperParams,
    Weight,
    atypicality,
    is_dominant,
    length,
    weight_to_json,
)


class ZetaInput(Record):
    """The argument of zeta: a k-vector x for the block of atypicality k of gl(m|n)."""

    __slots__ = ("params", "k", "x")

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(self.x))
        if not 1 <= self.k <= self.params.n:
            raise ParameterError(f"atypicality {self.k} out of range 1..{self.params.n}")
        if len(self.x) != self.k:
            raise ParameterError(f"expected {self.k} coordinates, got {len(self.x)}")


class WeightPairSet(Record):
    """The pair set S(d) inside B x B, with the block descriptor attached."""

    __slots__ = ("d", "pairs", "block")

    def __len__(self) -> int:
        return len(self.pairs)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "block": self.block.to_json(),
            "pairs": [[weight_to_json(mu), weight_to_json(sigma)] for mu, sigma in self.pairs],
        }


def zeta(inp: ZetaInput) -> Weight:
    """(p, p-1, ..., 1, x_1..x_k | -x_k..-x_1, -(q+1), ..., -(q+n-k)) with p=m-k, q=2m-2k."""
    m, n, k = inp.params.m, inp.params.n, inp.k
    p, q = m - k, 2 * m - 2 * k
    left = [p - i for i in range(p)]
    left += list(inp.x)
    right = [-inp.x[k - 1 - s] for s in range(k)]
    right += [-(q + j + 1) for j in range(n - k)]
    return Weight(inp.params, tuple(left + right))


def _core_left_closed_form(params: SuperParams, k: int) -> tuple[int, ...]:
    # the distinguished atypicality-one block sits at even core values
    if k == 1:
        return tuple(range(2, 2 * params.m - 1, 2))
    return tuple(range(k + 2, 2 * params.m - k + 1, 2))


def _core_right_closed_form(params: SuperParams, k: int) -> tuple[int, ...]:
    if k == 1:
        return tuple(range(2 * params.m, 2 * params.m + 2 * params.n - 3, 2))
    return tuple(range(2 * params.m - k + 2, 2 * params.m + 2 * params.n - 3 * k + 1, 2))


def _nu_k1(params: SuperParams) -> Weight:
    """The unique weight of the atypicality-one block B with length zero.

    The block bijection onto the principal block of gl(1|1) preserves length
    and length is injective there, so the weight of B with length zero is the
    preimage of the zero weight.  A weight of B inserts a value s into the
    left core values of lambda+rho and -s into the negated right ones, and its
    length is s - m + #{core_left > s} - #{core_right < s}, which grows with s
    over the admissible values.  It is zero at s = 1, which gives
    (max(m-1-i, 0) for i = 1..m | 0, 4-2m-j for j = 2..n); the block key and
    the length are checked.
    """
    m, n = params.m, params.n
    coeffs = tuple(max(m - 1 - i, 0) for i in range(1, m + 1)) + (0,)
    w = Weight(params, coeffs + tuple(4 - 2 * m - j for j in range(2, n + 1)))
    desc = atypicality(w)
    key = (1, _core_left_closed_form(params, 1), _core_right_closed_form(params, 1))
    if desc.block_key() != key or length(w, desc) != 0:
        raise InternalCheckError(f"{w} is not the length-zero weight of B")
    return w


def nu(params: SuperParams, k: int) -> Weight:
    """The distinguished weight of B mapped to zero by the block bijection."""
    require_int("k", k)
    if not 1 <= k <= params.n:
        raise DomainError(f"atypicality {k} out of range 1..{params.n}")
    if k > 1:
        return zeta(ZetaInput(params, k, (0,) * k))
    return _nu_k1(params)


def block_B_descriptor(params: SuperParams, k: int) -> BlockDescriptor:
    """Descriptor of the distinguished block: atypicality k with the stepped cores."""
    desc = atypicality(nu(params, k))
    key = (k, _core_left_closed_form(params, k), _core_right_closed_form(params, k))
    if desc.block_key() != key:
        raise InternalCheckError(f"nu has block key {desc.block_key()}, not the closed form {key}")
    return desc


def phi_on_zeta(inp: ZetaInput) -> Weight:
    """Value of the block bijection on a zeta image: the antisymmetric gl(k|k) weight.

    The image (x_1, ..., x_k | -x_k, ..., -x_1) is the unique reading that
    sends nu to zero, preserves length, and lands in the principal block.
    """
    k = inp.k
    kk = SuperParams(k, k)
    coeffs = inp.x + tuple(-inp.x[k - 1 - s] for s in range(k))
    return Weight(kk, coeffs)


def phi_k1(params: SuperParams, a: int) -> Weight:
    """Value of the block bijection on mu^(a): (a-n+1)(eps_1 - eps_2) in gl(1|1)."""
    c = a - params.n + 1
    return Weight(SuperParams(1, 1), (c, -c))


def mu_a(params: SuperParams, a: int, d: int) -> Weight:
    """The k=1 family (a, p, ..., 1 | -(q+1), ..., -(q+n-1), -b) inside its a-window."""
    m, n = params.m, params.n
    if d <= 6 * (m + n):
        raise DomainError(f"need d > 6(m+n) = {6 * (m + n)}")
    if not (3 * a > 2 * d and a <= d):
        raise DomainError(f"need 2d/3 < a <= d, got a={a}, d={d}")
    q, b = 2 * m - 2, a + m - n
    return Weight(params, [a] + [m - i for i in range(1, m)] + [-(q + j) for j in range(1, n)] + [-b])


def build_S(params: SuperParams, k: int, d: int) -> WeightPairSet:
    """S(d): zeta-image pairs of the lattice points for k > 1, the diagonal mu^(a) family for k = 1."""
    require_int("d", d)
    block = block_B_descriptor(params, k)
    key = block.block_key()
    pairs = []
    if k == 1:
        if d <= 6 * (params.m + params.n):
            raise DomainError(f"need d > 6(m+n) = {6 * (params.m + params.n)}")
        for a in range(2 * d // 3 + 1, d + 1):
            w = mu_a(params, a, d)
            if atypicality(w).block_key() != key:
                raise InternalCheckError(f"mu^({a}) leaves B")
            pairs.append((w, w))
    else:
        for point in enumerate_lattice_points(k, d):
            mu = zeta(ZetaInput(params, k, point[:k]))
            sigma = zeta(ZetaInput(params, k, point[k:]))
            for w in (mu, sigma):
                if not is_dominant(w) or atypicality(w).block_key() != key:
                    raise InternalCheckError(f"zeta image {w} is not a dominant weight of B")
            pairs.append((mu, sigma))
    return WeightPairSet(d, tuple(pairs), block)


def _recover_zeta_vector(w: Weight, params: SuperParams, k: int) -> tuple[int, ...]:
    x = w.coeffs[params.m - k : params.m]
    if zeta(ZetaInput(params, k, x)) != w:
        raise DomainError(f"{w} is not a zeta image")
    return x


def check_pair_conditions(pair: tuple[Weight, Weight], d: int, params: SuperParams, k: int) -> bool:
    """The k>1 pair conditions: order, length window, the degree-halving equality, and gaps.

    The Bruhat comparisons are transported through the block bijection, where
    the principal-block coordinate criterion applies.  For k = 1 no pair of
    build_S meets them (sigma <= nu needs a <= n - 1 < 2d/3, and the halving
    needs a negative length), so k < 2 is refused.
    """
    if k < 2:
        raise DomainError(f"the pair conditions need atypicality k >= 2, got k={k}")
    mu, sigma = pair
    x_mu = _recover_zeta_vector(mu, params, k)
    x_sigma = _recover_zeta_vector(sigma, params, k)
    sigma_leq_mu = all(s <= m for s, m in zip(x_sigma, x_mu))
    sigma_leq_nu = all(s <= 0 for s in x_sigma)
    l_mu, l_sigma = length(mu), length(sigma)
    if not (sigma_leq_mu and sigma_leq_nu):
        return False
    if not 0 <= l_mu - l_sigma <= d:
        return False
    if -2 * l_sigma != d - l_mu:
        return False
    two_ksq = 2 * k * k
    gaps = [-mu.coeffs[params.m - k]]
    for i in range(params.m - k, params.m - 1):
        gaps.append(mu.coeffs[i] - mu.coeffs[i + 1])
    return all(g * two_ksq >= d for g in gaps)
