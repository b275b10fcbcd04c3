"""Integer cocharacters of the diagonal torus fixing the unit tensor, and
the degeneration certificates they induce.

A cocharacter is a triple of integer vectors (lambda, mu, nu) with
lambda_i + mu_i + nu_i = 0 for every i; it acts on the coordinate triple
(i, j, k) with weight lambda_i + mu_j + nu_k.  Rescaling a tensor along such
a one-parameter family and letting the parameter go to zero kills exactly
the coordinates of positive weight and fixes the diagonal, so a tensor with
full nonzero diagonal and strictly positive weights on its off-diagonal
support degenerates to a diagonal tensor of full rank: its border subrank is
maximal.  Over the integers "strictly positive" is the same as ">= 1",
which is the normalization used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import DimensionMismatchError, InvalidValueError
from .tensors import Support, Tensor3, Triple, _check_triple, check_n, json_int


@dataclass(frozen=True)
class TorusWeight:
    """Integer cocharacter (lambda, mu, nu) with zero column sums."""

    n: int
    lam: tuple[int, ...]
    mu: tuple[int, ...]
    nu: tuple[int, ...]

    def __post_init__(self):
        check_n(self.n)
        object.__setattr__(self, "lam", tuple(map(json_int, self.lam)))
        object.__setattr__(self, "mu", tuple(map(json_int, self.mu)))
        object.__setattr__(self, "nu", tuple(map(json_int, self.nu)))
        for seq in (self.lam, self.mu, self.nu):
            if len(seq) != self.n:
                raise InvalidValueError(f"cocharacter sequences must have length n={self.n}")
        for i in range(self.n):
            if self.lam[i] + self.mu[i] + self.nu[i] != 0:
                raise InvalidValueError(
                    f"lambda_{i+1} + mu_{i+1} + nu_{i+1} = "
                    f"{self.lam[i] + self.mu[i] + self.nu[i]} != 0"
                )

    @classmethod
    def _made(cls, n, lam, mu, nu):
        """Unchecked: for integer tuples the package made with zero column
        sums, n checked first (``tensors`` module docstring)."""
        tw = object.__new__(cls)
        for name, value in (("n", n), ("lam", lam), ("mu", mu), ("nu", nu)):
            object.__setattr__(tw, name, value)
        return tw

    def weight(self, triple) -> int:
        return weight_of(self, triple)

    def to_json(self):
        return {"n": self.n, "lambda": list(self.lam), "mu": list(self.mu), "nu": list(self.nu)}

    @classmethod
    def from_json(cls, obj):
        try:
            lam, mu, nu = (tuple(map(json_int, obj[key])) for key in ("lambda", "mu", "nu"))
            return cls(json_int(obj["n"]), lam, mu, nu)
        except (KeyError, TypeError) as exc:
            raise InvalidValueError(f"malformed certificate JSON: {exc}") from exc


def weight_of(tw: TorusWeight, triple: Triple) -> int:
    """lambda_i + mu_j + nu_k.  Zero on the diagonal by the zero-sum rule."""
    i, j, k = _check_triple(tw.n, triple)
    return tw.lam[i - 1] + tw.mu[j - 1] + tw.nu[k - 1]


def binary_cocharacter(n) -> TorusWeight:
    """The power-of-two cocharacter certifying the staircase support W(n):

        lambda_k = 2^n - 2^(n-k+1),   mu_k = nu_k = 2^(n-k) - 2^(n-1).

    Its weight on (i, j, k) collapses to 2^(n-j) + 2^(n-k) - 2^(n-i+1),
    which is >= 1 exactly when j or k drops below i -- i.e. on all of W(n).
    """
    check_n(n)
    lam = tuple(2**n - 2 ** (n - k + 1) for k in range(1, n + 1))
    mu = tuple(2 ** (n - k) - 2 ** (n - 1) for k in range(1, n + 1))
    return TorusWeight._made(n, lam, mu, mu)


def _positive(tw: TorusWeight, triples):
    """The triples of weight >= 1 under tw, as a frozenset: ``weight_of``
    unchecked, for triples the package made (``tensors`` module docstring)."""
    lam, mu, nu = tw.lam, tw.mu, tw.nu
    return frozenset(t for t in triples if lam[t[0] - 1] + mu[t[1] - 1] + nu[t[2] - 1] >= 1)


def positive_support(tw: TorusWeight) -> Support:
    """All triples of strictly positive weight; never meets the diagonal."""
    return Support._made(tw.n, _positive(tw, product(range(1, tw.n + 1), repeat=3)))


@dataclass(frozen=True)
class CertificateVerdict:
    valid: bool
    reason: str | None = None
    triple: Triple | None = None
    weight: int | None = None

    detail: str | None = None

    def to_json(self):
        out = {"valid": self.valid}
        if self.reason is not None:
            out["reason"] = self.reason
        if self.triple is not None:
            out["triple"] = list(self.triple)
            out["weight"] = self.weight
        if self.detail is not None:
            out["detail"] = self.detail
        return out


def check_degeneration_certificate(T: Tensor3, tw: TorusWeight) -> CertificateVerdict:
    """Is tw a valid maximal-border-subrank certificate for T?

    Valid means: every diagonal entry (i,i,i) of T is present (any nonzero
    value -- the limit is a full-rank diagonal tensor, which a diagonal
    rescaling carries to the unit tensor), and every off-diagonal triple of
    supp(T) has weight >= 1, so the one-parameter limit kills exactly the
    off-diagonal part.  Invalid verdicts name the first offending triple.
    """
    if T.n != tw.n:
        raise DimensionMismatchError(f"tensor n={T.n} vs cocharacter n={tw.n}")
    for i in range(1, T.n + 1):
        if (i, i, i) not in T.entries:
            return CertificateVerdict(
                valid=False,
                reason="missing diagonal entry",
                triple=(i, i, i),
                weight=0,
            )
    for t in sorted(T.entries):
        i, j, k = t
        if i == j == k:
            continue
        w = tw.lam[i - 1] + tw.mu[j - 1] + tw.nu[k - 1]  # T and tw are checked
        if w < 1:
            return CertificateVerdict(
                valid=False,
                reason="nonpositive weight on off-diagonal support",
                triple=t,
                weight=w,
            )
    return CertificateVerdict(
        valid=True,
        detail=(
            "limit along the cocharacter is the diagonal tensor with the same "
            "diagonal coefficients, which lies in the GL-orbit of the unit "
            "tensor; border subrank is maximal"
        ),
    )
