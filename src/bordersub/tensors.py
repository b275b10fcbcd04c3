"""Core value types: exact rational sparse tensors of format n x n x n,
coordinate supports, the S_n x S_3 symmetry group acting on them, and the
named support families.

Conventions used everywhere in the package:

* indices are 1-based, triples (i, j, k) live in [n]^3;
* scalars are exact rationals (fractions.Fraction) -- no floats, ever;
  ``integer_entries`` clears a tensor's denominators for the integer
  kernels below the API;
* tensors are sparse with absent-means-zero, so the support is exactly the
  set of stored triples;
* inputs are checked once, at the public boundary: by each public
  constructor, and by ``check_n`` first in each public function taking n.
  ``Support._made`` checks nothing, as the package gives it only triples
  made over [1, n]^3 or taken from checked values, n checked first; nor
  does ``weights.TorusWeight._made``, given only integer cocharacters the
  package made with zero column sums.

The three staircase supports come from the "some other index is smaller
than the distinguished one" conditions:

    W   : at least one of j, k less than i
    W'  : at least one of i, k less than j
    W'' : at least one of i, j less than k

and the arithmetic-progression support U collects the off-diagonal triples
with 2i = j + k, which sits inside W.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product
from math import lcm

from .errors import DimensionMismatchError, InvalidValueError

Triple = tuple[int, int, int]

W_VARIANTS = ("W", "W'", "W''")


def _check_triple(n, t):
    """t as a tuple of three int indices in [1, n].  Anything else raises
    InvalidValueError, a bool index included: True would read as 1."""
    if len(t) == 3:
        i, j, k = t
        if type(i) is type(j) is type(k) is int and 0 < i <= n and 0 < j <= n and 0 < k <= n:
            return (i, j, k)
    raise InvalidValueError(f"triple {t!r} outside [1, {n}]^3")


def json_int(value):
    """A number read from JSON, accepted only when it is a JSON integer.

    Floats, strings and booleans raise InvalidValueError: int() would read
    1.7 as 1 and true as 1, and judge a different input than the file's."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InvalidValueError(f"{value!r} is not a JSON integer")


def check_n(n):
    """n as a JSON integer >= 1, else InvalidValueError (True and 2.0 are not formats)."""
    if json_int(n) < 1:
        raise InvalidValueError("n must be positive")
    return n


def rational(value):
    """value as an exact Fraction.  A float or a bool raises
    InvalidValueError: Fraction(0.1) keeps its binary expansion
    3602879701896397/2^55, and Fraction(True) is 1."""
    if isinstance(value, (float, bool)):
        raise InvalidValueError(f"{value!r} is a {type(value).__name__}, not an exact rational")
    return Fraction(value)


@dataclass(frozen=True)
class Support:
    """A finite set of index triples: a coordinate subspace of A (x) B (x) C."""

    n: int
    triples: frozenset[Triple]

    def __post_init__(self):
        check_n(self.n)
        object.__setattr__(self, "triples", frozenset(_check_triple(self.n, t) for t in self.triples))

    @classmethod
    def of(cls, n, triples):
        return cls(n, frozenset(tuple(t) for t in triples))

    @classmethod
    def _made(cls, n, triples):
        """Unchecked: for triples the package made (see the module docstring)."""
        sup = object.__new__(cls)
        object.__setattr__(sup, "n", n)
        object.__setattr__(sup, "triples", frozenset(triples))
        return sup

    def sorted_triples(self):
        return sorted(self.triples)

    def __len__(self):
        return len(self.triples)

    def __iter__(self):
        return iter(self.sorted_triples())

    def __contains__(self, t):
        return tuple(t) in self.triples

    def union(self, other):
        if isinstance(other, Support):
            if other.n != self.n:
                raise DimensionMismatchError(f"n={self.n} vs n={other.n}")
            other = other.triples
        return Support.of(self.n, self.triples | {tuple(t) for t in other})

    def difference(self, other):
        if isinstance(other, Support):
            if other.n != self.n:
                raise DimensionMismatchError(f"n={self.n} vs n={other.n}")
            other = other.triples
        return Support.of(self.n, self.triples - {tuple(t) for t in other})

    def to_json(self):
        return {"n": self.n, "triples": [list(t) for t in self.sorted_triples()]}

    @classmethod
    def from_json(cls, obj):
        try:
            return cls.of(json_int(obj["n"]), [tuple(json_int(v) for v in t) for t in obj["triples"]])
        except (KeyError, TypeError) as exc:
            raise InvalidValueError(f"malformed support JSON: {exc}") from exc


def _parse_fraction(s):
    """Exact fraction string "p" or "p/q"; decimal or float syntax rejected."""
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str) or "." in s or "e" in s.lower():
        raise InvalidValueError(f"coefficient {s!r} is not a decimal-free fraction string")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidValueError(f"bad coefficient {s!r}: {exc}") from exc


@dataclass(frozen=True)
class Tensor3:
    """Sparse order-3 tensor over Q; stored coefficients are never zero."""

    n: int
    entries: dict[Triple, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        check_n(self.n)
        clean = {}
        for t, c in self.entries.items():
            t = _check_triple(self.n, t)
            c = rational(c)
            if c == 0:
                raise InvalidValueError(f"explicit zero coefficient at {t}")
            clean[t] = c
        object.__setattr__(self, "entries", clean)

    def coeff(self, t) -> Fraction:
        return self.entries.get(tuple(t), Fraction(0))

    def support(self) -> Support:
        return Support._made(self.n, self.entries)

    def is_zero(self):
        return not self.entries

    def __add__(self, other):
        if self.n != other.n:
            raise DimensionMismatchError(f"n={self.n} vs n={other.n}")
        entries = dict(self.entries)
        for t, c in other.entries.items():
            s = entries.get(t, Fraction(0)) + c
            if s == 0:
                entries.pop(t, None)
            else:
                entries[t] = s
        return Tensor3(self.n, entries)

    def scale(self, c):
        c = rational(c)
        if c == 0:
            return Tensor3(self.n, {})
        return Tensor3(self.n, {t: c * v for t, v in self.entries.items()})

    def to_json(self):
        return {
            "n": self.n,
            "entries": [[i, j, k, str(c)] for (i, j, k), c in sorted(self.entries.items())],
        }

    @classmethod
    def from_json(cls, obj):
        try:
            entries = {}
            for row in obj["entries"]:
                i, j, k, c = row
                t = (json_int(i), json_int(j), json_int(k))
                if t in entries:
                    raise InvalidValueError(f"coordinate {t} listed twice in tensor JSON")
                entries[t] = _parse_fraction(c)
            return cls(json_int(obj["n"]), entries)
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, InvalidValueError):
                raise
            raise InvalidValueError(f"malformed tensor JSON: {exc}") from exc


def integer_entries(T: Tensor3) -> dict[Triple, int]:
    """T's entries times the lcm of their denominators, as ints: the one
    place a tensor's denominators are cleared.  Ranks, kernels, slice
    commutation and diagonalizability are blind to a positive common
    scale, so every kernel below the API works on these."""
    den = lcm(1, *(c.denominator for c in T.entries.values()))
    return {t: c.numerator * (den // c.denominator) for t, c in T.entries.items()}


@dataclass(frozen=True)
class Symmetry:
    """An element of S_n x S_3, the symmetry group of the unit tensor's
    coordinate supports: relabel every index by sigma (1-based images,
    i -> sigma[i - 1]) and move the entry in position p of a triple to
    position slots[p] (0-based).  The default slots give a diagonal
    relabelling."""

    n: int
    sigma: tuple[int, ...]
    slots: tuple[int, int, int] = (0, 1, 2)

    def __post_init__(self):
        check_n(self.n)
        object.__setattr__(self, "sigma", tuple(self.sigma))
        object.__setattr__(self, "slots", tuple(self.slots))
        if sorted(self.sigma) != list(range(1, self.n + 1)):
            raise InvalidValueError(f"{self.sigma!r} is not a permutation of 1..{self.n}")
        if sorted(self.slots) != [0, 1, 2]:
            raise InvalidValueError(f"{self.slots!r} is not a permutation of the slots 0, 1, 2")

    @classmethod
    def all(cls, n):
        """The 6 n! elements, the identity first, sigma varying slowest."""
        check_n(n)
        return [cls(n, sigma, slots) for sigma in permutations(range(1, n + 1)) for slots in permutations(range(3))]

    def __call__(self, t):
        """The image of the triple t: sigma(t[p]) in position slots[p]."""
        return self._image(_check_triple(self.n, t))

    def _image(self, t):
        """__call__ unchecked, for triples the package made."""
        i, j, k = t
        sigma, (a, b, c) = self.sigma, self.slots
        u = [0, 0, 0]
        u[a], u[b], u[c] = sigma[i - 1], sigma[j - 1], sigma[k - 1]
        return tuple(u)

    def on_support(self, sup: Support) -> Support:
        if self.n != sup.n:
            raise DimensionMismatchError(f"symmetry n={self.n} vs support n={sup.n}")
        return Support._made(sup.n, map(self._image, sup.triples))

    def on_vectors(self, vectors):
        """Three per-slot vectors indexed by [n] (such as a cocharacter's
        lambda, mu, nu) moved along: entry i of vector p goes to entry
        sigma(i) of vector slots[p].  A weight summed over the slots of a
        triple then reads the same at the triple's image."""
        moved = [[0] * self.n for _ in range(3)]
        for p in range(3):
            for i in range(self.n):
                moved[self.slots[p]][self.sigma[i] - 1] = vectors[p][i]
        return tuple(map(tuple, moved))


def unit_tensor(n) -> Tensor3:
    """The diagonal tensor sum_i a_i (x) b_i (x) c_i."""
    return Tensor3(n, {(i, i, i): Fraction(1) for i in range(1, check_n(n) + 1)})


def diagonal_support(n) -> Support:
    return Support._made(n, [(i, i, i) for i in range(1, check_n(n) + 1)])


def staircase_triples(n, variant="W"):
    """The triples of W, W' or W'' in lexicographic order, generated one at
    a time: those whose index in the variant's slot (i, j or k) exceeds one
    of the other two."""
    check_n(n)
    if variant not in W_VARIANTS:
        raise InvalidValueError(f"variant must be one of {W_VARIANTS}")
    s = W_VARIANTS.index(variant)
    return (t for t in product(range(1, n + 1), repeat=3) if t[s - 1] < t[s] or t[s - 2] < t[s])


def build_W(n, variant="W") -> Support:
    """One of the three staircase supports W, W', W''.

    |W(n)| = n^3 - n(n+1)(2n+1)/6 = (4n^3 - 3n^2 - n)/6, and the same for
    the other two variants by symmetry.
    """
    return Support._made(n, staircase_triples(n, variant))


def build_tight_U(n) -> Support:
    """Off-diagonal triples on the arithmetic-progression plane 2i = j + k.

    Together with the diagonal this is exactly {(i,j,k) : 2i = j + k}; on
    its own it is a subset of W (either j or k must drop below i)."""
    cube = product(range(1, check_n(n) + 1), repeat=3)
    return Support._made(n, [(i, j, k) for i, j, k in cube if 2 * i == j + k and j != i])


def tensor_from_support(sup: Support, coeffs) -> Tensor3:
    """Tensor with the prescribed support; coeffs must cover it exactly."""
    coeffs = {tuple(t): rational(c) for t, c in coeffs.items()}
    if set(coeffs) != set(sup.triples):
        missing = set(sup.triples) - set(coeffs)
        extra = set(coeffs) - set(sup.triples)
        raise InvalidValueError(f"coefficients do not match support (missing {sorted(missing)}, extra {sorted(extra)})")
    return Tensor3(sup.n, coeffs)


NONZERO_SMALL = (1, 2, 3, -1, -2, -3)


def sample_coefficients(sup: Support, seed) -> dict[Triple, Fraction]:
    """Seeded nonzero small-integer coefficients, one per support triple.

    Uniform over {+-1, +-2, +-3}: small enough to keep exact elimination
    cheap, generic enough to dodge the degeneracy loci with overwhelming
    probability."""
    rng = random.Random(f"bordersub:coeffs:{seed}")
    return {t: Fraction(rng.choice(NONZERO_SMALL)) for t in sup.sorted_triples()}


def sample_support(n, seed, max_size) -> Support:
    """Seeded random support: uniform size in [1, max_size], triples drawn
    without replacement from the whole cube (diagonal included)."""
    check_n(n)
    if json_int(max_size) < 1:
        raise InvalidValueError("max_size must be positive")
    rng = random.Random(f"bordersub:support:{n}:{max_size}:{seed}")
    cube = [t for t in product(range(1, n + 1), repeat=3)]
    size = rng.randint(1, min(max_size, len(cube)))
    return Support._made(n, rng.sample(cube, size))
