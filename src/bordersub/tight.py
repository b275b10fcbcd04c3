"""Tight supports: injective integer gradings summing to zero on a support.

A support S is tight when injective tau_A, tau_B, tau_C : [n] -> Z exist
with tau_A(i) + tau_B(j) + tau_C(k) = 0 on every (i,j,k) in S.  The sum
conditions form a homogeneous rational linear system in the 3n values;
injectivity is the complement of the 3 C(n,2) "collision" hyperplanes
tau_X(p) = tau_X(q).  Because a finite union of proper subspaces cannot
cover a rational vector space, S is tight iff no collision hyperplane
contains the whole solution space -- an exact, scaling-free criterion (any
rational witness scales to an integer one).

The witness returned is canonical: a point of the solution space avoiding
all collisions (found deterministically along the moment-curve coefficients
1, t, t^2, ... of the kernel basis), translated so tau_C(n) = 0 and scaled
to the smallest integer multiple.

``exhaustive_tight_search`` is the brute-force oracle used by the tests:
fail-first backtracking over integer assignments in a fixed window, sharing
no machinery with the decision procedure above.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from ._kernels_py import tight_search
from .errors import DimensionMismatchError, InternalError, InvalidValueError
from .linalg import kernel_int
from .tensors import Support


@dataclass(frozen=True)
class TightWitness:
    n: int
    tau_a: tuple[int, ...]
    tau_b: tuple[int, ...]
    tau_c: tuple[int, ...]

    def __post_init__(self):
        for name in ("tau_a", "tau_b", "tau_c"):
            seq = tuple(int(v) for v in getattr(self, name))
            if len(seq) != self.n:
                raise InvalidValueError(f"{name} must have length n={self.n}")
            object.__setattr__(self, name, seq)

    def to_json(self):
        return {
            "n": self.n,
            "tauA": list(self.tau_a),
            "tauB": list(self.tau_b),
            "tauC": list(self.tau_c),
        }

    @classmethod
    def from_json(cls, obj):
        try:
            return cls(int(obj["n"]), tuple(obj["tauA"]), tuple(obj["tauB"]), tuple(obj["tauC"]))
        except (KeyError, TypeError) as exc:
            raise InvalidValueError(f"malformed witness JSON: {exc}") from exc


def check_tight_witness(S: Support, w: TightWitness) -> bool:
    """Injectivity of all three maps plus zero sums over S."""
    if S.n != w.n:
        raise DimensionMismatchError(f"support n={S.n} vs witness n={w.n}")
    for seq in (w.tau_a, w.tau_b, w.tau_c):
        if len(set(seq)) != w.n:
            return False
    return all(w.tau_a[i - 1] + w.tau_b[j - 1] + w.tau_c[k - 1] == 0 for (i, j, k) in S)


def _collision_functionals(n):
    """(group, p, q) index pairs p < q within each of the three maps."""
    for g in range(3):
        for p, q in combinations(range(n), 2):
            yield g * n + p, g * n + q


def find_tight_witness(S: Support):
    """Canonical witness when S is tight, else None.  Exact and complete:
    the collision analysis of the docstring decides tightness, and a
    witness is then constructed deterministically."""
    n = S.n
    rows = []
    for (i, j, k) in S.sorted_triples():
        row = [0] * (3 * n)
        row[i - 1] += 1
        row[n + j - 1] += 1
        row[2 * n + k - 1] += 1
        rows.append(row)
    basis = kernel_int(rows, 3 * n)
    for p, q in _collision_functionals(n):
        if all(vec[p] == vec[q] for vec in basis):
            return None
    # moment-curve coefficients (1, t, t^2, ...) miss every collision
    # hyperplane for some t: each nonzero functional is a nonzero
    # polynomial in t of degree < len(basis)
    t = 1
    while True:
        point = [0] * (3 * n)
        c = 1
        for vec in basis:
            for idx in range(3 * n):
                point[idx] += c * vec[idx]
            c *= t
        if all(point[p] != point[q] for p, q in _collision_functionals(n)):
            break
        t += 1
    shift = point[3 * n - 1]  # translate so tau_C(n) = 0
    vals = point[:n] + [v + shift for v in point[n : 2 * n]] + [v - shift for v in point[2 * n :]]
    # smallest positive multiple: divide by the (positive) content only,
    # never flip signs
    g = 0
    for v in vals:
        g = gcd(g, v)
    if g > 1:
        vals = [v // g for v in vals]
    witness = TightWitness(n, tuple(vals[:n]), tuple(vals[n : 2 * n]), tuple(vals[2 * n :]))
    if not check_tight_witness(S, witness):
        raise InternalError("constructed tightness witness failed verification")
    return witness


def oracle_window(n) -> int:
    """Half-width (3n)^2 of the integer window the brute-force oracle
    searches."""
    return (3 * n) ** 2


def exhaustive_tight_search(S: Support, bound=None) -> bool:
    """Brute-force tightness oracle: backtracking over injective integer
    assignments with entries in [-bound, bound], pinned to
    tau_A(1) = tau_B(1) = 0 (translations preserve tightness).  Test
    equipment; quadratic-window default per oracle_window."""
    n = S.n
    if bound is None:
        bound = oracle_window(n)
    assignment = tight_search(n, S.sorted_triples(), bound)
    if assignment is None:
        return False
    witness = TightWitness(n, tuple(assignment[:n]), tuple(assignment[n : 2 * n]), tuple(assignment[2 * n :]))
    if not check_tight_witness(S, witness):
        raise InternalError("oracle produced an invalid witness")
    return True
