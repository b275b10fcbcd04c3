"""Built-in verification suite: every headline dimension count and example
re-derived from scratch and compared against its closed form.

This is the engine behind `bordersub reproduce`.  Each check returns
(name, passed, detail); the CLI prints one line per check and exits
nonzero if any fails.  The pytest acceptance module covers the same ground
independently with its own assertions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb

from .errors import InvalidValueError
from .monomials import (
    Monomial,
    duality_degree_cap,
    generator_family,
    has_invariant_monomial_within,
    is_torus_invariant,
)
from .nullcone import enumerate_maximal_components, is_maximal_nullcone_support, nullcone_feasible
from .orbit import gl_invariance_probe, unit_orbit_member
from .stabilizer import (
    cone_stabilizer_dim,
    cone_stabilizer_structure,
    orbit_cone_tangent_dim,
    orbit_dim_unit,
    qmax_dimension_bound,
    stabilizer_dim,
)
from .tensors import (
    Support,
    Symmetry,
    Tensor3,
    W_VARIANTS,
    build_W,
    sample_coefficients,
    sample_support,
    unit_tensor,
)
from .tight import check_tight_witness, exhaustive_tight_search, find_tight_witness, TightWitness
from .weights import TorusWeight, binary_cocharacter, check_degeneration_certificate, positive_support, weight_of

#: the two explicit format-3 cocharacters exercised by the fixed examples
EXAMPLE_1_WEIGHTS = ((5, 0, 2), (0, 1, -3), (-5, -1, 1))
EXAMPLE_2_WEIGHTS = ((-2, -1, 0), (3, -2, 0), (-1, 3, 0))

#: the three degree-3 invariants that pin down maximality of the second
#: example's size-12 component
EXAMPLE_2_MONOMIALS = (
    ((1, 2, 3), (2, 1, 1), (3, 3, 2)),
    ((2, 3, 1), (3, 2, 2), (1, 1, 3)),
    ((1, 3, 2), (3, 2, 1), (2, 1, 3)),
)

DUALITY_N2_MAX_SIZE = 6
DUALITY_N3_SAMPLES = 300
TIGHT_N3_SAMPLES = 200
GL_PROBE_CASES = 50


def _w_size(n):
    return (4 * n**3 - 3 * n**2 - n) // 6


def _generator_count(n):
    return n + 3 * comb(n, 2) + 2 * comb(n, 3)


def check_formulas(n):
    out = []
    for variant in W_VARIANTS:
        got = len(build_W(n, variant))
        out.append((f"w-size/{variant}/n={n}", got == _w_size(n), f"{got} vs {_w_size(n)}"))
    got = len(generator_family(n))
    out.append((f"generator-count/n={n}", got == _generator_count(n), f"{got} vs {_generator_count(n)}"))
    got = qmax_dimension_bound(n)
    want = (2 * n**3 + 3 * n**2 - 2 * n - 3) // 3
    out.append((f"bound/n={n}", got == want, f"{got} vs {want}"))
    return out


def check_stabilizers(n):
    got = stabilizer_dim(unit_tensor(n))
    out = [(f"stab-dim/n={n}", got == 2 * n, f"{got} vs {2 * n} (quotient {got - 2} vs {2 * n - 2})")]
    got = orbit_dim_unit(n)
    out.append((f"orbit-dim-unit/n={n}", got == 3 * n * n - 2 * n, f"{got} vs {3 * n * n - 2 * n}"))
    return out


def check_cone_stabilizer(n):
    want = (3 * n * n + n - 2) // 2
    got = cone_stabilizer_dim(n)
    out = [(f"cone-stab-dim/n={n}", got == want, f"{got} vs {want}")]
    rep = cone_stabilizer_structure(n)
    out.append(
        (
            f"cone-stab-structure/n={n}",
            rep.passes and rep.dim_quotient == want,
            f"triangular={rep.triangular_ok} traces={rep.trace_ok} dim={rep.dim_quotient}",
        )
    )
    return out


def check_tangent(n, seed=0):
    rep = orbit_cone_tangent_dim(n, seed)
    out = [(f"tangent-dim/n={n}", rep.ok, f"{rep.value} vs {rep.expected} in {len(rep.attempts)} attempt(s)")]
    identity = (3 * n * n - 2) - cone_stabilizer_dim(n) + _w_size(n)
    out.append(
        (
            f"tangent-identity/n={n}",
            rep.value == identity,
            f"tangent {rep.value} vs dim(G)-dim(G_cone)+dim(cone) = {identity}",
        )
    )
    return out


def check_certificates(n):
    tw = binary_cocharacter(n)
    W = build_W(n, "W")
    closed_form_ok = all(
        weight_of(tw, (i, j, k)) == 2 ** (n - j) + 2 ** (n - k) - 2 ** (n - i + 1)
        for i, j, k in product(range(1, n + 1), repeat=3)
    )
    T = unit_tensor(n) + Tensor3(n, sample_coefficients(W, ("suite", n)))
    verdict = check_degeneration_certificate(T, tw)
    return [
        (f"cocharacter-closed-form/n={n}", closed_form_ok, "weight identity on all triples"),
        (f"degeneration-certificate/n={n}", verdict.valid, verdict.reason or "valid"),
    ]


def _staircase_orbit(n):
    """W(n) under S_n x S_3: the three staircase variants, each relabelled."""
    W = build_W(n)
    return {tuple(g.on_support(W).sorted_triples()) for g in Symmetry.all(n)}


def check_example_1():
    tw = TorusWeight(3, *EXAMPLE_1_WEIGHTS)
    sup = positive_support(tw)
    maximal, _ = is_maximal_nullcone_support(sup)
    distinct = tuple(sup.sorted_triples()) not in _staircase_orbit(3)
    return [
        ("example1/size", len(sup) == 13, f"{len(sup)} vs 13"),
        ("example1/feasible-maximal", nullcone_feasible(sup).feasible and maximal, ""),
        ("example1/distinct-from-staircases", distinct, "not among the 18 permuted staircase supports"),
    ]


def check_example_2():
    tw = TorusWeight(3, *EXAMPLE_2_WEIGHTS)
    sup = positive_support(tw)
    maximal, _ = is_maximal_nullcone_support(sup)
    invariant = all(is_torus_invariant(Monomial(3, fs)) for fs in EXAMPLE_2_MONOMIALS)
    return [
        ("example2/size", len(sup) == 12, f"{len(sup)} vs 12"),
        ("example2/feasible-maximal", nullcone_feasible(sup).feasible and maximal, ""),
        ("example2/extra-monomials-invariant", invariant, "all three degree-3 monomials"),
    ]


def check_components_n3():
    enum = enumerate_maximal_components(3)
    comps = {tuple(s.sorted_triples()) for s in enum.components}
    sizes = {len(s) for s in enum.components}
    named = _staircase_orbit(3)
    ex1 = tuple(positive_support(TorusWeight(3, *EXAMPLE_1_WEIGHTS)).sorted_triples())
    ex2 = tuple(positive_support(TorusWeight(3, *EXAMPLE_2_WEIGHTS)).sorted_triples())
    return [
        ("components/contains-18-staircases", named <= comps, f"{len(named)} supports"),
        ("components/contains-examples", ex1 in comps and ex2 in comps, ""),
        ("components/not-equidimensional", {12, 13} <= sizes, f"sizes {sorted(sizes)}"),
    ]


def check_duality(n):
    cap = duality_degree_cap(n)
    mismatches = []
    if n == 2:
        cube = list(product((1, 2), repeat=3))
        supports = (
            Support.of(2, sub)
            for k in range(0, DUALITY_N2_MAX_SIZE + 1)
            for sub in combinations(cube, k)
        )
        label = f"duality/n=2/all-supports<={DUALITY_N2_MAX_SIZE}"
    else:
        supports = (sample_support(n, s, 10) for s in range(DUALITY_N3_SAMPLES))
        label = f"duality/n={n}/{DUALITY_N3_SAMPLES}-seeded"
    total = 0
    for S in supports:
        total += 1
        feasible = nullcone_feasible(S).feasible
        obstructed = has_invariant_monomial_within(S, cap) if len(S) else False
        if feasible != (not obstructed):
            mismatches.append(tuple(S.sorted_triples()))
    return [(label, not mismatches, f"{total} supports, {len(mismatches)} mismatches")]


def check_tightness(n):
    plane = Support.of(n, [t for t in product(range(1, n + 1), repeat=3) if 2 * t[0] == t[1] + t[2]])
    witness = TightWitness(
        n,
        tuple(3 - 2 * i for i in range(1, n + 1)),
        tuple(range(1, n + 1)),
        tuple(k - 3 for k in range(1, n + 1)),
    )
    out = [
        (f"tight/plane-witness/n={n}", check_tight_witness(plane, witness), "explicit affine grading"),
        (f"tight/plane-decided/n={n}", find_tight_witness(plane) is not None, ""),
    ]
    return out


def check_tight_oracle(n):
    mismatches = 0
    if n == 2:
        cube = list(product((1, 2), repeat=3))
        total = 0
        for mask in range(1 << len(cube)):
            S = Support.of(2, [t for b, t in enumerate(cube) if mask >> b & 1])
            if (find_tight_witness(S) is not None) != exhaustive_tight_search(S):
                mismatches += 1
            total += 1
        label = "tight-oracle/n=2/all-256"
    else:
        total = TIGHT_N3_SAMPLES
        for s in range(TIGHT_N3_SAMPLES):
            S = sample_support(3, ("tight", s), 10)
            if (find_tight_witness(S) is not None) != exhaustive_tight_search(S):
                mismatches += 1
        label = f"tight-oracle/n=3/{TIGHT_N3_SAMPLES}-seeded"
    return [(label, mismatches == 0, f"{total} supports, {mismatches} mismatches")]


def check_unit_orbit(n_max):
    out = []
    ok = all(unit_orbit_member(unit_tensor(n), seed=0).verdict == "member" for n in range(1, n_max + 1))
    out.append((f"unit-orbit/member/n<={n_max}", ok, ""))
    w_state = Tensor3(2, {(1, 1, 2): Fraction(1), (1, 2, 1): Fraction(1), (2, 1, 1): Fraction(1)})
    out.append(("unit-orbit/w-state", unit_orbit_member(w_state, seed=0).verdict == "non_member", ""))
    rank2 = unit_tensor(2) + Tensor3(2, {(2, 1, 2): Fraction(1)})
    out.append(("unit-orbit/rank2-perturbation", unit_orbit_member(rank2, seed=0).verdict == "member", ""))
    return out


def check_gl_probe():
    bad = gl_invariance_probe(3, GL_PROBE_CASES, seed=0)
    return [(f"unit-orbit/gl-probe/{GL_PROBE_CASES}-cases", not bad, f"disagreements: {bad}")]


def run_suite(n_max):
    """All checks for formats 1..n_max plus the fixed format-3 examples.
    Returns (checks, all_passed)."""
    if not 1 <= n_max <= 5:
        raise InvalidValueError("n_max must be between 1 and 5")
    checks = []
    for n in range(1, n_max + 1):
        checks += check_formulas(n)
        checks += check_stabilizers(n)
    for n in range(2, n_max + 1):
        checks += check_cone_stabilizer(n)
    for n in range(2, n_max + 1):
        checks += check_tangent(n)
    for n in range(1, n_max + 1):
        checks += check_certificates(n)
    if n_max >= 2:
        checks += check_duality(2)
        checks += check_tight_oracle(2)
        checks += check_tightness(2)
    if n_max >= 3:
        checks += check_example_1()
        checks += check_example_2()
        checks += check_components_n3()
        checks += check_duality(3)
        checks += check_tight_oracle(3)
        checks += check_tightness(3)
        checks += check_gl_probe()
    checks += check_unit_orbit(n_max)
    return checks, all(passed for _, passed, _ in checks)
