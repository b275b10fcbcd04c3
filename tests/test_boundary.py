"""Inputs are checked once, at the public boundary.  Every public function
taking n checks it first; the supports and cocharacters the package makes
skip the per-entry checks and must still equal and hash like checked ones;
the cone-stabilizer report builds its LieTriple basis only when asked."""

import pytest

import bordersub as bs
from bordersub.stabilizer import LieTriple
from bordersub.tensors import W_VARIANTS, staircase_triples

# every public function and constructor taking n, with fixed other arguments
TAKES_N = {
    "Support": lambda n: bs.Support(n, frozenset()),
    "Support.of": lambda n: bs.Support.of(n, []),
    "Tensor3": lambda n: bs.Tensor3(n, {}),
    "Symmetry": lambda n: bs.Symmetry(n, (1,)),
    "Symmetry.all": bs.Symmetry.all,
    "unit_tensor": bs.unit_tensor,
    "diagonal_support": bs.diagonal_support,
    "staircase_triples": staircase_triples,
    "build_W": bs.build_W,
    "build_tight_U": bs.build_tight_U,
    "sample_support": lambda n: bs.sample_support(n, 0, 3),
    "TorusWeight": lambda n: bs.TorusWeight(n, (), (), ()),
    "binary_cocharacter": bs.binary_cocharacter,
    "Monomial": lambda n: bs.Monomial(n, ((1, 1, 1),)),
    "generator_family": bs.generator_family,
    "duality_degree_cap": bs.duality_degree_cap,
    "enumerate_maximal_components": bs.enumerate_maximal_components,
    "LieTriple": lambda n: bs.LieTriple(n, ((0,),), ((0,),), ((0,),)),
    "LieTriple.zero": bs.LieTriple.zero,
    "LieTriple.from_flat": lambda n: bs.LieTriple.from_flat(n, [0] * 12),
    "orbit_dim_unit": bs.orbit_dim_unit,
    "cone_stabilizer_dim": bs.cone_stabilizer_dim,
    "cone_stabilizer_structure": bs.cone_stabilizer_structure,
    "orbit_cone_tangent_dim": lambda n: bs.orbit_cone_tangent_dim(n, 0),
    "qmax_dimension_bound": bs.qmax_dimension_bound,
    "SliceFamily": lambda n: bs.SliceFamily(n, (((0,),),)),
    "TightWitness": lambda n: bs.TightWitness(n, (0,), (0,), (0,)),
}


@pytest.mark.parametrize("name", sorted(TAKES_N))
def test_every_public_entry_rejects_a_bad_n(name):
    # True would read as 1 and 2.0 as 2; neither is a format
    for n in (0, True, 2.0):
        with pytest.raises(bs.InvalidValueError):
            TAKES_N[name](n)


# the public counts other than n, each with its least valid value and the
# message a too-small integer gets
TAKES_A_COUNT = {
    "sample_support": (lambda v: bs.sample_support(3, 0, v), 1, "max_size must be positive"),
    "invariant_monomials_within": (lambda v: bs.invariant_monomials_within(bs.build_W(2), v), 1, "max_degree must be >= 1"),
    "has_invariant_monomial_within": (lambda v: bs.has_invariant_monomial_within(bs.build_W(2), v), 1, "max_degree must be >= 1"),
    "exhaustive_tight_search": (lambda v: bs.exhaustive_tight_search(bs.build_tight_U(3), v), 0, "bound must be >= 0"),
}


@pytest.mark.parametrize("name", sorted(TAKES_A_COUNT))
def test_every_public_count_is_a_json_integer(name):
    call, least, message = TAKES_A_COUNT[name]
    with pytest.raises(bs.InvalidValueError, match=message):
        call(least - 1)  # 0 for a size or degree, -1 for a bound
    # True would read as 1 and 2.0 as 2
    for v in (True, 2.0):
        with pytest.raises(bs.InvalidValueError, match="not a JSON integer"):
            call(v)
    call(least)
    call(2)


def test_made_supports_equal_checked_ones():
    made = list(bs.enumerate_maximal_components(3).components)
    made += [bs.build_W(4, v) for v in W_VARIANTS]
    made += [bs.build_tight_U(4), bs.diagonal_support(3), bs.sample_support(3, 0, 10)]
    made.append(bs.positive_support(bs.binary_cocharacter(4)))
    made.append(bs.Symmetry(4, (2, 4, 1, 3), (1, 2, 0)).on_support(bs.build_W(4)))
    made.append((bs.unit_tensor(3) + bs.Tensor3(3, {(1, 2, 3): 5})).support())
    for S in made:
        checked = bs.Support.of(S.n, S.triples)
        assert S == checked and hash(S) == hash(checked)
        assert all(type(t) is tuple and all(type(v) is int for v in t) for t in S.triples)
    assert made[-2] == bs.Support.of(4, map(bs.Symmetry(4, (2, 4, 1, 3), (1, 2, 0)), bs.build_W(4).triples))


def test_made_certificates_equal_checked_ones():
    from itertools import product

    from bordersub.nullcone import _images

    comps = bs.enumerate_maximal_components(3).components
    made = [bs.binary_cocharacter(n) for n in range(1, 7)]
    made += [bs.nullcone_feasible(S).certificate for S in (*comps, bs.build_W(5), bs.build_tight_U(4))]
    universe = list(product(range(1, 4), repeat=3))
    table = [(g, {t: g._image(t) for t in universe}) for g in bs.Symmetry.all(3)]
    for S in comps[:3]:
        made += _images(table, S.triples, bs.nullcone_feasible(S).certificate).values()
    for tw in made:
        checked = bs.TorusWeight(tw.n, tw.lam, tw.mu, tw.nu)
        assert tw == checked and hash(tw) == hash(checked) and bs.TorusWeight.from_json(tw.to_json()) == tw
        assert all(type(seq) is tuple and all(type(v) is int for v in seq) for seq in (tw.lam, tw.mu, tw.nu))
    assert len(made) > 150


def test_structure_report_builds_its_basis_on_request(monkeypatch):
    def refuse(self):
        raise AssertionError("a LieTriple was built")

    with monkeypatch.context() as m:
        m.setattr(LieTriple, "__post_init__", refuse)
        rep = bs.cone_stabilizer_structure(5)
        assert rep.to_json()["basis_size"] == rep.dim_full == (3 * 25 + 5 - 2) // 2 + 2
    assert rep == bs.cone_stabilizer_structure(5) and hash(rep) == hash(bs.cone_stabilizer_structure(5))
    assert [tuple((c, a) for c, a in enumerate(lt.flat()) if a) for lt in rep.basis] == list(rep.kernel)
    assert rep.basis is rep.basis
