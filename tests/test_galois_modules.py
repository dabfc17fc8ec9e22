import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from isogeny_lab import galois_modules
from isogeny_lab.errors import ClosureOverflowError, NotSemisimpleError, TheoremViolationError
from isogeny_lab.galois_modules import (
    GaloisModule,
    PointedConfiguration,
    Subspace,
    enumerate_invariant_subspaces,
    fixed_subspace,
    graph_order,
    group_closure,
    is_invariant,
    is_semisimple,
    mat_rank,
    mat_vec,
    necessity_witness_config,
    pointedness_check,
    product_module,
    random_cyclic_pointed_config,
    random_semisimple_pointed_config,
    relative_invariant_complement,
    subspace_lattice,
    theorem2_construct,
)
from isogeny_lab.galois_modules import _all_subspaces
from isogeny_lab.verify import run_trials


def brute_fixed(module):
    out = set()
    for vec in itertools.product(range(module.ell), repeat=module.dim):
        if all(mat_vec(g, vec, module.ell) == vec for g in module.generators):
            out.add(vec)
    return out


M_DIAG = GaloisModule.from_matrices(3, [[[2, 0], [0, 1]]])
M_UNIP = GaloisModule.from_matrices(3, [[[1, 1], [0, 1]]])
M_AFFINE = GaloisModule.from_matrices(3, [[[2, 0], [0, 1]], [[1, 1], [0, 1]]])
E1_LINE = Subspace.from_vectors(3, 2, [(1, 0)])
E2_LINE = Subspace.from_vectors(3, 2, [(0, 1)])


def test_fixed_subspace_examples():
    ident = GaloisModule.from_matrices(3, [[[1, 0], [0, 1]]])
    assert fixed_subspace(ident).dim == 2
    assert fixed_subspace(M_UNIP).rows == ((1, 0),)
    # two-generator module: enumerate all 9 vectors as the oracle
    assert fixed_subspace(M_AFFINE).dim == 0
    assert brute_fixed(M_AFFINE) == {(0, 0)}


def test_is_invariant_examples():
    assert is_invariant(M_DIAG, Subspace.full(3, 2))
    assert is_invariant(M_DIAG, E1_LINE)
    assert not is_invariant(M_UNIP, E2_LINE)  # e2 -> e1 + e2


def test_group_closure_sizes():
    m2i = GaloisModule.from_matrices(3, [[[2, 0], [0, 2]]])
    assert len(group_closure(m2i)) == 2  # 2^2 = 4 = 1 mod 3
    assert len(group_closure(M_UNIP)) == 3
    assert len(group_closure(M_AFFINE)) == 6  # the affine group of F_3


def test_group_closure_overflow_is_loud():
    with pytest.raises(ClosureOverflowError):
        group_closure(M_AFFINE, cap=3)


def test_is_semisimple_examples():
    assert is_semisimple(M_DIAG)
    assert not is_semisimple(M_UNIP)  # minimal polynomial (x-1)^2
    assert not is_semisimple(M_AFFINE)  # e1-line has no invariant complement


def test_semisimple_exhaustive_oracle_agrees():
    # on every invariant subspace of the affine module, search complements
    subs = enumerate_invariant_subspaces(M_AFFINE)
    v = next(s for s in subs if s.dim == 1)
    complements = [
        w for w in enumerate_invariant_subspaces(M_AFFINE)
        if w.dim == 1 and v.intersect(w).dim == 0
    ]
    assert complements == []  # the only invariant line is e1 itself


def test_invariant_complement_diag():
    w = relative_invariant_complement(M_DIAG, E1_LINE, Subspace.full(M_DIAG.ell, M_DIAG.dim))
    assert w.rows == ((0, 1),)


def test_invariant_complement_trivial_module():
    ident = GaloisModule.from_matrices(3, [[[1, 0], [0, 1]]])
    v = Subspace.from_vectors(3, 2, [(1, 2)])
    w = relative_invariant_complement(ident, v, Subspace.full(ident.ell, ident.dim))
    assert v.intersect(w).dim == 0 and v.add(w).dim == 2


def test_invariant_complement_not_semisimple():
    with pytest.raises(NotSemisimpleError):
        relative_invariant_complement(M_UNIP, E1_LINE, Subspace.full(M_UNIP.ell, M_UNIP.dim))


def test_maschke_projector_identities():
    # a group of order 4, prime to 5, so Maschke guarantees a complement;
    # the solver returns one that is invariant and direct
    m = GaloisModule.from_matrices(5, [[[2, 0], [0, 1]], [[4, 0], [0, 1]]])
    v = Subspace.from_vectors(5, 2, [(1, 0)])
    w = relative_invariant_complement(m, v, Subspace.full(m.ell, m.dim))
    assert is_invariant(m, w)
    assert v.intersect(w).dim == 0
    assert v.add(w).dim == 2


def oracle_complement(module, sub, subs):
    """Exhaustive search: an invariant subspace among subs that is a direct
    complement of sub, or None."""
    want = module.dim - sub.dim
    for w in subs:
        if w.dim == want and sub.intersect(w).dim == 0:
            return w
    return None


def assert_direct_invariant_complement(module, inner, outer, w):
    assert is_invariant(module, w)
    assert inner.intersect(w).dim == 0
    assert inner.add(w).rows == outer.rows


def suite_modules(count):
    """The modules of the first `count` semisimple and cyclic suite draws at
    seeds 42-44 (as theorem2_trial and cyclic_law_trial draw them), kept
    when ell^dim <= 81."""
    modules = []

    def drawing(make):
        def trial(rng):
            ell = rng.choice([2, 3, 5])
            g = rng.choice([1, 2, 3])
            n = rng.randrange(1, min(4, 2 * g) + 1)
            if ell ** (2 * g) <= 81:
                modules.append(make(rng, ell, g, n).module)

        return trial

    for seed in (42, 43, 44):
        for make in (random_semisimple_pointed_config, random_cyclic_pointed_config):
            run_trials(drawing(make), count, seed)
    return modules


def test_complement_solver_agrees_with_exhaustive_search():
    modules = suite_modules(12) + [necessity_witness_config().module]
    checked = missing = 0
    for module in modules:
        full = Subspace.full(module.ell, module.dim)
        subs = enumerate_invariant_subspaces(module)
        for sub in subs:
            expected = oracle_complement(module, sub, subs)
            checked += 1
            if expected is None:
                missing += 1
                with pytest.raises(NotSemisimpleError):
                    relative_invariant_complement(module, sub, full)
            else:
                assert_direct_invariant_complement(
                    module, sub, full, relative_invariant_complement(module, sub, full)
                )
    # both outcomes are exercised
    assert missing > 0 and checked - missing > missing


# A Jordan block J_2(1) plus the identity on F_7^4: the closure has order 7 and
# ell^dim = 2401, so neither Maschke averaging nor an exhaustive search applies.
M_JORDAN_I2 = GaloisModule.from_matrices(
    7, [[[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]
)


def test_complement_beyond_closure_and_enumeration():
    full = Subspace.full(7, 4)
    e34 = Subspace.from_vectors(7, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    e1 = Subspace.from_vectors(7, 4, [(1, 0, 0, 0)])
    # complements of e34 are not unique, so check properties, not rows
    assert_direct_invariant_complement(
        M_JORDAN_I2, e34, full, relative_invariant_complement(M_JORDAN_I2, e34, full)
    )
    with pytest.raises(NotSemisimpleError):
        relative_invariant_complement(M_JORDAN_I2, e1, full)  # g e2 - e2 = e1
    e134 = e1.add(e34)
    assert_direct_invariant_complement(
        M_JORDAN_I2, e1, e134, relative_invariant_complement(M_JORDAN_I2, e1, e134)
    )


def test_relative_complement_edges():
    ident = GaloisModule.from_matrices(3, [[[1 if i == j else 0 for j in range(4)] for i in range(4)]])
    inner = Subspace.from_vectors(3, 4, [(1, 0, 0, 0), (0, 0, 1, 0)])
    outer = Subspace.from_vectors(3, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    w = relative_invariant_complement(ident, inner, outer)
    assert w.dim == 1
    assert inner.intersect(w).dim == 0
    assert inner.add(w).rows == outer.rows
    # inner = outer gives the zero complement
    assert relative_invariant_complement(ident, outer, outer).dim == 0
    # inner = {0} reduces to a plain complement inside outer
    z = Subspace.zero(3, 4)
    w2 = relative_invariant_complement(ident, z, outer)
    assert w2.rows == outer.rows


def test_subspace_lattice_coordinate_example():
    h1 = Subspace.from_vectors(3, 4, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    h2 = Subspace.from_vectors(3, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    lat = subspace_lattice([h1, h2])
    assert lat[frozenset({0})].rows == h1.rows
    both = lat[frozenset({0, 1})]
    assert both.dim == 2
    assert both.rows == ((1, 0, 0, 0), (0, 0, 1, 0))
    # monotone: J1 subset J2 implies containment the other way
    assert lat[frozenset({0})].contains(both)


def test_graph_order_examples():
    h1 = Subspace.from_vectors(3, 4, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    h2 = Subspace.from_vectors(3, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    assert graph_order([h1, h2]) == 2
    assert graph_order([h1, h1]) == 1
    # 2g+1 hyperplanes can have order at most 2g
    h3 = Subspace.from_vectors(3, 4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    h4 = Subspace.from_vectors(3, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)])
    h5 = Subspace.from_vectors(
        3, 4, [(1, 0, 0, 2), (0, 1, 0, 1), (0, 0, 1, 1)]
    )
    assert graph_order([h1, h2, h3, h4, h5]) <= 4


def test_graph_order_matches_subset_search():
    # the rank formulation agrees with the defining subset search
    rng = random.Random(11)
    for _ in range(40):
        ell = rng.choice([2, 3])
        dim = rng.choice([2, 4])
        n = rng.randrange(1, 4)
        hyps = []
        while len(hyps) < n:
            row = tuple(rng.randrange(ell) for _ in range(dim))
            if any(row):
                from isogeny_lab.galois_modules import nullspace

                hyps.append(Subspace.from_vectors(ell, dim, nullspace([row], ell, dim)))
        got = graph_order(hyps)
        best = 0
        for size in range(1, n + 1):
            for combo in itertools.combinations(range(n), size):
                sub_h = [hyps[i] for i in combo]
                lat = subspace_lattice(sub_h)
                if all(s.dim == dim - len(k) for k, s in lat.items()):
                    best = max(best, size)
        assert got == best


def test_pointedness_examples():
    assert pointedness_check(M_UNIP, E1_LINE)
    assert pointedness_check(M_DIAG, E1_LINE)  # (g-I) image is the e1 line
    m_other = GaloisModule.from_matrices(3, [[[1, 0], [0, 2]]])
    assert not pointedness_check(m_other, E1_LINE)
    with pytest.raises(ValueError):
        pointedness_check(M_UNIP, E2_LINE)  # not invariant -> domain error


def test_theorem2_trivial_module():
    ident4 = GaloisModule.from_matrices(
        3, [[[1 if i == j else 0 for j in range(4)] for i in range(4)]]
    )
    h1 = Subspace.from_vectors(3, 4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    h2 = Subspace.from_vectors(3, 4, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    cfg = PointedConfiguration(module=ident4, hyperplanes=(h1, h2))
    qs = theorem2_construct(cfg)
    assert len(qs) == 2 and mat_rank(qs, 3) == 2


def test_theorem2_diagonal_example():
    # diag(2,1,2,1) over F_3 with the two pointed coordinate hyperplanes
    # (rows 2 and 4 are where the action is trivial); the constructed
    # vectors land in the brute-force fixed space span{e2, e4}
    md = GaloisModule.from_matrices(
        3, [[[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]]]
    )
    k2 = Subspace.from_vectors(3, 4, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    k4 = Subspace.from_vectors(3, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    cfg = PointedConfiguration(module=md, hyperplanes=(k2, k4))
    qs = theorem2_construct(cfg)
    fixed = brute_fixed(md)
    assert fixed == {(0, a, 0, b) for a in range(3) for b in range(3)}
    for qv in qs:
        assert qv in fixed
    assert mat_rank(qs, 3) == 2


def test_theorem2_rejects_wrong_order():
    ident4 = GaloisModule.from_matrices(
        3, [[[1 if i == j else 0 for j in range(4)] for i in range(4)]]
    )
    h1 = Subspace.from_vectors(3, 4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    cfg = PointedConfiguration(module=ident4, hyperplanes=(h1, h1))
    with pytest.raises(ValueError):
        theorem2_construct(cfg)


def test_product_module_block_structure():
    mm = product_module(M_AFFINE, M_AFFINE)
    assert mm.dim == 4
    assert fixed_subspace(mm).dim == 0
    id2 = GaloisModule.from_matrices(3, [[[1, 0], [0, 1]]])
    assert fixed_subspace(product_module(id2, id2)).dim == 4
    with pytest.raises(ValueError):
        product_module(M_AFFINE, GaloisModule.from_matrices(5, [[[1, 0], [0, 1]]]))
    with pytest.raises(ValueError):
        product_module(M_AFFINE, id2)  # misaligned generator lists


def test_enumerate_invariant_subspaces():
    id2_f2 = GaloisModule.from_matrices(2, [[[1, 0], [0, 1]]])
    subs = enumerate_invariant_subspaces(id2_f2)
    assert len(subs) == 5  # {0}, three lines, full
    subs_u = enumerate_invariant_subspaces(M_UNIP)
    assert len(subs_u) == 3  # {0}, span{e1}, full
    # closed under intersection
    for a in subs_u:
        for b in subs_u:
            inter = a.intersect(b)
            assert any(inter.rows == c.rows for c in subs_u)


def test_necessity_witness():
    cfg = necessity_witness_config()
    assert graph_order(cfg.hyperplanes) == 2
    assert all(pointedness_check(cfg.module, h) for h in cfg.hyperplanes)
    assert not is_semisimple(cfg.module)
    assert fixed_subspace(cfg.module).dim == 0
    assert brute_fixed(cfg.module) == {(0, 0, 0, 0)}


def test_construct_missing_complement_after_semisimple_is_violation(monkeypatch):
    """Once theorem2_construct has found the module semisimple, a missing
    complement is a theorem violation, not a NotSemisimpleError."""
    monkeypatch.setattr(galois_modules, "is_semisimple", lambda module: True)
    with pytest.raises(TheoremViolationError, match="complement W_0 is missing"):
        theorem2_construct(necessity_witness_config())


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_random_semisimple_configs_satisfy_theorem(seed):
    rng = random.Random(seed)
    ell = rng.choice([2, 3, 5])
    g = rng.choice([1, 2, 3])
    n = rng.randrange(1, min(4, 2 * g) + 1)
    cfg = random_semisimple_pointed_config(rng, ell, g, n)
    assert is_semisimple(cfg.module)
    assert graph_order(cfg.hyperplanes) == n
    qs = theorem2_construct(cfg)
    assert mat_rank(qs, ell) == n
    fixed = fixed_subspace(cfg.module)
    for qv in qs:
        assert fixed.contains_vector(qv)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_random_cyclic_configs_have_large_fixed_space(seed):
    rng = random.Random(seed)
    ell = rng.choice([2, 3, 5])
    g = rng.choice([1, 2, 3])
    n = rng.randrange(1, min(4, 2 * g) + 1)
    cfg = random_cyclic_pointed_config(rng, ell, g, n)
    # rank argument: (g - I) maps into the intersection of the hyperplanes
    assert fixed_subspace(cfg.module).dim >= n


def test_lemma42_dimension_law_random():
    rng = random.Random(3)
    from isogeny_lab.galois_modules import nullspace

    for _ in range(60):
        ell = rng.choice([2, 3, 5])
        g = rng.choice([1, 2, 3])
        dim = 2 * g
        n = rng.randrange(1, dim + 1)
        while True:
            rows = [tuple(rng.randrange(ell) for _ in range(dim)) for _ in range(n)]
            if mat_rank(rows, ell) == n:
                break
        hyps = [Subspace.from_vectors(ell, dim, nullspace([r], ell, dim)) for r in rows]
        lat = subspace_lattice(hyps)
        for key, sub in lat.items():
            assert sub.dim == dim - len(key)


def test_module_serialization_round_trip():
    cfg = necessity_witness_config()
    data = cfg.to_json()
    back = PointedConfiguration.from_json(data)
    assert back.module == cfg.module
    assert back.hyperplanes == cfg.hyperplanes


def _gaussian_binomial(n, k, ell):
    num = den = 1
    for i in range(k):
        num *= ell ** (n - i) - 1
        den *= ell ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("ell, n", [(2, 4), (3, 3), (5, 2)])
def test_subspace_enumeration_matches_gaussian_binomials(ell, n):
    subs = list(_all_subspaces(ell, n))
    assert len({s.rows for s in subs}) == len(subs)
    for s in subs:
        assert Subspace.from_vectors(ell, n, s.rows).rows == s.rows  # canonical form
    for k in range(n + 1):
        assert sum(1 for s in subs if s.dim == k) == _gaussian_binomial(n, k, ell)
    if n % 2 == 0:
        trivial = GaloisModule.from_matrices(ell, [[[int(i == j) for j in range(n)]
                                                    for i in range(n)]])
        assert len(enumerate_invariant_subspaces(trivial)) == len(subs)
