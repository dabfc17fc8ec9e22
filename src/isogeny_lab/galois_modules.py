"""Finitely generated matrix groups over F_ell acting on F_ell^(2g):
invariant subspaces (enumerated exhaustively for small sizes),
semisimplicity, invariant complements by one linear solve, the hyperplane
intersection lattice with its dimension law, and the constructive
rational-subspace procedure.

Vectors are int tuples acted on from the left: (g v)_i = sum_j g[i][j] v_j.
Subspaces are canonical reduced row echelon bases, so equality is
representation equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    CapabilityError,
    ClosureOverflowError,
    NotPointedError,
    NotSemisimpleError,
    TheoremViolationError,
)
from .fields import is_prime

ENUM_CAP = 3**6
CLOSURE_CAP = 200_000

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix, ell: int) -> Matrix:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % ell for col in bt) for row in a
    )


def mat_vec(a: Matrix, v, ell: int) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) % ell for row in a)


def mat_sub_identity(a: Matrix, ell: int) -> Matrix:
    return tuple(
        tuple((x - (1 if i == j else 0)) % ell for j, x in enumerate(row))
        for i, row in enumerate(a)
    )


def rref(rows, ell: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] % ell:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], -1, ell)
        mat[r] = [(x * inv) % ell for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % ell:
                f = mat[i][c]
                mat[i] = [(x - f * y) % ell for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), pivots


def mat_rank(rows, ell: int) -> int:
    return len(rref(rows, ell)[0])


def mat_inverse(a: Matrix, ell: int) -> Matrix | None:
    n = len(a)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a)]
    reduced, pivots = rref(aug, ell)
    if pivots[:n] != list(range(n)) or len(reduced) < n:
        return None
    return tuple(tuple(row[n:]) for row in reduced[:n])


def nullspace(rows, ell: int, ncols: int) -> list[Vector]:
    """Basis of {v : M v = 0} for the matrix with the given rows."""
    reduced, pivots = rref(rows, ell) if rows else ((), [])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-reduced[i][fc]) % ell
        basis.append(tuple(v))
    return basis


def _pivot(row) -> int:
    """Column of the first nonzero entry."""
    return next(i for i, x in enumerate(row) if x)


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_ell^n in canonical reduced-row-echelon form."""

    ell: int
    ambient: int
    rows: Matrix

    @classmethod
    def from_vectors(cls, ell: int, ambient: int, vectors) -> "Subspace":
        vecs = [tuple(x % ell for x in v) for v in vectors]
        if any(len(v) != ambient for v in vecs):
            raise ValueError(f"vectors must have length {ambient}")
        reduced, _ = rref(vecs, ell) if vecs else ((), [])
        return cls(ell=ell, ambient=ambient, rows=reduced)

    @classmethod
    def zero(cls, ell: int, ambient: int) -> "Subspace":
        return cls(ell=ell, ambient=ambient, rows=())

    @classmethod
    def full(cls, ell: int, ambient: int) -> "Subspace":
        return cls(ell=ell, ambient=ambient, rows=identity_matrix(ambient))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains_vector(self, v) -> bool:
        v = [x % self.ell for x in v]
        for row in self.rows:
            pc = _pivot(row)
            if v[pc]:
                f = v[pc]
                v = [(x - f * y) % self.ell for x, y in zip(v, row)]
        return not any(v)

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(r) for r in other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        ann = self.annihilator().rows + other.annihilator().rows
        null = nullspace(ann, self.ell, self.ambient)
        return Subspace.from_vectors(self.ell, self.ambient, null)

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace.from_vectors(
            self.ell, self.ambient, list(self.rows) + list(other.rows)
        )

    def annihilator(self) -> "Subspace":
        """Functionals vanishing on this subspace (dot-product duality)."""
        null = nullspace(self.rows, self.ell, self.ambient)
        return Subspace.from_vectors(self.ell, self.ambient, null)

    def apply(self, g: Matrix) -> "Subspace":
        return Subspace.from_vectors(
            self.ell, self.ambient, [mat_vec(g, r, self.ell) for r in self.rows]
        )

    def vectors(self):
        """All vectors in the subspace (enumeration; small dims only)."""
        for coeffs in itertools.product(range(self.ell), repeat=self.dim):
            v = [0] * self.ambient
            for c, row in zip(coeffs, self.rows):
                for i, x in enumerate(row):
                    v[i] = (v[i] + c * x) % self.ell
            yield tuple(v)

    def to_json(self):
        return [list(r) for r in self.rows]


@dataclass(frozen=True)
class GaloisModule:
    """F_ell^dim with an explicit generating set of invertible matrices."""

    ell: int
    dim: int
    generators: tuple[Matrix, ...]

    def __post_init__(self):
        if not is_prime(self.ell):
            raise ValueError("ell must be prime")
        if self.dim < 2 or self.dim % 2 != 0:
            raise ValueError("module dimension must be even and >= 2")
        for g in self.generators:
            if len(g) != self.dim or any(len(r) != self.dim for r in g):
                raise ValueError("generator has wrong shape")
            if mat_inverse(g, self.ell) is None:
                raise ValueError("generator is not invertible mod ell")

    @classmethod
    def from_matrices(cls, ell: int, mats) -> "GaloisModule":
        gens = tuple(tuple(tuple(x % ell for x in row) for row in m) for m in mats)
        dim = len(gens[0]) if gens else 0
        return cls(ell=ell, dim=dim, generators=gens)

    def to_json(self):
        return {
            "ell": self.ell,
            "dim": self.dim,
            "generators": [[list(r) for r in g] for g in self.generators],
        }

    @classmethod
    def from_json(cls, data) -> "GaloisModule":
        return cls.from_matrices(data["ell"], data["generators"])


@dataclass(frozen=True)
class PointedConfiguration:
    """A module together with n invariant hyperplanes with trivial quotient
    action (the module-level shadow of rational kernel generators)."""

    module: GaloisModule
    hyperplanes: tuple[Subspace, ...]

    def __post_init__(self):
        # pointedness_check raises ValueError unless h is an invariant hyperplane
        for h in self.hyperplanes:
            if not pointedness_check(self.module, h):
                raise NotPointedError("hyperplane quotient action is not trivial")

    def to_json(self):
        data = self.module.to_json()
        data["hyperplanes"] = [h.to_json() for h in self.hyperplanes]
        return data

    @classmethod
    def from_json(cls, data) -> "PointedConfiguration":
        module = GaloisModule.from_json(data)
        hyps = tuple(
            Subspace.from_vectors(module.ell, module.dim, rows)
            for rows in data["hyperplanes"]
        )
        return cls(module=module, hyperplanes=hyps)


# --- basic operations -----------------------------------------------------------


def fixed_subspace(module: GaloisModule) -> Subspace:
    """The simultaneous 1-eigenspace of all generators."""
    rows = []
    for g in module.generators:
        rows.extend(mat_sub_identity(g, module.ell))
    if not rows:
        return Subspace.full(module.ell, module.dim)
    basis = nullspace(rows, module.ell, module.dim)
    return Subspace.from_vectors(module.ell, module.dim, basis)


def is_invariant(module: GaloisModule, sub: Subspace) -> bool:
    if sub.ambient != module.dim:
        raise ValueError("subspace ambient dimension mismatch")
    return all(sub.contains(sub.apply(g)) for g in module.generators)


def pointedness_check(module: GaloisModule, hyperplane: Subspace) -> bool:
    """True iff (g - I)(ambient) is contained in the hyperplane for all
    generators, i.e. the quotient action is trivial."""
    if hyperplane.ambient != module.dim or hyperplane.dim != module.dim - 1:
        raise ValueError("pointedness is defined for hyperplanes")
    if not is_invariant(module, hyperplane):
        raise ValueError("hyperplane is not invariant")
    for g in module.generators:
        gi = mat_sub_identity(g, module.ell)
        cols = tuple(zip(*gi))
        if not all(hyperplane.contains_vector(col) for col in cols):
            return False
    return True


def group_closure(module: GaloisModule, cap: int = CLOSURE_CAP) -> frozenset:
    """The full multiplicative closure of the generators, if its size stays
    within cap; raises ClosureOverflowError otherwise."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    ell = module.ell
    ident = identity_matrix(module.dim)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in module.generators:
                prod = mat_mul(m, g, ell)
                if prod not in seen:
                    seen.add(prod)
                    if len(seen) > cap:
                        raise ClosureOverflowError(f"group closure exceeded cap {cap}")
                    nxt.append(prod)
        frontier = nxt
    return frozenset(seen)


def _minimal_polynomial(g: Matrix, ell: int) -> list[int]:
    """Monic minimal polynomial of g over F_ell, ascending coefficients."""
    n = len(g)
    powers = [identity_matrix(n)]
    for _ in range(n):
        powers.append(mat_mul(powers[-1], g, ell))
    flat = [tuple(x for row in p for x in row) for p in powers]
    for degree in range(1, n + 1):
        # solve sum_{i<degree} c_i flat[i] = -flat[degree]
        rows = list(zip(*flat[:degree]))
        target = [(-x) % ell for x in flat[degree]]
        sol = _solve(rows, target, ell, degree)
        if sol is not None:
            return [s % ell for s in sol] + [1]
    raise AssertionError("no minimal polynomial of degree <= n (impossible)")


def _solve(rows, target, ell: int, ncols: int):
    aug = [list(r) + [t] for r, t in zip(rows, target)]
    reduced, pivots = rref(aug, ell)
    sol = [0] * ncols
    for row, pc in zip(reduced, pivots):
        if pc == ncols:
            return None
        sol[pc] = row[-1]
    # verify (system may be overdetermined)
    for r, t in zip(rows, target):
        if sum(a * b for a, b in zip(r, sol)) % ell != t % ell:
            return None
    return sol


def is_semisimple(module: GaloisModule) -> bool:
    """Decision procedure: coprime closure size (Maschke), squarefree
    minimal polynomial for cyclic modules, and for ell^dim <= ENUM_CAP one
    complement solve per invariant subspace."""
    try:
        if len(group_closure(module, CLOSURE_CAP)) % module.ell != 0:
            return True
    except ClosureOverflowError:
        pass
    if len(module.generators) == 1:
        from . import intpoly

        m = _minimal_polynomial(module.generators[0], module.ell)
        d = intpoly.pgcd(m, intpoly.pderiv(m, module.ell), module.ell)
        return intpoly.deg(d) == 0
    if module.ell**module.dim <= ENUM_CAP:
        full = Subspace.full(module.ell, module.dim)
        try:
            for v in enumerate_invariant_subspaces(module):
                _complement(module.ell, module.generators, v, full)
        except NotSemisimpleError:
            return False
        return True
    raise CapabilityError(
        f"semisimplicity undecided: closure cap {CLOSURE_CAP} and enumeration "
        f"cap {ENUM_CAP} (= ell^dim bound) both exceeded"
    )


def _all_subspaces(ell: int, n: int):
    """All subspaces of F_ell^n in echelon form (including zero and full)."""
    yield Subspace.zero(ell, n)
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            free_positions = []
            for i, p in enumerate(pivots):
                for c in range(p + 1, n):
                    if c not in pivots:
                        free_positions.append((i, c))
            for values in itertools.product(range(ell), repeat=len(free_positions)):
                rows = [[0] * n for _ in range(k)]
                for i, p in enumerate(pivots):
                    rows[i][p] = 1
                for (i, c), v in zip(free_positions, values):
                    rows[i][c] = v
                yield Subspace(ell=ell, ambient=n, rows=tuple(tuple(r) for r in rows))


def _complement(ell: int, gens, inner: Subspace, outer: Subspace) -> Subspace:
    """Invariant W with inner + W = outer (direct), for invariant subspaces
    inner inside outer; raises NotSemisimpleError when no such W exists.

    C, the rows of outer whose pivots inner lacks, completes inner's rows
    u_i to a basis of outer.  In that basis every generator is
    [[A, B], [0, D]], and W = span{c_j + sum_i X_ij u_i} is invariant iff
    A X - X D = -B for every generator: one linear system in the entries
    of X, whatever the group order is mod ell.
    """
    us = inner.rows
    p_in = [_pivot(u) for u in us]
    cs = [r for r in outer.rows if _pivot(r) not in p_in]
    p_c = [_pivot(c) for c in cs]
    s, t = len(us), len(cs)

    def coords(v):
        # (inner, C)-coordinates of v in outer.  Echelon rows vanish at the
        # other rows' pivots (inner's pivots are pivots of outer), so the
        # inner part is v at inner's pivots and the rest is read at C's.
        a = [v[p] for p in p_in]
        return a, [(v[p] - sum(x * u[p] for x, u in zip(a, us))) % ell for p in p_c]

    rows, target = [], []
    for g in gens:
        a_cols = [coords(mat_vec(g, u, ell))[0] for u in us]
        bd_cols = [coords(mat_vec(g, c, ell)) for c in cs]
        for i in range(s):
            for j in range(t):
                row = [0] * (s * t)  # X_mj is unknown m * t + j
                for m in range(s):
                    row[m * t + j] += a_cols[m][i]
                for k in range(t):
                    row[i * t + k] -= bd_cols[j][1][k]
                rows.append(row)
                target.append(-bd_cols[j][0][i])
    x = _solve(rows, target, ell, s * t)
    if x is None:
        raise NotSemisimpleError("no invariant complement exists for the given subspace")
    w = [
        [(cv + sum(x[i * t + j] * u[col] for i, u in enumerate(us))) % ell
         for col, cv in enumerate(c)]
        for j, c in enumerate(cs)
    ]
    return Subspace.from_vectors(ell, outer.ambient, w)


def relative_invariant_complement(
    module: GaloisModule, inner: Subspace, outer: Subspace
) -> Subspace:
    """Invariant W with inner + W = outer (direct), by the same solve inside
    outer.  Raises NotSemisimpleError when no such W exists."""
    if not outer.contains(inner):
        raise ValueError("inner subspace is not contained in outer")
    if not is_invariant(module, inner) or not is_invariant(module, outer):
        raise ValueError("both subspaces must be invariant")
    w = _complement(module.ell, module.generators, inner, outer)
    if not (
        is_invariant(module, w)
        and inner.intersect(w).dim == 0
        and inner.add(w).rows == outer.rows
    ):
        raise AssertionError("relative complement verification failed")
    return w


def subspace_lattice(hyperplanes) -> dict[frozenset, Subspace]:
    """H_J = intersection of H_j over j in J for every nonempty J."""
    n = len(hyperplanes)
    out: dict[frozenset, Subspace] = {}
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            key = frozenset(combo)
            if size == 1:
                out[key] = hyperplanes[combo[0]]
            else:
                prev = out[frozenset(combo[:-1])]
                out[key] = prev.intersect(hyperplanes[combo[-1]])
    return out


def graph_order(hyperplanes) -> int:
    """Largest m such that some m of the hyperplanes have exact intersection
    dimensions, i.e. the rank of their defining functionals."""
    if not hyperplanes:
        return 0
    ell = hyperplanes[0].ell
    funcs = []
    for h in hyperplanes:
        ann = h.annihilator()
        funcs.extend(ann.rows)
    return mat_rank(funcs, ell)


def theorem2_construct(cfg: PointedConfiguration, order=None, fixed=None) -> list[Vector]:
    """The constructive procedure: W_i with H_I + W_i = H_{I minus i}
    (direct), Q_i the canonical generator of W_i.  Asserts the guaranteed
    postconditions: every Q_i fixed, the Q_i independent, span inside the
    fixed subspace.  `order` and `fixed` are the configuration's
    `graph_order` and `fixed_subspace` when the caller has them.

    This is the one semisimplicity decision of its callers:
    NotSemisimpleError means only that the module is not semisimple, and
    every failure after that is a TheoremViolationError."""
    module = cfg.module
    hyps = list(cfg.hyperplanes)
    n = len(hyps)
    if (graph_order(hyps) if order is None else order) != n:
        raise ValueError(f"configuration order is not {n}")
    if not is_semisimple(module):
        raise NotSemisimpleError("module is not semisimple")
    full = Subspace.full(module.ell, module.dim)
    h_all = full
    for h in hyps:
        h_all = h_all.intersect(h)
    qs: list[Vector] = []
    for i in range(n):
        h_rest = full
        for j, h in enumerate(hyps):
            if j != i:
                h_rest = h_rest.intersect(h)
        try:
            w = relative_invariant_complement(module, h_all, h_rest)
        except NotSemisimpleError as exc:
            # the module was just found semisimple, so the complement exists
            raise TheoremViolationError(f"complement W_{i} is missing: {exc}") from exc
        if w.dim != 1:
            raise TheoremViolationError(
                f"complement W_{i} has dimension {w.dim}, expected 1"
            )
        qs.append(w.rows[0])
    fixed = fixed_subspace(module) if fixed is None else fixed
    for i, q in enumerate(qs):
        for g in module.generators:
            if mat_vec(g, q, module.ell) != q:
                raise TheoremViolationError(f"constructed Q_{i} is not fixed")
        if not fixed.contains_vector(q):
            raise TheoremViolationError(f"constructed Q_{i} escapes the fixed subspace")
    if mat_rank(qs, module.ell) != n:
        raise TheoremViolationError("constructed vectors are not independent")
    return qs


def product_module(m1: GaloisModule, m2: GaloisModule) -> GaloisModule:
    """Block-diagonal product; generator lists are aligned by index (the
    i-th generators of both factors are images of the same group element)."""
    if m1.ell != m2.ell:
        raise ValueError("factors have different torsion levels")
    if len(m1.generators) != len(m2.generators):
        raise ValueError("generator lists are not aligned")
    ell = m1.ell
    gens = []
    for g1, g2 in zip(m1.generators, m2.generators):
        n1, n2 = m1.dim, m2.dim
        rows = []
        for i in range(n1):
            rows.append(tuple(g1[i]) + (0,) * n2)
        for i in range(n2):
            rows.append((0,) * n1 + tuple(g2[i]))
        gens.append(tuple(rows))
    return GaloisModule(ell=ell, dim=m1.dim + m2.dim, generators=tuple(gens))


def enumerate_invariant_subspaces(module: GaloisModule, cap: int = ENUM_CAP):
    """All invariant subspaces, by enumerating echelon forms and filtering.

    Exhaustive oracle; guarded by ell^dim <= cap.
    """
    ell, n = module.ell, module.dim
    if ell**n > cap:
        raise CapabilityError(f"subspace enumeration cap {cap} exceeded (ell^dim = {ell**n})")
    return [sub for sub in _all_subspaces(ell, n) if is_invariant(module, sub)]


# --- random configuration generators (for property suites) ----------------------


def _random_invertible(rng, ell: int, n: int) -> Matrix:
    while True:
        m = tuple(tuple(rng.randrange(ell) for _ in range(n)) for _ in range(n))
        if mat_inverse(m, ell) is not None:
            return m


def _conjugate_config(rng, module: GaloisModule, hyperplanes):
    """Apply a random change of basis to a configuration."""
    ell, n = module.ell, module.dim
    p = _random_invertible(rng, ell, n)
    p_inv = mat_inverse(p, ell)
    gens = tuple(mat_mul(mat_mul(p, g, ell), p_inv, ell) for g in module.generators)
    new_mod = GaloisModule(ell=ell, dim=n, generators=gens)
    new_hyps = tuple(
        Subspace.from_vectors(ell, n, [mat_vec(p, r, ell) for r in h.rows])
        for h in hyperplanes
    )
    return new_mod, new_hyps


def _coprime_order_block(rng, ell: int, size: int) -> Matrix:
    """A size x size invertible matrix of order coprime to ell: a diagonal
    of units for odd ell, blocks of the order-3 companion of x^2+x+1 for
    ell = 2.  Diagonals commute; at ell = 2 each call draws its own block
    partition, so two such matrices need not commute."""
    if ell > 2:
        return tuple(
            tuple(rng.randrange(1, ell) if i == j else 0 for j in range(size))
            for i in range(size)
        )
    rows = [[0] * size for _ in range(size)]
    i = 0
    while i < size:
        if size - i >= 2 and rng.random() < 0.8:
            power = rng.randrange(3)
            # companion C of x^2+x+1 over F_2 has order 3; use C^power
            block = [
                identity_matrix(2),
                ((0, 1), (1, 1)),
                ((1, 1), (1, 0)),
            ][power]
            for a in range(2):
                for b in range(2):
                    rows[i + a][i + b] = block[a][b]
            i += 2
        else:
            rows[i][i] = 1
            i += 1
    return tuple(tuple(r) for r in rows)


def random_semisimple_pointed_config(rng, ell: int, g: int, n: int) -> PointedConfiguration:
    """A random pointed configuration of order n in dimension 2g.

    Generators are block-diagonal: identity on the first n coordinates
    (pointedness w.r.t. the coordinate hyperplanes) and a block of order
    coprime to ell on the rest; everything is then conjugated by a random
    change of basis.  For odd ell the blocks are commuting diagonals, so
    the group has order coprime to ell and Maschke makes the module
    semisimple.  At ell = 2 each generator draws its own block partition:
    the generators need not commute, the group can have even order and the
    module need not be semisimple, so theorem2_trial checks is_semisimple
    first and reports a draw that fails it.
    """
    dim = 2 * g
    if not 1 <= n <= dim:
        raise ValueError("order n must satisfy 1 <= n <= 2g")
    rest = dim - n
    n_gens = rng.randrange(1, 4)
    gens = []
    for _ in range(n_gens):
        if rest:
            block = _coprime_order_block(rng, ell, rest)
        else:
            block = ()
        rows = []
        for i in range(n):
            rows.append(tuple(1 if j == i else 0 for j in range(dim)))
        for i in range(rest):
            rows.append((0,) * n + tuple(block[i]))
        gens.append(tuple(rows))
    module = GaloisModule(ell=ell, dim=dim, generators=tuple(gens))
    hyps = tuple(_coordinate_hyperplane(ell, dim, i) for i in range(n))
    module, hyps = _conjugate_config(rng, module, hyps)
    return PointedConfiguration(module=module, hyperplanes=hyps)


def random_cyclic_pointed_config(rng, ell: int, g: int, n: int) -> PointedConfiguration:
    """A random single-generator pointed configuration of order n; no
    semisimplicity guarantee (the bottom-left block is arbitrary)."""
    dim = 2 * g
    if not 1 <= n <= dim:
        raise ValueError("order n must satisfy 1 <= n <= 2g")
    rest = dim - n
    rows = []
    for i in range(n):
        rows.append(tuple(1 if j == i else 0 for j in range(dim)))
    if rest:
        d = _random_invertible(rng, ell, rest)
        for i in range(rest):
            left = tuple(rng.randrange(ell) for _ in range(n))
            rows.append(left + tuple(d[i]))
    gen = tuple(rows)
    module = GaloisModule(ell=ell, dim=dim, generators=(gen,))
    hyps = tuple(_coordinate_hyperplane(ell, dim, i) for i in range(n))
    module, hyps = _conjugate_config(rng, module, hyps)
    return PointedConfiguration(module=module, hyperplanes=hyps)


def _coordinate_hyperplane(ell: int, dim: int, i: int) -> Subspace:
    rows = [tuple(1 if j == k else 0 for j in range(dim)) for k in range(dim) if k != i]
    return Subspace.from_vectors(ell, dim, rows)


def necessity_witness_config() -> PointedConfiguration:
    """The order-2 pointed, non-semisimple configuration over F_3 in
    dimension 4 (two copies of the affine group's standard representation)
    whose fixed subspace is zero."""
    m = GaloisModule.from_matrices(3, [[[2, 0], [0, 1]], [[1, 1], [0, 1]]])
    mm = product_module(m, m)
    h1 = Subspace.from_vectors(3, 4, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    h2 = Subspace.from_vectors(3, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    return PointedConfiguration(module=mm, hyperplanes=(h1, h2))
