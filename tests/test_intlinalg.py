import random
from itertools import product
from math import gcd, lcm, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from ringbox import intlinalg
from ringbox.errors import DimensionError, PreconditionError
from ringbox.intlinalg import (
    MILLER_RABIN_BOUND,
    IntMatrix,
    LatticeBuilder,
    egcd,
    euler_phi,
    factorize,
    invariant_factors,
    is_prime,
    kernel_columns,
    preimage,
    smith_normal_form,
    solve_modular,
    stacked_lattice,
    subgroup_of_torus,
)

from matrix_algebra import (
    ReferenceHermite,
    apply,
    columns,
    identity,
    is_diagonal,
    kernel_mod,
    matmul,
)


def check_snf(a: IntMatrix):
    snf = smith_normal_form(a)
    assert matmul(matmul(snf.U, a), snf.V).entries == snf.D.entries
    assert matmul(snf.U, snf.u_inv).entries == identity(a.rows).entries
    assert is_diagonal(snf.D)
    d = [v for v in snf.diagonal() if v]
    assert all(v > 0 for v in d)
    for x, y in zip(d, d[1:]):
        assert y % x == 0
    return snf


def test_snf_diag_2_9():
    snf = check_snf(IntMatrix.from_rows([[2, 0], [0, 9]]))
    assert snf.diagonal() == (1, 18)


def test_snf_2x2_determinant_8():
    snf = check_snf(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert snf.diagonal() == (2, 4)


def test_snf_zero_matrix():
    snf = check_snf(IntMatrix.zeros(2, 3))
    assert snf.D.entries == (0,) * 6


def test_snf_empty():
    snf = smith_normal_form(IntMatrix.zeros(0, 0))
    assert snf.D.rows == 0 and snf.D.cols == 0


@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_snf_round_trip_random(m, n, data):
    entries = data.draw(
        st.lists(st.integers(-10**6, 10**6), min_size=m * n, max_size=m * n)
    )
    check_snf(IntMatrix(m, n, tuple(entries)))


def test_snf_round_trip_500_random_dims_to_8():
    rng = random.Random(0xD1CE)
    for _ in range(500):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        a = IntMatrix(
            m, n, tuple(rng.randint(-(10**6), 10**6) for _ in range(m * n))
        )
        check_snf(a)


def test_modular_examples():
    a = [(4,)]
    assert solve_modular(a, [8], [12]) is not None
    x = solve_modular(a, [8], [12])
    assert (4 * x[0]) % 12 == 8

    assert solve_modular(a, [2], [12]) is None

    x = solve_modular([(2,)], [4], [6])
    assert x is not None and (2 * x[0]) % 6 == 4


def brute_modular(a: IntMatrix, b, moduli):
    box = [range(lcm(*moduli, 1) if moduli else 1) for _ in range(a.cols)]
    for x in product(*box):
        if all(
            sum(a.at(i, j) * x[j] for j in range(a.cols)) % moduli[i]
            == b[i] % moduli[i]
            for i in range(a.rows)
        ):
            return x
    return None


@st.composite
def modular_systems(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(0, 2))
    top = 8 if m < 3 else 6  # keeps the brute-force box lcm(moduli)^n small
    moduli = draw(st.lists(st.integers(1, top), min_size=m, max_size=m))
    entries = draw(st.lists(st.integers(-5, 9), min_size=m * n, max_size=m * n))
    b = draw(st.lists(st.integers(0, 8), min_size=m, max_size=m))
    return IntMatrix(m, n, tuple(entries)), b, moduli


@given(modular_systems())
@example((IntMatrix(2, 0, ()), [3, 0], [3, 4]))
@example((IntMatrix(2, 0, ()), [3, 2], [3, 4]))
@settings(max_examples=80, deadline=None)
def test_modular_vs_exhaustive(system):
    a, b, moduli = system
    m, n = a.rows, a.cols
    got = solve_modular(columns(a), b, moduli)
    want = brute_modular(a, b, moduli)
    if n == 0:  # no unknowns: solvable iff b == 0 modulo every row's modulus
        assert (want is None) == any(bi % s for bi, s in zip(b, moduli))
    if want is None:
        assert got is None
    else:
        assert got is not None and len(got) == n
        for i in range(m):
            lhs = sum(a.at(i, j) * got[j] for j in range(n)) % moduli[i]
            assert lhs == b[i] % moduli[i]
        for j in range(n):
            eff = lcm(1, *(s // gcd(s, a.at(i, j)) for i, s in enumerate(moduli)))
            assert 0 <= got[j] < eff


def test_preimage_reads_the_stacked_form():
    # images 4 and 6 in Z_12: the image lattice plus 12Z is 2Z
    stacked = stacked_lattice([(4,), (6,)], LatticeBuilder([12]))
    z = preimage(stacked, 1, (10,))
    assert z is not None and (4 * z[0] + 6 * z[1] - 10) % 12 == 0
    assert preimage(stacked, 1, (3,)) is None
    assert preimage(stacked, 1, (0,)) == (0, 0)


def pivot_snapshot(lat):
    return tuple(map(tuple, lat._pivots))


def stacked_by_re_adding(images, target):
    """The stacked form built without padding the target: a builder with
    the target's modulus D on every row takes the target's canonical
    columns, then the image columns."""
    k = len(images)
    lat = LatticeBuilder((target.modulus,) * (target.dim + k))
    for col in target.basis_columns():
        lat.add(col + (0,) * k)
    for j, v in enumerate(images):
        lat.add(tuple(v) + tuple(int(i == j) for i in range(k)))
    return lat


@st.composite
def stacked_cases(draw, seeded_only=False):
    """(images, target, prefix length) with the target seeded with its
    moduli or built by ``add`` over their lcm, plus vectors to query."""
    p = draw(st.integers(1, 3))
    k = draw(st.integers(0, 4))
    vector = st.lists(st.integers(-20, 20), min_size=p, max_size=p)
    images = draw(st.lists(vector, min_size=k, max_size=k))
    moduli = draw(st.lists(st.integers(1, 12), min_size=p, max_size=p))
    seeded = seeded_only or draw(st.booleans())
    if seeded:
        target = LatticeBuilder(moduli)
    else:
        target = LatticeBuilder((lcm(*moduli),) * p)
        for j, s in enumerate(moduli):
            target.add([s if i == j else 0 for i in range(p)])
    if not seeded_only:
        for v in draw(st.lists(vector, max_size=3)):
            target.add(v)
    return images, target, draw(st.integers(0, k)), draw(st.lists(vector, max_size=4))


@given(stacked_cases(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_stacked_form_extends_a_stacked_prefix(case, canonical):
    images, target, done, _ = case
    base = stacked_lattice(images[:done], target)
    if canonical:
        base.basis_columns()
    before = pivot_snapshot(base)
    grown = stacked_lattice(images, base, done)
    assert pivot_snapshot(base) == before
    assert grown.basis_columns() == stacked_lattice(images, target).basis_columns()


@given(stacked_cases(seeded_only=True))
@settings(max_examples=150, deadline=None)
def test_seeded_stacked_form_keeps_the_re_added_pivots(case):
    # solve_modular, subgroup_of_torus and a root span stack over seeded
    # targets: their pre-canonical pivots, and so every preimage, must be
    # those of re-adding the target's canonical columns
    images, target, _, queries = case
    got, want = stacked_lattice(images, target), stacked_by_re_adding(images, target)
    assert pivot_snapshot(got) == pivot_snapshot(want)
    for vec in queries:
        assert preimage(got, target.dim, vec) == preimage(want, target.dim, vec)


@given(stacked_cases())
@settings(max_examples=100, deadline=None)
def test_kernel_columns_are_the_zero_head_tails(case):
    images, target, _, _ = case
    stacked, head = stacked_lattice(images, target), target.dim
    want = tuple(col[head:] for col in stacked.basis_columns() if not any(col[:head]))
    assert kernel_columns(stacked, head) == want


def test_lattice_builder_reduce_canonical():
    lat = LatticeBuilder([12, 12])
    lat.add([4, 0])
    assert lat.contains([8, 0])
    assert lat.contains([0, 12])
    assert not lat.contains([2, 0])
    r1 = lat.reduce([5, 3])
    r2 = lat.reduce([9, 15])
    assert r1 == r2  # differ by (4,0)+(0,12)


def test_lattice_determinant_counts_cosets():
    lat = LatticeBuilder([6, 4])
    lat.add([2, 0])
    # residues should enumerate exactly det-many distinct values
    seen = {lat.reduce([a, b]) for a in range(6) for b in range(4)}
    assert len(seen) == lat.determinant()


def test_moduli_may_be_an_iterator():
    lat = LatticeBuilder(m for m in (2, 3))
    assert lat.dim == 2 and lat.modulus == 6
    assert lat.basis_columns() == ((2, 0), (0, 3))
    assert lat.determinant() == 6
    with pytest.raises(DimensionError):
        lat.add((1, 2, 3))


@pytest.mark.parametrize("moduli", [(0,), (3, -2), (4, 0, 2)])
def test_lattice_moduli_must_be_positive(moduli):
    with pytest.raises(PreconditionError):
        LatticeBuilder(moduli)
    with pytest.raises(PreconditionError):
        LatticeBuilder(iter(moduli))
    with pytest.raises(PreconditionError):
        solve_modular([(1,) * len(moduli)], (0,) * len(moduli), moduli)


def rebuilt(moduli, vectors) -> LatticeBuilder:
    lat = LatticeBuilder(moduli)
    for v in vectors:
        lat.add(v)
    return lat


LATTICE_DIM = 3
LATTICE_VECTORS = st.lists(
    st.integers(-30, 30), min_size=LATTICE_DIM, max_size=LATTICE_DIM
)
LATTICE_MODULI = st.lists(
    st.integers(1, 12), min_size=LATTICE_DIM, max_size=LATTICE_DIM
)
LATTICE_QUERIES = ("basis_columns", "reduce", "contains", "determinant")


@given(
    LATTICE_MODULI,
    st.lists(
        st.tuples(st.sampled_from(("add",) + LATTICE_QUERIES), LATTICE_VECTORS),
        max_size=14,
    ),
)
@settings(max_examples=150, deadline=None)
def test_interleaved_queries_match_a_rebuilt_builder(moduli, steps):
    """Any interleaving of adds and queries (each canonicalizing or reading
    the pivots) answers as a builder that took the same vectors without
    queries in between."""
    lat = LatticeBuilder(moduli)
    added = []
    for name, vec in steps:
        if name == "add":
            lat.add(vec)
            added.append(vec)
            continue
        fresh = rebuilt(moduli, added)
        if name == "basis_columns":
            assert lat.basis_columns() == fresh.basis_columns()
        elif name == "contains":
            assert lat.contains(vec) == fresh.contains(vec)
        elif name == "reduce":
            assert lat.reduce(vec) == fresh.reduce(vec)
        else:
            assert lat.determinant() == fresh.determinant()
    assert lat.basis_columns() == rebuilt(moduli, added).basis_columns()


@given(
    LATTICE_MODULI,
    st.lists(LATTICE_VECTORS, max_size=4),
    st.lists(LATTICE_VECTORS, min_size=1, max_size=4),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_adding_to_a_copy_leaves_the_original(moduli, first, more, canonical):
    lat = rebuilt(moduli, first)
    if canonical:
        lat.basis_columns()
    twin = lat.padded(0)
    for v in more:
        twin.add(v)
    assert lat.basis_columns() == rebuilt(moduli, first).basis_columns()
    assert twin.basis_columns() == rebuilt(moduli, first + more).basis_columns()


@given(st.lists(st.integers(1, 12), min_size=1, max_size=4), LATTICE_VECTORS)
@settings(max_examples=100, deadline=None)
def test_direct_seeding_equals_added_seeding(moduli, vec):
    # seeding with the moduli, or adding them to a builder of their lcm
    k = len(moduli)
    seeded = LatticeBuilder(moduli)
    added = LatticeBuilder((lcm(*moduli),) * k)
    for j, s in enumerate(moduli):
        added.add([s if i == j else 0 for i in range(k)])
    assert seeded._pivots == added._pivots
    assert seeded.basis_columns() == added.basis_columns()
    vec = (vec * k)[:k]
    assert seeded.add(vec) == added.add(vec)
    assert seeded.basis_columns() == added.basis_columns()


@given(
    st.integers(0, 4).flatmap(
        lambda dim: st.tuples(
            st.lists(st.integers(1, 12), min_size=dim, max_size=dim),
            st.lists(st.lists(st.integers(-30, 30), min_size=dim, max_size=dim), max_size=4),
            st.lists(st.lists(st.integers(-60, 60), min_size=dim, max_size=dim), max_size=6),
            st.just(dim),
        )
    ),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_contains_agrees_with_a_zero_residue(case, canonical):
    """``contains`` walks the rows without building a residue; it must say
    what a zero residue says."""
    moduli, vectors, queries, dim = case
    lat = rebuilt(moduli, vectors)
    if canonical:
        lat.basis_columns()
    for vec in queries + vectors + [[0] * dim]:
        assert lat.contains(vec) == all(t == 0 for t in lat.reduce(vec))
    assert all(lat.contains(col) for col in lat.basis_columns())
    with pytest.raises(DimensionError):
        lat.contains([0] * (dim + 1))


def reference_of(lat: LatticeBuilder, cols) -> ReferenceHermite:
    ref = ReferenceHermite(lat.dim)
    for col in cols:
        ref.add(col)
    return ref


def assert_bounded(lat: LatticeBuilder):
    """Pivots divide D = lcm(moduli); every other entry lies in [0, D)."""
    D = lat.modulus
    for r, piv in enumerate(lat._pivots):
        assert not any(piv[:r]) and D % piv[r] == 0
        assert all(0 <= t < D for t in piv[r + 1 :])


BOUNDED_ENTRIES = st.one_of(st.integers(-40, 40), st.integers(-(10**12), 10**12))


@st.composite
def bounded_builder_runs(draw):
    """Positive moduli (dim <= 4) and steps: adds, padded twins and queries."""
    moduli = draw(st.lists(st.integers(1, 36), max_size=4))
    steps = []
    dim = len(moduli)
    for _ in range(draw(st.integers(0, 16))):
        name = draw(st.sampled_from(("add", "add", "padded") + LATTICE_QUERIES))
        if name == "padded":
            extra = draw(st.integers(0, 2 if dim < 4 else 0))
            dim += extra
            steps.append((name, extra))
        else:
            steps.append((name, draw(st.lists(BOUNDED_ENTRIES, min_size=dim, max_size=dim))))
    return moduli, steps


@given(bounded_builder_runs())
@settings(max_examples=200, deadline=None)
def test_bounded_builder_matches_an_unbounded_hermite_form(case):
    """Every add keeps the builder's entries below D, and every query
    answers as the plain Hermite form of the same columns (the moduli, the
    added vectors, and D e_j for each padded row) does.  A padded twin
    leaves the builder it came from as it was."""
    moduli, steps = case
    lat = LatticeBuilder(moduli)
    D = lat.modulus
    cols = [tuple(s * int(i == j) for i in range(len(moduli))) for j, s in enumerate(moduli)]
    left = []  # (builder, its columns) of every builder a twin replaced
    for name, arg in steps:
        if name == "add":
            lat.add(arg)
            cols.append(tuple(arg))
        elif name == "padded":
            left.append((lat, cols, lat.basis_columns()))
            dim, lat = lat.dim, lat.padded(arg)
            cols = [c + (0,) * arg for c in cols]
            cols += [tuple(D * int(i == j) for i in range(dim + arg)) for j in range(dim, dim + arg)]
            assert lat.modulus == D
        else:
            ref = reference_of(lat, cols)
            if name == "basis_columns":
                assert lat.basis_columns() == ref.basis_columns()
            elif name == "reduce":
                assert lat.reduce(arg) == ref.reduce(arg)
            elif name == "contains":
                assert lat.contains(arg) == ref.contains(arg)
                assert lat.contains(tuple(t * D for t in arg))
            else:
                assert lat.determinant() == ref.determinant()
        assert_bounded(lat)
    assert lat.basis_columns() == reference_of(lat, cols).basis_columns()
    for old, old_cols, before in left:
        assert old.basis_columns() == before == reference_of(old, old_cols).basis_columns()


def test_lattice_kernel_mod_simple():
    basis = kernel_mod([(4,)], [12])
    lat = LatticeBuilder([12])
    for col in basis:
        lat.add(col)
    assert lat.contains([3]) and not lat.contains([1])


def in_echelon_span(basis, z) -> bool:
    """z is an integer combination of echelon columns (pivots ascending)."""
    z = list(z)
    for col in basis:
        r = next(i for i, v in enumerate(col) if v)
        q, rem = divmod(z[r], col[r])
        if rem:
            return False
        z = [a - q * b for a, b in zip(z, col)]
    return not any(z)


def check_kernel_mod(w: IntMatrix, moduli, half: int):
    """The kernel modulo the moduli (stacked columns, zero-head tails)
    against brute force on the box [-half, half]^n, and its columns in
    canonical Hermite form."""
    basis = kernel_mod(columns(w), moduli)
    pivots = [next(i for i, v in enumerate(col) if v) for col in basis]
    assert pivots == sorted(set(pivots))
    for col, r in zip(basis, pivots):
        assert col[r] > 0
        assert all(0 <= other[r] < col[r] for other in basis if other is not col)

    def in_kernel(z):
        return all(v % s == 0 for v, s in zip(apply(w, z), moduli))

    assert all(in_kernel(col) for col in basis)
    for z in product(range(-half, half + 1), repeat=w.cols):
        assert in_echelon_span(basis, z) == in_kernel(z), z


KERNEL_MODULI = (1, 2, 3, 4, 6, 8, 12)
BOX_HALF = {0: 0, 1: 12, 2: 12, 3: 6, 4: 4}


@given(st.integers(1, 4), st.integers(0, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_lattice_kernel_mod_vs_brute(m, n, data):
    entries = data.draw(st.lists(st.integers(-6, 12), min_size=m * n, max_size=m * n))
    moduli = data.draw(st.lists(st.sampled_from(KERNEL_MODULI), min_size=m, max_size=m))
    check_kernel_mod(IntMatrix(m, n, tuple(entries)), moduli, BOX_HALF[n])


@pytest.mark.parametrize("n", range(5))
def test_lattice_kernel_mod_zero_rows(n):
    w = IntMatrix(0, n, ())
    assert kernel_mod(columns(w), ()) == tuple(identity(n).row(i) for i in range(n))
    check_kernel_mod(w, (), BOX_HALF[n])


@given(st.integers(1, 3), st.integers(1, 8), st.data())
@settings(max_examples=40, deadline=None)
def test_lattice_kernel_mod_tall_shared_modulus(l, extra, data):
    # the sampled solver's shape: one row per character y, y_j scaled by big/s_j
    s = data.draw(st.lists(st.sampled_from(KERNEL_MODULI), min_size=l, max_size=l))
    big = lcm(*s)
    rows = [
        [data.draw(st.integers(0, sj - 1)) * (big // sj) for sj in s]
        for _ in range(l + extra)
    ]
    check_kernel_mod(IntMatrix.from_rows(rows), [big] * len(rows), BOX_HALF[l])


def test_subgroup_of_torus_structure():
    gens, orders = subgroup_of_torus([(4,)], (12,))
    assert orders == (3,)
    gens, orders = subgroup_of_torus([(2, 0), (0, 3)], (4, 9))
    assert sorted(orders) == [2, 3] or orders == (6,)
    total = 1
    for o in orders:
        total *= o
    assert total == 6


def test_subgroup_of_torus_enumeration_matches():
    moduli = (8, 6)
    gens = [(2, 3), (4, 0)]
    new_gens, orders = subgroup_of_torus(gens, moduli)
    # enumerate brute subgroup
    brute = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((c + x) % m for c, x, m in zip(cur, g, moduli))
            if nxt not in brute:
                brute.add(nxt)
                frontier.append(nxt)
    spanned = set()
    for coeffs in product(*[range(o) for o in orders]):
        v = tuple(
            sum(c * g[r] for c, g in zip(coeffs, new_gens)) % moduli[r]
            for r in range(2)
        )
        spanned.add(v)
    assert spanned == brute
    total = 1
    for o in orders:
        total *= o
    assert total == len(brute)


@given(st.integers(1, 4), st.integers(0, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_invariant_factors_of_seeded_lattice(k, extra, data):
    moduli = data.draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))
    relations = [tuple(m if i == j else 0 for i in range(k)) for j, m in enumerate(moduli)]
    for _ in range(extra):
        relations.append(
            tuple(data.draw(st.lists(st.integers(-20, 20), min_size=k, max_size=k)))
        )
    lat = rebuilt(moduli, relations)
    orders, to_original, from_original = invariant_factors(relations, k)
    assert 1 not in orders
    assert all(o > 0 for o in orders)
    assert all(b % a == 0 for a, b in zip(orders, orders[1:]))
    assert prod(orders) == lat.determinant()
    assert len(to_original) == len(orders)
    for o, g in zip(orders, to_original):
        assert lat.contains(tuple(o * v for v in g))
    for j in range(k):
        rest = [1 if i == j else 0 for i in range(k)]
        for c, g in zip(from_original[j], to_original):
            rest = [r - c * v for r, v in zip(rest, g)]
        assert lat.contains(rest)


def smith_route(relations, k):
    """invariant_factors through the Smith form of the relation matrix,
    whatever the input: the route a diagonal divisor chain skips."""
    snf = smith_normal_form(IntMatrix.from_rows([[col[i] for col in relations] for i in range(k)]))
    d = snf.diagonal()
    kept = [i for i in range(k) if d[i] != 1]
    orders = tuple(d[i] for i in kept)
    return (
        orders,
        tuple(snf.u_inv.col(i) for i in kept),
        tuple(tuple(snf.U.at(i, j) % o for i, o in zip(kept, orders)) for j in range(k)),
    )


def diagonal(pivots):
    k = len(pivots)
    return [tuple(d if i == j else 0 for i in range(k)) for j, d in enumerate(pivots)]


@given(st.integers(1, 4), st.sampled_from(["chain", "pivots", "seeded"]), st.integers(0, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_invariant_factors_matches_the_smith_route(k, kind, extra, data):
    # a chain d_1 | d_2 | ... (unit pivots included), any diagonal (non-chains
    # such as (3, 2) included), or the canonical columns of a seeded lattice;
    # each also with extra relation columns past the k
    if kind == "chain":
        steps = data.draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
        pivots = [prod(steps[: j + 1]) for j in range(k)]
    else:
        pivots = data.draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))
    relations = diagonal(pivots)
    vectors = data.draw(
        st.lists(st.lists(st.integers(-20, 20), min_size=k, max_size=k), max_size=3)
    )
    if kind == "seeded":
        relations = list(rebuilt(pivots, vectors).basis_columns())
    relations += [tuple(v) for v in vectors[:extra]]
    assert invariant_factors(relations, k) == smith_route(relations, k)


@pytest.mark.parametrize(
    "pivots,smith_forms",
    [((2, 4, 12), 0), ((1, 1, 6), 0), ((5,), 0), ((3, 2), 1), ((4, 6), 1), ((2, 4, 6), 1)],
)
def test_a_divisor_chain_makes_no_smith_form(monkeypatch, pivots, smith_forms):
    calls = []

    def counting(a):
        calls.append(a)
        return smith_normal_form(a)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counting)
    relations = diagonal(pivots)
    assert invariant_factors(relations, len(pivots)) == smith_route(relations, len(pivots))
    assert len(calls) == smith_forms
    # an extra relation column always takes the Smith form
    invariant_factors(relations + [relations[-1]], len(pivots))
    assert len(calls) == smith_forms + 1


def test_egcd_and_phi():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0)]:
        g, x, y = egcd(a, b)
        assert g == gcd(a, b)
        assert x * a + y * b == g
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(199 - 1) == euler_phi(198)


def test_is_prime_matches_trial_division():
    limit = 200_000
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for d in range(2, int(limit**0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytearray(len(range(d * d, limit, d)))
    assert [n for n in range(limit) if is_prime(n)] == [
        n for n in range(limit) if sieve[n]
    ]
    assert not is_prime(-7)


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the prime bases up to 7, 23 and 37 respectively
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    for n in (2**31 - 1, 2**61 - 1, 2_251_799_813_687_339, 2**80 - 65):
        assert is_prime(n)
    assert not is_prime((2**31 - 1) * (10**9 + 7))


def test_is_prime_refuses_above_its_exact_bound():
    # the bound is the least strong pseudoprime to every base in use
    assert not is_prime(1287836182261 * 2575672364521 - 2)
    for n in (MILLER_RABIN_BOUND, 2**89 - 1):
        with pytest.raises(PreconditionError, match="not decided"):
            is_prime(n)
    assert not is_prime(2**100)  # a multiple of a base needs no test
