"""Acceptance criteria, one test per criterion.

Each test prints a PASS line with its headline numbers; the desk-ring sweep
shared by the first four criteria runs once per backend and is cached at
module scope.
"""

import json
import random
import time
from math import log2

from ringbox import ringops as ops
from ringbox import verify
from ringbox.abelian import decompose_element
from ringbox.blackbox import (
    MatrixSpec,
    ModularSpec,
    PolyQuotSpec,
    ProductSpec,
    make_ring,
)
from ringbox.cli import RunConfig, bench_queries, main
from ringbox.errors import PreconditionError
from ringbox.idealcore import IdealSpec, find_basis_representation
from ringbox.intlinalg import IntMatrix, smith_normal_form, solve_modular
from ringbox.qsim import PrimitiveProvider, ProviderConfig

from matrix_algebra import columns, matmul

DESK_SUITE = [
    ("Z_6", ModularSpec(6)),
    ("Z_12", ModularSpec(12)),
    ("Z_36", ModularSpec(36)),
    ("Z_64", ModularSpec(64)),
    ("Z_101", ModularSpec(101)),
    ("Z_2xZ_9", ProductSpec((ModularSpec(2), ModularSpec(9)))),
    ("M_2(Z_2)", MatrixSpec(2, ModularSpec(2))),
    ("F_4", PolyQuotSpec(2, (1, 1, 1))),
    ("F_8", PolyQuotSpec(2, (1, 1, 0, 1))),
    ("Z_3[x]/(x^2)", PolyQuotSpec(3, (0, 0, 1))),
]

IDEALS_PER_RING = 100


def _provider(backend, seed, epsilon):
    return PrimitiveProvider(
        ProviderConfig(backend=backend, seed=seed, epsilon=epsilon)
    )


def _mul_vec(tensor, s, u, v):
    l = len(s)
    out = [0] * l
    for i in range(l):
        if not u[i]:
            continue
        for j in range(l):
            if not v[j]:
                continue
            for k in range(l):
                out[k] += u[i] * v[j] * tensor[i][j][k]
    return tuple(x % s[k] for k, x in enumerate(out))


def _run_sweep(backend, epsilon, seed=20260810):
    """The oracle-equivalence sweep shared by criteria 1-4."""
    rng = random.Random(seed)
    stats = {
        "mismatches": [],
        "checks": 0,
        "decisions": 0,
        "false_primes": 0,
        "prime_calls": 0,
        "rounds_violations": 0,
        "doubling_violations": 0,
        "order_product_violations": 0,
        "tensor_violations": 0,
        "lemma_failures": 0,
        "instances": 0,
        "elapsed": 0.0,
    }
    t0 = time.time()

    def check(name, ring_name, got, want):
        stats["checks"] += 1
        if got != want:
            stats["mismatches"].append((ring_name, name, got, want))

    for ring_name, spec in DESK_SUITE:
        ring = make_ring(spec, seed=7)
        provider = _provider(backend, seed, epsilon)
        elems = sorted(verify.ring_elements(ring), key=lambda c: c.bits)
        zero = verify.find_zero(ring, elems)
        one = verify.find_one(ring, elems)
        units = verify.unit_table(ring, elems)
        ring_rep = ops.ring_representation(ring, provider)
        check("ring order", ring_name, ring_rep.order(), len(elems))
        check(
            "multiplicative identity",
            ring_name,
            ops.multiplicative_identity(ring, provider, ring_rep),
            one,
        )
        check(
            "additive identity",
            ring_name,
            ops.additive_identity(ring, provider),
            zero,
        )
        noncommutative = isinstance(spec, MatrixSpec)
        prev = None  # (spec, closure)
        for idx in range(IDEALS_PER_RING):
            n_gens = rng.randint(1, 2)
            gens = tuple(rng.choice(elems) for _ in range(n_gens))
            if noncommutative:
                side = ("left", "right", "two")[idx % 3]
            else:
                side = "left"
            ideal = IdealSpec(side, gens)
            closure = verify.ideal_closure(ring, gens, side)
            stats["instances"] += 1

            rep = find_basis_representation(ring, ideal, provider)
            span = (
                verify.additive_span(ring, rep.basis.h)
                if rep.basis.h
                else frozenset({zero})
            )
            check("basis span", ring_name, span, closure)
            check("ideal order", ring_name, rep.order(), len(closure))

            # criterion 3: loop invariants
            trace = rep.trace
            if trace.rounds > log2(max(2, len(closure))):
                stats["rounds_violations"] += 1
            for before, after in zip(trace.sizes, trace.sizes[1:]):
                if after < 2 * before:
                    stats["doubling_violations"] += 1
            if rep.order() != len(closure):
                stats["order_product_violations"] += 1
            s = rep.orders
            l = len(s)
            basis_vecs = [tuple(1 if t == i else 0 for t in range(l)) for i in range(l)]
            import itertools as _it

            for u, v, w in _it.product(basis_vecs, repeat=3):
                left = _mul_vec(rep.tensor, s, _mul_vec(rep.tensor, s, u, v), w)
                right = _mul_vec(rep.tensor, s, u, _mul_vec(rep.tensor, s, v, w))
                if left != right:
                    stats["tensor_violations"] += 1
                uv = tuple((a + b) % s[i] for i, (a, b) in enumerate(zip(u, v)))
                d1 = _mul_vec(rep.tensor, s, uv, w)
                d2 = tuple(
                    (a + b) % s[i]
                    for i, (a, b) in enumerate(
                        zip(_mul_vec(rep.tensor, s, u, w), _mul_vec(rep.tensor, s, v, w))
                    )
                )
                if d1 != d2:
                    stats["tensor_violations"] += 1
                wu = _mul_vec(rep.tensor, s, w, uv)
                w2 = tuple(
                    (a + b) % s[i]
                    for i, (a, b) in enumerate(
                        zip(_mul_vec(rep.tensor, s, w, u), _mul_vec(rep.tensor, s, w, v))
                    )
                )
                if wu != w2:
                    stats["tensor_violations"] += 1

            # criterion 4: Lemma-style termination condition, brute checked
            chan = ring.verification
            closed = True
            for rg in ring.generators:
                for b in closure:
                    if side in ("left", "two") and chan.mul(rg, b) not in closure:
                        closed = False
                    if side in ("right", "two") and chan.mul(b, rg) not in closure:
                        closed = False
            if not closed or span != closure:
                stats["lemma_failures"] += 1

            # membership probes
            probes = [rng.choice(elems), rng.choice(list(closure)), zero]
            for x in probes:
                got = ops.ideal_contains(ring, ideal, x, provider)
                check("membership", ring_name, got, x in closure)

            # pairwise ops against the previous ideal
            if prev is not None:
                prev_ideal, prev_closure = prev
                got = ops.ideal_equal(ring, ideal, prev_ideal, provider)
                check("ideal equality", ring_name, got, closure == prev_closure)
                inter = ops.ideal_intersection(
                    ring, ideal, prev_ideal, provider, ring_rep
                )
                inter_span = (
                    verify.additive_span(ring, inter.basis.h)
                    if inter.basis.h
                    else frozenset({zero})
                )
                check(
                    "intersection", ring_name, inter_span, closure & prev_closure
                )
                codes, cbasis = ops.colon_ideal(
                    ring, ideal, prev_ideal, provider, ring_rep
                )
                want = verify.colon_set(ring, closure, prev_closure, elems)
                check(
                    "colon",
                    ring_name,
                    verify.additive_span(ring, codes),
                    want,
                )

            # annihilator of a small random set
            s_elems = tuple(rng.choice(elems) for _ in range(rng.randint(1, 2)))
            ann_side = "right" if (noncommutative and idx % 2) else "left"
            codes, abasis = ops.annihilator(ring, s_elems, ann_side, provider, ring_rep)
            check(
                "annihilator",
                ring_name,
                verify.additive_span(ring, codes),
                verify.annihilator_set(ring, s_elems, ann_side, elems),
            )

            # units / inverse
            u = rng.choice(elems)
            got_unit = ops.is_unit(ring, u, provider, ring_rep)
            check("unit verdict", ring_name, got_unit, u in units)
            if got_unit and u in units:
                inv = ops.inverse(ring, u, provider, ring_rep)
                check("inverse", ring_name, inv, units[u])

            # linear equation
            a, b = rng.choice(elems), rng.choice(elems)
            sols = verify.solve_linear_set(ring, a, b, elems)
            got_x = ops.solve_linear(ring, a, b, provider, ring_rep)
            if sols:
                check("solve soundness", ring_name, got_x in sols, True)
            else:
                check("solve completeness", ring_name, got_x, None)

            # primality (two-sided reading)
            two_closure = verify.ideal_closure(ring, gens, "two")
            stats["prime_calls"] += 1
            try:
                verdict = ops.is_prime_ideal(
                    ring, IdealSpec("two", gens), provider, ring_rep
                )
                want_prime = verify.is_prime_by_definition(ring, two_closure, elems)
                check("prime verdict", ring_name, verdict.prime, want_prime)
                if verdict.prime and not want_prime:
                    stats["false_primes"] += 1
            except PreconditionError:
                check(
                    "prime precondition",
                    ring_name,
                    len(two_closure) == len(elems),
                    True,
                )

            prev = (ideal, closure)

        # homomorphism checks, once per ring
        ident = ops.HomomorphismOracle(ring, ring, lambda c: c, name="id")
        codes, kbasis = ops.hom_kernel(ident, provider, ring_rep)
        check("identity kernel", ring_name, kbasis.order(), 1)
        check("identity injective", ring_name, ops.is_injective(ident, provider, ring_rep), True)
        check("identity surjective", ring_name, ops.is_surjective(ident, provider), True)
        if isinstance(spec, ModularSpec) and spec.n > 2:
            d = next(d for d in range(2, spec.n + 1) if spec.n % d == 0)
            target = make_ring(ModularSpec(d), seed=11)

            def mod_map(code, _src=ring, _dst=target, _d=d):
                return _dst._encode(_src._decode(code) % _d)

            rho = ops.HomomorphismOracle(ring, target, mod_map, name="mod")
            codes, kbasis = ops.hom_kernel(rho, provider, ring_rep)
            want_kernel = frozenset(c for c in elems if ring._decode(c) % d == 0)
            check(
                "mod kernel", ring_name, verify.additive_span(ring, codes), want_kernel
            )
            check(
                "mod injective",
                ring_name,
                ops.is_injective(rho, provider, ring_rep),
                d == spec.n,
            )
            check("mod surjective", ring_name, ops.is_surjective(rho, provider), True)

        stats["decisions"] += provider.stats["decisions"]

    stats["elapsed"] = time.time() - t0
    return stats


_SWEEPS = {}


def sweep(backend):
    if backend not in _SWEEPS:
        eps = 1e-6 if backend == "exact" else 1e-3
        _SWEEPS[backend] = _run_sweep(backend, eps)
    return _SWEEPS[backend]


def test_criterion_1_oracle_equivalence_exact():
    st = sweep("exact")
    assert st["mismatches"] == [], st["mismatches"][:10]
    assert st["elapsed"] < 300.0
    print(
        f"\nPASS criterion 1: {st['checks']} checks over "
        f"{st['instances']} ideal specs, 0 mismatches, {st['elapsed']:.1f}s"
    )


def test_criterion_2_sampled_fidelity():
    st = sweep("sampled")
    assert st["decisions"] >= 10_000
    error_rate = len(st["mismatches"]) / st["decisions"]
    assert error_rate <= 0.005, st["mismatches"][:10]
    assert st["false_primes"] == 0
    print(
        f"\nPASS criterion 2: {st['decisions']} decisions, "
        f"{len(st['mismatches'])} op mismatches (rate {error_rate:.2e}), "
        f"0 false primes"
    )


def test_criterion_3_core_invariants():
    for backend in ("exact", "sampled"):
        st = sweep(backend)
        assert st["rounds_violations"] == 0
        assert st["doubling_violations"] == 0
        assert st["order_product_violations"] == 0
        assert st["tensor_violations"] == 0
    print(
        "\nPASS criterion 3: rounds <= log2|I|, doubling, order product, "
        "tensor laws hold on every run (both backends)"
    )


def test_criterion_4_lemma_check():
    for backend in ("exact", "sampled"):
        st = sweep(backend)
        assert st["lemma_failures"] == 0, f"{backend}: {st['lemma_failures']}"
    print(
        f"\nPASS criterion 4: termination closure verified on "
        f"{sweep('exact')['instances']} + {sweep('sampled')['instances']} instances"
    )


def test_criterion_5_decomposition():
    rng = random.Random(55)
    total = 0
    for ring_name, spec in DESK_SUITE:
        ring = make_ring(spec, seed=7)
        provider = _provider("exact", 5, 1e-6)
        elems = sorted(verify.ring_elements(ring), key=lambda c: c.bits)
        rep = ops.ring_representation(ring, provider)
        basis = rep.basis
        for a, b in zip(basis.s, basis.s[1:]):
            assert b % a == 0
        chan = ring.verification
        zero = verify.find_zero(ring, elems)
        for _ in range(1000):
            x = rng.choice(elems)
            n = decompose_element(ring, x, basis, provider)
            assert all(0 <= c < s for c, s in zip(n, basis.s))
            acc = zero
            for c, h in zip(n, basis.h):
                for _ in range(c):
                    acc = chan.add(acc, h)
            assert acc == x
            total += 1
    # Z_2 x Z_9 must come out as the single factor 18
    ring = make_ring(ProductSpec((ModularSpec(2), ModularSpec(9))), seed=7)
    provider = _provider("exact", 5, 1e-6)
    rep = ops.ring_representation(ring, provider)
    assert rep.orders == (18,)
    print(f"\nPASS criterion 5: {total} element round-trips, chains divisible, "
          "Z_2xZ_9 -> (18)")


def test_criterion_6_linear_algebra():
    rng = random.Random(66)
    for _ in range(500):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        a = IntMatrix(m, n, tuple(rng.randint(-(10**6), 10**6) for _ in range(m * n)))
        snf = smith_normal_form(a)
        assert matmul(matmul(snf.U, a), snf.V).entries == snf.D.entries
        d = [v for v in snf.diagonal() if v]
        for x, y in zip(d, d[1:]):
            assert y % x == 0
    # modular agreement with exhaustive search whenever the box is small
    from itertools import product as iproduct

    checked = 0
    for _ in range(200):
        m = rng.randint(1, 2)
        n = rng.randint(1, 2)
        moduli = [rng.randint(1, 12) for _ in range(m)]
        a = IntMatrix(m, n, tuple(rng.randint(-6, 6) for _ in range(m * n)))
        b = [rng.randint(0, 11) for _ in range(m)]
        box = 1
        for s in moduli:
            box *= s
        if box ** n > 10**5:
            continue
        got = solve_modular(columns(a), b, moduli)
        want = None
        from math import lcm as _lcm

        big = 1
        for s in moduli:
            big = _lcm(big, s)
        for x in iproduct(range(big), repeat=n):
            if all(
                sum(a.at(i, j) * x[j] for j in range(n)) % moduli[i] == b[i] % moduli[i]
                for i in range(m)
            ):
                want = x
                break
        if want is None:
            assert got is None
        else:
            assert got is not None
            for i in range(m):
                assert (
                    sum(a.at(i, j) * got[j] for j in range(n)) % moduli[i]
                    == b[i] % moduli[i]
                )
        checked += 1
    # solve_linear answers verify by oracle substitution (asserted inside the
    # solver; exercise it on a ring here)
    ring = make_ring(ModularSpec(36), 3)
    provider = _provider("exact", 6, 1e-6)
    rep = ops.ring_representation(ring, provider)
    elems = sorted(verify.ring_elements(ring), key=lambda c: c.bits)
    for _ in range(100):
        a_el, b_el = rng.choice(elems), rng.choice(elems)
        x = ops.solve_linear(ring, a_el, b_el, provider, rep)
        sols = verify.solve_linear_set(ring, a_el, b_el, elems)
        assert (x in sols) if sols else (x is None)
    print(f"\nPASS criterion 6: 500 SNF round trips, {checked} exhaustive modular "
          "agreements, solve_linear oracle-verified")


def _prime_sweep(backend, use_period_finding):
    errors = 0
    cases = 0
    for n in range(2, 201):
        spec = ModularSpec(n)
        ring = make_ring(spec, seed=3)
        provider = _provider(backend, seed=n, epsilon=1e-3)
        rep = ops.ring_representation(ring, provider)
        divisors = [d for d in range(2, n + 1) if n % d == 0]
        for d in divisors:
            gen = ring._encode(d % n)
            cases += 1
            verdict = ops.is_prime_ideal(
                ring,
                IdealSpec("two", (gen,)),
                provider,
                rep,
                use_period_finding=use_period_finding,
            )
            # Z_n/(d) has d elements, so the truth is primality of d
            want = all(d % p for p in range(2, d)) and d >= 2
            if verdict.prime != want:
                errors += 1
    return cases, errors


def test_criterion_7_prime_exhaustive():
    t0 = time.time()
    cases, errors = _prime_sweep("exact", use_period_finding=False)
    assert errors == 0, f"divisor-certificate path: {errors} errors in {cases}"
    s_cases, s_errors = _prime_sweep("sampled", use_period_finding=True)
    assert s_errors / s_cases <= 0.005, f"sampled: {s_errors}/{s_cases}"
    print(
        f"\nPASS criterion 7: {cases} exact cases 0 errors; "
        f"{s_cases} sampled cases {s_errors} errors "
        f"({time.time() - t0:.1f}s)"
    )


def test_criterion_8_query_scaling():
    t0 = time.time()
    cfg = RunConfig(
        command="bench-queries",
        family="modular",
        k_min=4,
        k_max=14,
        backend="sampled",
        seed=1,
    )
    rows, exponent = bench_queries(cfg)
    assert exponent <= 3.5
    for r in rows:
        assert r["brute_total"] >= 2 ** r["k"]
        assert r["total"] >= 1
    # exact backend satisfies the same bound
    cfg_exact = RunConfig(
        command="bench-queries",
        family="modular",
        k_min=4,
        k_max=14,
        backend="exact",
        seed=1,
    )
    rows_e, exponent_e = bench_queries(cfg_exact)
    assert exponent_e <= 3.5
    totals = [r["total"] for r in rows_e]
    assert all(b >= a for a, b in zip(totals, totals[1:]))  # monotone
    elapsed = time.time() - t0
    assert elapsed < 180.0
    print(
        f"\nPASS criterion 8: sampled fit exponent {exponent:.2f} <= 3.5, "
        f"brute column >= 2^k, {elapsed:.1f}s"
    )


def test_criterion_9_determinism(tmp_path, capsys):
    z12 = tmp_path / "z12.ring"
    z12.write_text("ring.kind = modular\nring.n = 12\n")
    f4 = tmp_path / "f4.ring"
    f4.write_text("ring.kind = polyquot\nring.p = 2\nring.f = 1, 1, 1\n")
    z6 = tmp_path / "z6.ring"
    z6.write_text("ring.kind = modular\nring.n = 6\n")
    commands = [
        ["basis", "--ring", str(z12), "--ideal", "4,6", "--json"],
        ["order", "--ring", str(z12), "--ideal", "3", "--json"],
        ["ring-order", "--ring", str(f4), "--json"],
        ["equal", "--ring", str(z12), "--ideal", "2", "--ideal2", "10", "--json"],
        ["member", "--ring", str(z12), "--ideal", "4", "--element", "8", "--json"],
        ["witness", "--ring", str(z12), "--ideal", "4", "--element", "8", "--json"],
        ["intersect", "--ring", str(z12), "--ideal", "2", "--ideal2", "3", "--json"],
        ["colon", "--ring", str(z12), "--ideal", "4", "--ideal2", "2", "--json"],
        ["annihilate", "--ring", str(z12), "--elements", "4", "--json"],
        ["unit", "--ring", str(f4), "--element", "[0, 1]", "--json"],
        ["inverse", "--ring", str(f4), "--element", "[0, 1]", "--json"],
        ["one", "--ring", str(z12), "--json"],
        ["zero", "--ring", str(z12), "--json"],
        ["neg", "--ring", str(z12), "--element", "5", "--json"],
        ["solve", "--ring", str(z12), "--a", "4", "--b", "8", "--json"],
        ["prime", "--ring", str(z12), "--ideal", "3", "--json"],
        ["hom-kernel", "--ring", str(z12), "--ring2", str(z6), "--hom", "mod", "--json"],
        ["hom-injective", "--ring", str(z12), "--ring2", str(z6), "--hom", "mod", "--json"],
        ["hom-surjective", "--ring", str(z12), "--ring2", str(z6), "--hom", "mod", "--json"],
        ["bench-queries", "--family", "modular", "--k-min", "4", "--k-max", "6", "--json"],
    ]
    n_checked = 0
    for backend in ("exact", "sampled"):
        for argv in commands:
            full = argv + ["--backend", backend, "--seed", "31337"]
            code1 = main(full)
            out1 = capsys.readouterr().out
            code2 = main(full)
            out2 = capsys.readouterr().out
            assert code1 == code2 == 0, (argv, backend)
            assert out1.encode() == out2.encode(), (argv, backend)
            json.loads(out1)  # structured output is valid JSON
            n_checked += 1
    print(f"\nPASS criterion 9: {n_checked} command runs byte-identical on rerun")
