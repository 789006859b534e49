import json
import time
from pathlib import Path

import pytest

from ringbox import cli
from ringbox import ringops as ops
from ringbox.cli import RunConfig, bench_queries, fit_exponent, main, run

Z12 = "ring.kind = modular\nring.n = 12\n"
Z6 = "ring.kind = modular\nring.n = 6\n"
M2Z2 = "ring.kind = matrix\nring.k = 2\nring.base = modular 2\n"
F4 = "ring.kind = polyquot\nring.p = 2\nring.f = 1, 1, 1\n"
Z2XZ9 = "ring.kind = product\nring.factors = modular 2, modular 9\n"


@pytest.fixture
def ring_file(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def invoke(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_basis_z12(ring_file, capsys):
    path = ring_file("z12.ring", Z12)
    code, out, err = invoke(capsys, ["basis", "--ring", path, "--ideal", "4", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "ringbox.run/1"
    assert doc["result"]["orders"] == [3]
    assert doc["result"]["ideal_order"] == 3
    assert doc["result"]["tensor"] == [[[1]]]
    assert doc["result"]["generators"] == ["4"]


def test_prime_not_prime(ring_file, capsys):
    path = ring_file("z12.ring", Z12)
    code, out, _ = invoke(capsys, ["prime", "--ring", path, "--ideal", "4", "--json"])
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "not-prime"
    code, out, _ = invoke(capsys, ["prime", "--ring", path, "--ideal", "3", "--json"])
    assert json.loads(out)["result"]["verdict"] == "prime"


def test_solve_no_solution_exit_zero(ring_file, capsys):
    path = ring_file("z12.ring", Z12)
    code, out, _ = invoke(capsys, ["solve", "--ring", path, "--a", "4", "--b", "2"])
    assert code == 0
    assert "no solution" in out


def test_all_ring_kinds_parse_and_run(ring_file, capsys):
    for name, text, lit in [
        ("z12.ring", Z12, "5"),
        ("m2z2.ring", M2Z2, "1,0;0,1"),
        ("f4.ring", F4, "[0, 1]"),
        ("z2z9.ring", Z2XZ9, "(1, 1)"),
    ]:
        path = ring_file(name, text)
        code, out, err = invoke(
            capsys, ["unit", "--ring", path, "--element", lit, "--json"]
        )
        assert code == 0, err
        assert json.loads(out)["result"]["unit"] is True


def test_parse_errors_exit_2(ring_file, capsys):
    bad = ring_file("bad.ring", "ring.kind = gadget\n")
    code, _, err = invoke(capsys, ["order", "--ring", bad, "--ideal", "1"])
    assert code == 2
    path = ring_file("z12.ring", Z12)
    code, _, err = invoke(capsys, ["member", "--ring", path, "--ideal", "4"])
    assert code == 2  # missing --element
    code, _, err = invoke(
        capsys, ["member", "--ring", path, "--ideal", "4", "--element", "x;y"]
    )
    assert code == 2
    code, _, _ = invoke(capsys, ["order", "--ring", str(path) + ".nope", "--ideal", "1"])
    assert code == 2
    binary = ring_file("bin.ring", "")
    Path(binary).write_bytes(b"\xff\xfe")
    code, _, err = invoke(capsys, ["order", "--ring", binary, "--ideal", "0"])
    assert code == 2, err
    for eps in ("0", "2"):
        code, _, err = invoke(
            capsys, ["zero", "--ring", path, "--epsilon", eps, "--backend", "sampled"]
        )
        assert code == 2, err
    # a description that parses but fails validation
    z1 = ring_file("z1.ring", "ring.kind = modular\nring.n = 1\n")
    code, _, err = invoke(capsys, ["order", "--ring", z1, "--ideal", "0"])
    assert code == 2, err
    # polyquot p = 0: top level, as a matrix base and as a product factor
    for name, text in (
        ("p0.ring", "ring.kind = polyquot\nring.p = 0\nring.f = 1, 1\n"),
        ("m_p0.ring", "ring.kind = matrix\nring.k = 2\nring.base = polyquot 0 [1, 1]\n"),
        ("x_p0.ring", "ring.kind = product\nring.factors = modular 2, polyquot 0 [1, 1]\n"),
    ):
        code, _, err = invoke(capsys, ["ring-order", "--ring", ring_file(name, text)])
        assert code == 2, (name, err)
    # p above the exact bound of the deterministic Miller-Rabin test
    big_p = ring_file(
        "big_p.ring", f"ring.kind = polyquot\nring.p = {2**89 - 1}\nring.f = 1, 1\n"
    )
    code, _, err = invoke(capsys, ["ring-order", "--ring", big_p])
    assert code == 2 and "not decided" in err, err
    # a repeated key, and a key the kind does not take
    for name, text, fault in (
        ("twice.ring", Z12 + "ring.n = 13\n", "repeated key ring.n"),
        ("foreign.ring", Z12 + "ring.p = 2\n", "unexpected key ring.p"),
    ):
        code, out, err = invoke(capsys, ["ring-order", "--ring", ring_file(name, text)])
        assert code == 2 and not out and fault in err, (name, err)
    for k_min, k_max in (("0", "1"), ("5", "3")):
        code, out, err = invoke(
            capsys, ["bench-queries", "--k-min", k_min, "--k-max", k_max]
        )
        assert code == 2 and not out, err
    # a list where one element is expected
    for argv in (
        ["member", "--ideal", "4", "--element", "4,8"],
        ["witness", "--ideal", "4", "--element", "4,8"],
        ["unit", "--element", "4,8"],
        ["inverse", "--element", "4,8"],
        ["neg", "--element", "4,8"],
        ["solve", "--a", "4,8", "--b", "8"],
        ["solve", "--a", "4", "--b", "4;;8"],
    ):
        code, _, err = invoke(capsys, argv + ["--ring", path])
        assert code == 2, (argv, err)


def test_malformed_element_literal_exit_2(ring_file, capsys):
    path = ring_file("z2xz9.ring", Z2XZ9)
    for literal in ("(1, (2", "(1, 2, 3)", "[1]", "(1; 2)", "(, )", "((1, 2), 3)"):
        code, out, err = invoke(
            capsys, ["member", "--ring", path, "--ideal", "(1, 3)", "--element", literal]
        )
        assert code == 2 and not out, (literal, err)


def test_unknown_command_exit_2(ring_file, capsys):
    path = ring_file("z12.ring", Z12)
    code, _, _ = invoke(capsys, ["frobnicate", "--ring", path])
    assert code == 2


def test_precondition_exit_3(ring_file, capsys):
    path = ring_file("z12.ring", Z12)
    code, _, err = invoke(capsys, ["inverse", "--ring", path, "--element", "4"])
    assert code == 3
    code, _, err = invoke(capsys, ["prime", "--ring", path, "--ideal", "1"])
    assert code == 3
    # M_2(Z_2) is simple: the left ideal of E11 is no two-sided ideal
    m2 = ring_file("m2z2.ring", M2Z2)
    code, _, err = invoke(
        capsys, ["prime", "--ring", m2, "--ideal", "1,0;0,0", "--side", "left"]
    )
    assert code == 3, err
    # the multiplicative-order walk is O(|R|): refused above the desk cap
    big = ring_file("big.ring", f"ring.kind = modular\nring.n = {1 << 40}\n")
    t0 = time.perf_counter()
    code, _, err = invoke(capsys, ["inverse", "--ring", big, "--element", "3"])
    assert code == 3, err
    assert time.perf_counter() - t0 < 2.0
    t0 = time.perf_counter()
    code, _, err = invoke(
        capsys, ["prime", "--ring", big, "--ideal", "0", "--prime-period-finding"]
    )
    assert code == 3, err
    assert time.perf_counter() - t0 < 2.0
    # the field test cannot decide primality of the characteristic 2^89 - 1
    huge = ring_file("huge.ring", f"ring.kind = modular\nring.n = {2**89 - 1}\n")
    code, _, err = invoke(capsys, ["prime", "--ring", huge, "--ideal", "0"])
    assert code == 3 and "not decided" in err, err


def test_ring_order_of_a_polyquot_over_a_61_bit_prime(ring_file, capsys):
    p = 2**61 - 1
    path = ring_file(
        "p61.ring", f"ring.kind = polyquot\nring.p = {p}\nring.f = 1, 0, 1\n"
    )
    t0 = time.perf_counter()
    code, out, err = invoke(capsys, ["ring-order", "--ring", path, "--json"])
    assert code == 0, err
    assert json.loads(out)["result"]["order"] == p**2
    assert time.perf_counter() - t0 < 5.0


def test_ring_order_of_a_rank_9_matrix_ring(ring_file, capsys):
    # M_3(Z_256): element decompositions read off the basis span keep the
    # rank-9 tensor cheap
    path = ring_file(
        "m3z256.ring", "ring.kind = matrix\nring.k = 3\nring.base = modular 256\n"
    )
    t0 = time.perf_counter()
    code, out, err = invoke(capsys, ["ring-order", "--ring", path, "--json"])
    assert code == 0, err
    assert json.loads(out)["result"]["order"] == 256**9
    assert time.perf_counter() - t0 < 5.0


def test_sampled_ring_order_at_rank_32(ring_file, capsys):
    # F_2[x]/(x^32 + x + 1): each sampled solve reads its dual by
    # back-substitution and builds no character past the span
    f = ", ".join(map(str, [1, 1] + [0] * 30 + [1]))
    path = ring_file("f2_32.ring", f"ring.kind = polyquot\nring.p = 2\nring.f = {f}\n")
    argv = ["ring-order", "--ring", path, "--json", "--backend", "sampled"]
    t0 = time.perf_counter()
    code, out, err = invoke(capsys, argv + ["--seed", "1", "--epsilon", "1e-9"])
    assert code == 0, err
    assert json.loads(out)["result"]["order"] == 2**32
    assert time.perf_counter() - t0 < 10.0


def test_witness(ring_file, capsys):
    path = ring_file("z12.ring", Z12)
    code, out, _ = invoke(
        capsys, ["witness", "--ring", path, "--ideal", "4", "--element", "8", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["verified"] is True


def test_member_and_order_and_identities(ring_file, capsys):
    path = ring_file("z12.ring", Z12)
    code, out, _ = invoke(
        capsys, ["member", "--ring", path, "--ideal", "4", "--element", "8", "--json"]
    )
    assert json.loads(out)["result"]["member"] is True
    code, out, _ = invoke(capsys, ["ring-order", "--ring", path, "--json"])
    assert json.loads(out)["result"]["order"] == 12
    code, out, _ = invoke(capsys, ["one", "--ring", path, "--json"])
    assert json.loads(out)["result"]["one"] == "1"
    code, out, _ = invoke(capsys, ["zero", "--ring", path, "--json"])
    assert json.loads(out)["result"]["zero"] == "0"
    code, out, _ = invoke(capsys, ["neg", "--ring", path, "--element", "4", "--json"])
    assert json.loads(out)["result"]["neg"] == "8"


def test_intersect_colon_annihilate(ring_file, capsys):
    path = ring_file("z12.ring", Z12)
    code, out, _ = invoke(
        capsys,
        ["intersect", "--ring", path, "--ideal", "2", "--ideal2", "3", "--json"],
    )
    assert json.loads(out)["result"]["order"] == 2
    code, out, _ = invoke(
        capsys, ["colon", "--ring", path, "--ideal", "4", "--ideal2", "2", "--json"]
    )
    assert json.loads(out)["result"]["order"] == 6
    code, out, _ = invoke(
        capsys, ["annihilate", "--ring", path, "--elements", "4", "--json"]
    )
    assert json.loads(out)["result"]["order"] == 4


def test_hom_commands(ring_file, capsys):
    p12 = ring_file("z12.ring", Z12)
    p6 = ring_file("z6.ring", Z6)
    code, out, _ = invoke(
        capsys,
        ["hom-kernel", "--ring", p12, "--ring2", p6, "--hom", "mod", "--json"],
    )
    assert code == 0
    assert json.loads(out)["result"]["order"] == 2
    code, out, _ = invoke(
        capsys,
        ["hom-injective", "--ring", p12, "--ring2", p6, "--hom", "mod", "--json"],
    )
    assert json.loads(out)["result"]["injective"] is False
    code, out, _ = invoke(
        capsys,
        ["hom-surjective", "--ring", p12, "--ring2", p6, "--hom", "mod", "--json"],
    )
    assert json.loads(out)["result"]["surjective"] is True


def test_verify_flag_all_green(ring_file, capsys):
    path = ring_file("z12.ring", Z12)
    checks = [
        ["basis", "--ring", path, "--ideal", "4", "--verify"],
        ["order", "--ring", path, "--ideal", "6", "--verify"],
        ["ring-order", "--ring", path, "--verify"],
        ["equal", "--ring", path, "--ideal", "2", "--ideal2", "10", "--verify"],
        ["member", "--ring", path, "--ideal", "4", "--element", "2", "--verify"],
        ["intersect", "--ring", path, "--ideal", "2", "--ideal2", "3", "--verify"],
        ["colon", "--ring", path, "--ideal", "4", "--ideal2", "2", "--verify"],
        ["annihilate", "--ring", path, "--elements", "4", "--verify"],
        ["unit", "--ring", path, "--element", "7", "--verify"],
        ["inverse", "--ring", path, "--element", "7", "--verify"],
        ["one", "--ring", path, "--verify"],
        ["zero", "--ring", path, "--verify"],
        ["neg", "--ring", path, "--element", "9", "--verify"],
        ["solve", "--ring", path, "--a", "4", "--b", "8", "--verify"],
        ["prime", "--ring", path, "--ideal", "2", "--verify"],
    ]
    for argv in checks:
        code, out, err = invoke(capsys, argv)
        assert code == 0, (argv, err)


def test_determinism_byte_identical(ring_file, capsys):
    path = ring_file("z12.ring", Z12)
    for backend in ("exact", "sampled"):
        argv = [
            "basis",
            "--ring",
            path,
            "--ideal",
            "4,6",
            "--json",
            "--seed",
            "99",
            "--backend",
            backend,
        ]
        _, out1, _ = invoke(capsys, argv)
        _, out2, _ = invoke(capsys, argv)
        assert out1 == out2


def test_seed_env_override(ring_file, capsys, monkeypatch):
    path = ring_file("z12.ring", Z12)
    monkeypatch.setenv("RINGBOX_SEED", "7")
    _, out_env, _ = invoke(capsys, ["zero", "--ring", path, "--json"])
    assert json.loads(out_env)["seed"] == 7
    _, out_flag, _ = invoke(capsys, ["zero", "--ring", path, "--json", "--seed", "3"])
    assert json.loads(out_flag)["seed"] == 3
    monkeypatch.setenv("RINGBOX_SEED", "abc")
    code, out, err = invoke(capsys, ["order", "--ring", path, "--ideal", "4"])
    assert (code, out) == (2, "")
    assert err == "parse error: RINGBOX_SEED is not an integer: 'abc'\n"


def test_bench_single_row():
    cfg = RunConfig(command="bench-queries", family="modular", k_min=5, k_max=5)
    rows, exponent = bench_queries(cfg)
    assert len(rows) == 1
    assert rows[0]["k"] == 5
    assert rows[0]["brute_total"] >= 2**5
    assert exponent == 0.0


def test_bench_refuses_an_over_cap_family_before_any_row(capsys, monkeypatch):
    # M_2(Z_64) exceeds the desk cap: no smaller member is computed first
    def computed(*args, **kwargs):
        raise AssertionError("a row was computed before the cap check")

    monkeypatch.setattr(cli, "find_basis_representation", computed)
    code, out, err = invoke(
        capsys, ["bench-queries", "--family", "matrix2", "--k-min", "1", "--k-max", "6"]
    )
    assert (code, out) == (3, "")
    assert "family member at k=6 exceeds the desk cap; lower --k-max" in err


def test_fit_exponent_recovers_power_law():
    ks = list(range(4, 15))
    totals = [3 * k**2 for k in ks]
    assert abs(fit_exponent(ks, totals) - 2.0) < 1e-9


def test_matrix_generator_lists(ring_file, capsys):
    path = ring_file("m2z2.ring", M2Z2)
    code, out, err = invoke(
        capsys,
        [
            "order",
            "--ring",
            path,
            "--ideal",
            "1,0;0,0;;0,0;0,1",
            "--side",
            "left",
            "--json",
            "--verify",
        ],
    )
    assert code == 0, err
    assert json.loads(out)["result"]["order"] == 16


def test_debug_codes_flag(ring_file, capsys):
    path = ring_file("z12.ring", Z12)
    _, out, _ = invoke(
        capsys, ["basis", "--ring", path, "--ideal", "4", "--json", "--debug-codes"]
    )
    assert "codes" in json.loads(out)["result"]
    _, out, _ = invoke(capsys, ["basis", "--ring", path, "--ideal", "4", "--json"])
    assert "codes" not in json.loads(out)["result"]


def test_polyquot_generator_lists(ring_file, capsys):
    path = ring_file("f4.ring", F4)
    for ideal in ("[0, 1], [1]", "[0, 1];;[1]"):
        argv = ["order", "--ring", path, "--ideal", ideal, "--json"]
        code, out, err = invoke(capsys, argv)
        assert code == 0, err
        assert json.loads(out)["result"]["order"] == 4
    code, _, err = invoke(capsys, ["unit", "--ring", path, "--element", "[x]"])
    assert code == 2, err


def _wrong_colon(out, args):
    ring = args[0]
    return ring.generators, out[1]


# command, op it calls, and how to corrupt the op's answer
WRONG_ANSWERS = [
    (["order", "--ideal", "3"], "ideal_order", lambda out, args: out + 1),
    (["colon", "--ideal", "4", "--ideal2", "2"], "colon_ideal", _wrong_colon),
    (["inverse", "--element", "5"], "inverse", lambda out, args: args[0].generators[0]),
    (
        ["prime", "--ideal", "3"],
        "is_prime_ideal",
        lambda out, args: ops.PrimalityVerdict(not out.prime, out.trials, out.confidence),
    ),
    (
        ["hom-injective", "--ring2", "z6.ring", "--hom", "mod"],
        "is_injective",
        lambda out, args: not out,
    ),
]


@pytest.mark.parametrize(
    "argv, op, corrupt", WRONG_ANSWERS, ids=[w[0][0] for w in WRONG_ANSWERS]
)
def test_verify_catches_wrong_answer(argv, op, corrupt, ring_file, capsys, monkeypatch):
    files = {"z12.ring": ring_file("z12.ring", Z12), "z6.ring": ring_file("z6.ring", Z6)}
    argv = [files.get(a, a) for a in argv]
    original = getattr(ops, op)

    def wrong(*args, **kwargs):
        return corrupt(original(*args, **kwargs), args)

    full = [argv[0], "--ring", files["z12.ring"], *argv[1:]]
    code, _, err = invoke(capsys, full)
    assert code == 0, err
    monkeypatch.setattr(ops, op, wrong)
    code, _, err = invoke(capsys, full)
    assert code == 0, err  # without --verify the wrong answer goes through
    code, _, err = invoke(capsys, full + ["--verify"])
    assert code == 1
    assert "verification divergence" in err


def test_verify_table_covers_commands():
    assert set(cli._CHECKS) == set(cli.COMMANDS) - {"witness", "bench-queries"}


def test_verify_refuses_ring_above_desk_cap(ring_file, capsys):
    path = ring_file("big.ring", f"ring.kind = modular\nring.n = {1 << 21}\n")
    t0 = time.perf_counter()
    code, _, err = invoke(capsys, ["order", "--ring", path, "--ideal", "2", "--verify"])
    assert code == 3, err
    assert time.perf_counter() - t0 < 1.0
