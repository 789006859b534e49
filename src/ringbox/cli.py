"""Command-line front end.

One command per invocation; structured output is a single JSON document with
a versioned schema, element values rendered as construction-native literals
(raw codes only behind --debug-codes), query counts, and confidence data.
Exit codes: 0 success, 2 parse error, 3 precondition error, 4 low-confidence
result under the sampled backend (1 is reserved for --verify divergence and
unexpected faults).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from . import ringops as ops
from . import verify
from .blackbox import (
    DESK_CAP,
    ElementCode,
    MatrixSpec,
    ModularSpec,
    format_element,
    make_ring,
    parse_element_literal,
    parse_ring_file,
    _split_top_level,
)
from .errors import (
    LowConfidenceError,
    MembershipError,
    ParseError,
    PreconditionError,
    RingConstructionError,
    VerificationError,
)
from .idealcore import IdealSpec, find_basis_representation, membership_witness
from .qsim import PrimitiveProvider, ProviderConfig, fork_seed
from .ringops import HomomorphismOracle

SCHEMA = "ringbox.run/1"


@dataclass
class RunConfig:
    command: str
    ring_path: str | None = None
    ring_text: str | None = None
    ideal: str | None = None
    ideal2: str | None = None
    side: str | None = None
    element: str | None = None
    elements: str | None = None
    a: str | None = None
    b: str | None = None
    ring2_path: str | None = None
    ring2_text: str | None = None
    hom: str | None = None
    backend: str = "exact"
    seed: int = 0
    epsilon: float = 1e-6
    verify: bool = False
    count_queries: bool = False
    json_out: bool = False
    debug_codes: bool = False
    prime_period_finding: bool = False
    family: str | None = None
    k_min: int = 4
    k_max: int = 14


def _epsilon(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"epsilon must lie in (0, 1), got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ringbox",
        description="ideal arithmetic in finite black-box rings",
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--ring", dest="ring_path", help="ring description file")
    p.add_argument("--ideal", help="comma-separated generator literals")
    p.add_argument("--ideal2", help="second ideal's generator literals")
    p.add_argument("--side", choices=("left", "right", "two"))
    p.add_argument("--element", help="element literal (member/witness/unit/inverse/neg)")
    p.add_argument("--elements", help="element literal list (annihilate)")
    p.add_argument("--a", help="left-hand element literal for solve")
    p.add_argument("--b", help="right-hand element literal for solve")
    p.add_argument(
        "--ring2", dest="ring2_path", help="codomain ring description file (hom commands)"
    )
    p.add_argument("--hom", help="homomorphism kind: identity | mod")
    p.add_argument("--backend", choices=("exact", "sampled"), default="exact")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epsilon", type=_epsilon, default=1e-6)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--count-queries", action="store_true")
    p.add_argument("--json", dest="json_out", action="store_true")
    p.add_argument("--debug-codes", action="store_true")
    p.add_argument(
        "--prime-period-finding",
        action="store_true",
        help="use simulated period finding in the prime test",
    )
    p.add_argument("--family", choices=("modular", "matrix2"), default="modular")
    p.add_argument("--k-min", type=int, default=4)
    p.add_argument("--k-max", type=int, default=14)
    return p


def config_from_args(argv) -> RunConfig:
    args = build_parser().parse_args(argv)
    if args.seed is None:
        raw = os.environ.get("RINGBOX_SEED", "0")
        try:
            args.seed = int(raw)
        except ValueError:
            raise ParseError(f"RINGBOX_SEED is not an integer: {raw!r}") from None
    return RunConfig(**vars(args))


def _load_ring(text, path, missing: str, seed: int):
    if text is None:
        if not path:
            raise ParseError(missing)
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text") from exc
    return make_ring(parse_ring_file(text), seed)


class _Session:
    """Everything one command invocation needs."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.warnings: list[str] = []
        self.ring = None
        self.ring2 = None
        self.confidence_extra: dict = {}
        if config.command != "bench-queries":
            self.ring = _load_ring(
                config.ring_text, config.ring_path, "--ring FILE is required", config.seed
            )
        if config.command.startswith("hom-"):
            self.ring2 = _load_ring(
                config.ring2_text,
                config.ring2_path,
                "--ring2 FILE is required for hom commands",
                fork_seed(config.seed, "ring2"),
            )
        self.provider = PrimitiveProvider(
            ProviderConfig(
                backend=config.backend, epsilon=config.epsilon, seed=config.seed
            )
        )
        self._rep = None

    @property
    def ring_rep(self):
        if self._rep is None:
            self._rep = ops.ring_representation(self.ring, self.provider)
        return self._rep

    def side(self, default="left") -> str:
        return self.config.side or default

    def parse_elements(self, text, what) -> tuple:
        if text is None:
            raise ParseError(f"missing {what}")
        # literals themselves may contain commas (tuples, matrices): try the
        # whole string first; lists split on ';;' when present (matrix
        # literals use single ';' internally), else on top-level commas
        try:
            return (parse_element_literal(self.ring, text),)
        except ParseError:
            pass
        parts = text.split(";;") if ";;" in text else _split_top_level(text, ",")
        if len(parts) < 2:
            raise ParseError(f"cannot parse {what}: {text!r}")
        return tuple(parse_element_literal(self.ring, p) for p in parts)

    def parse_element(self, text, what):
        elems = self.parse_elements(text, what)
        if len(elems) != 1:
            raise ParseError(f"{what} takes one element, got {len(elems)}")
        return elems[0]

    def ideal_spec(self, text, what="--ideal", side_default="left") -> IdealSpec:
        gens = self.parse_elements(text, what)
        size = self.ring._ring_size()
        soft = 2 * max(1, size.bit_length()) + 8
        if len(gens) > soft:
            self.warnings.append(
                f"{what}: {len(gens)} generators exceeds the soft bound {soft}"
            )
        return IdealSpec(self.side(side_default), gens)

    def ideal_pair(self) -> tuple[IdealSpec, IdealSpec]:
        return (
            self.ideal_spec(self.config.ideal),
            self.ideal_spec(self.config.ideal2, what="--ideal2"),
        )

    def fmt(self, code) -> str:
        return format_element(self.ring, code)

    def hom_oracle(self) -> HomomorphismOracle:
        kind = (self.config.hom or "identity").strip().lower()
        if kind == "identity":
            if self.ring.spec != self.ring2.spec:
                raise ParseError("identity hom needs identical ring descriptions")
            src, dst = self.ring, self.ring2

            def mapping(code):
                return dst._encode(src._decode(code))

            return HomomorphismOracle(src, dst, mapping, name="identity")
        if kind == "mod":
            if not isinstance(self.ring.spec, ModularSpec) or not isinstance(
                self.ring2.spec, ModularSpec
            ):
                raise ParseError("mod hom needs modular rings on both sides")
            n1, n2 = self.ring.spec.n, self.ring2.spec.n
            if n1 % n2:
                raise ParseError(f"mod hom needs {n2} | {n1}")
            src, dst = self.ring, self.ring2

            def mapping(code):
                return dst._encode(src._decode(code) % n2)

            return HomomorphismOracle(src, dst, mapping, name="mod")
        raise ParseError(f"unknown hom kind {kind!r}")


def run(config: RunConfig):
    """Execute one command; returns (exit_code, report dict, human lines).

    Under --verify the ring sizes are checked against the desk cap before the
    command runs, and the answer is then compared with its brute-force check.
    """
    session = _Session(config)
    check = _CHECKS.get(config.command) if config.verify else None
    if check is not None:
        for ring in (session.ring, session.ring2):
            if ring is not None and ring._ring_size() > DESK_CAP:
                raise PreconditionError("--verify needs ring order within the desk cap")
    result, human, answer = _HANDLERS[config.command](session)
    if check is not None:
        got, want = check(_Truth(session.ring), *answer)
        if got != want:
            raise VerificationError(
                f"{config.command}: got {_describe(session, got)}, "
                f"brute force gives {_describe(session, want)}"
            )
    report = {
        "schema": SCHEMA,
        "command": config.command,
        "backend": config.backend,
        "seed": config.seed,
        "ring": session.ring.spec.describe() if session.ring else None,
        "inputs": {
            "ideal": config.ideal,
            "ideal2": config.ideal2,
            "side": config.side,
            "element": config.element,
            "elements": config.elements,
            "a": config.a,
            "b": config.b,
            "hom": config.hom,
        },
        "result": result,
        "queries": _query_block(session),
        "confidence": _confidence(session),
        "warnings": session.warnings,
    }
    return 0, report, human


def _query_block(session):
    if session.ring is None:
        return None
    led = session.ring.ledger
    vled = session.ring.verification_ledger
    return {
        "add": led.add_count,
        "mul": led.mul_count,
        "verification_add": vled.add_count,
        "verification_mul": vled.mul_count,
    }


def _confidence(session):
    cfg = session.config
    decisions = session.provider.stats["decisions"]
    if cfg.backend == "exact":
        block = {"backend": "exact", "decisions": decisions, "bound": 1.0}
    else:
        bound = max(0.0, 1.0 - decisions * cfg.epsilon)
        block = {"backend": "sampled", "decisions": decisions, "bound": bound}
    block.update(session.confidence_extra)
    return block


# -- command handlers -----------------------------------------------------
#
# Each handler returns (result, human lines, answer); ``answer`` is the
# argument tuple of the command's brute-force check in ``_CHECKS``.


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_basis(session):
    cfg = session.config
    spec = session.ideal_spec(cfg.ideal)
    rep = find_basis_representation(session.ring, spec, session.provider)
    generators = [session.fmt(h) for h in rep.basis.h]
    tensor = [[list(cell) for cell in row] for row in rep.tensor]
    result = {
        "orders": list(rep.orders),
        "ideal_order": rep.order(),
        "generators": generators,
        "tensor": tensor,
        "provenance": [str(p) for p in rep.provenance],
        "rounds": rep.trace.rounds,
        "sizes": list(rep.trace.sizes),
    }
    if cfg.debug_codes:
        result["codes"] = [repr(h) for h in rep.basis.h]
    human = [
        f"invariant factors: {list(rep.orders)}",
        f"|I| = {rep.order()}",
        f"generators: {generators}",
        f"tensor: {tensor}",
        f"augmenting rounds: {rep.trace.rounds}",
    ]
    return result, human, (spec, rep)


def _cmd_order(session):
    spec = session.ideal_spec(session.config.ideal)
    n = ops.ideal_order(session.ring, spec, session.provider)
    return {"order": n}, [f"|I| = {n}"], (spec, n)


def _cmd_ring_order(session):
    n = ops.ring_order(session.ring, session.provider, session.ring_rep)
    return {"order": n}, [f"|R| = {n}"], (n,)


def _cmd_equal(session):
    spec1, spec2 = session.ideal_pair()
    eq = ops.ideal_equal(session.ring, spec1, spec2, session.provider)
    return {"equal": eq}, [f"I = J: {_yes(eq)}"], (spec1, spec2, eq)


def _cmd_member(session):
    cfg = session.config
    spec = session.ideal_spec(cfg.ideal)
    x = session.parse_element(cfg.element, "--element")
    inside = ops.ideal_contains(session.ring, spec, x, session.provider)
    return {"member": inside}, [f"{cfg.element} in I: {_yes(inside)}"], (spec, x, inside)


def _cmd_witness(session):
    cfg = session.config
    spec = session.ideal_spec(cfg.ideal)
    x = session.parse_element(cfg.element, "--element")
    rep = find_basis_representation(session.ring, spec, session.provider)
    w = membership_witness(session.ring, x, rep, session.provider)
    zero = ops.additive_identity(session.ring, session.provider)
    check = w.evaluate(
        session.ring.verification, spec.generators, session.ring.generators, zero
    )
    if check != x:
        raise VerificationError("witness re-evaluation mismatch")
    result = {"witness": str(w), "witness_tree": w.to_json(), "verified": True}
    return result, [f"witness: {w}"], ()


def _cmd_intersect(session):
    spec1, spec2 = session.ideal_pair()
    rep = ops.ideal_intersection(
        session.ring, spec1, spec2, session.provider, session.ring_rep
    )
    result = {
        "orders": list(rep.orders),
        "order": rep.order(),
        "generators": [session.fmt(h) for h in rep.basis.h],
        "tensor": [[list(cell) for cell in row] for row in rep.tensor],
    }
    return result, [f"|I ∩ J| = {rep.order()}"], (spec1, spec2, rep.basis.h)


def _group_result(session, codes, basis, name):
    """Result and human line of an op answering with additive generators."""
    result = {
        "generators": [session.fmt(c) for c in codes],
        "orders": list(basis.s),
        "order": basis.order(),
    }
    return result, [f"|{name}| = {basis.order()}"]


def _cmd_colon(session):
    spec1, spec2 = session.ideal_pair()
    codes, basis = ops.colon_ideal(
        session.ring, spec1, spec2, session.provider, session.ring_rep
    )
    return *_group_result(session, codes, basis, "(I : J)"), (spec1, spec2, codes)


def _cmd_annihilate(session):
    cfg = session.config
    s_elems = session.parse_elements(cfg.elements or cfg.element, "--elements")
    side = session.side("left")
    if side == "two":
        raise ParseError("annihilate is one-sided; use --side left|right")
    codes, basis = ops.annihilator(
        session.ring, s_elems, side, session.provider, session.ring_rep
    )
    return *_group_result(session, codes, basis, "A_S"), (s_elems, side, codes)


def _cmd_unit(session):
    cfg = session.config
    x = session.parse_element(cfg.element, "--element")
    verdict = ops.is_unit(session.ring, x, session.provider, session.ring_rep)
    return (
        {"unit": verdict},
        [f"{cfg.element} is a unit: {_yes(verdict)}"],
        (x, verdict),
    )


def _cmd_inverse(session):
    x = session.parse_element(session.config.element, "--element")
    inv = ops.inverse(session.ring, x, session.provider, session.ring_rep)
    return {"inverse": session.fmt(inv)}, [f"inverse: {session.fmt(inv)}"], (x, inv)


def _cmd_one(session):
    e = ops.multiplicative_identity(session.ring, session.provider, session.ring_rep)
    return {"one": session.fmt(e)}, [f"1 = {session.fmt(e)}"], (e,)


def _cmd_zero(session):
    z = ops.additive_identity(session.ring, session.provider)
    return {"zero": session.fmt(z)}, [f"0 = {session.fmt(z)}"], (z,)


def _cmd_neg(session):
    x = session.parse_element(session.config.element, "--element")
    y = ops.additive_inverse(session.ring, x, session.provider)
    return {"neg": session.fmt(y)}, [f"-x = {session.fmt(y)}"], (x, y)


def _cmd_solve(session):
    cfg = session.config
    a = session.parse_element(cfg.a, "--a")
    b = session.parse_element(cfg.b, "--b")
    x = ops.solve_linear(session.ring, a, b, session.provider, session.ring_rep)
    if x is None:
        return {"solution": None}, ["no solution"], (a, b, x)
    return {"solution": session.fmt(x)}, [f"x = {session.fmt(x)}"], (a, b, x)


def _cmd_prime(session):
    cfg = session.config
    spec = session.ideal_spec(cfg.ideal, side_default="two")
    verdict = ops.is_prime_ideal(
        session.ring,
        spec,
        session.provider,
        session.ring_rep,
        use_period_finding=cfg.prime_period_finding,
    )
    session.confidence_extra["prime_confidence"] = verdict.confidence
    result = {
        "verdict": verdict.verdict,
        "trials": verdict.trials,
        "confidence": verdict.confidence,
    }
    human = [f"verdict: {verdict.verdict} (trials {verdict.trials})"]
    return result, human, (spec, verdict.prime)


def _cmd_hom_kernel(session):
    rho = session.hom_oracle()
    codes, basis = ops.hom_kernel(rho, session.provider, session.ring_rep)
    return *_group_result(session, codes, basis, "ker"), (rho, codes)


def _cmd_hom_injective(session):
    rho = session.hom_oracle()
    verdict = ops.is_injective(rho, session.provider, session.ring_rep)
    return {"injective": verdict}, [f"injective: {_yes(verdict)}"], (rho, verdict)


def _cmd_hom_surjective(session):
    rho = session.hom_oracle()
    verdict = ops.is_surjective(rho, session.provider)
    return {"surjective": verdict}, [f"surjective: {_yes(verdict)}"], (rho, verdict)


# -- brute-force checks behind --verify -------------------------------------


class _Truth:
    """Brute-force ground truth for one ring, on its verification channel."""

    def __init__(self, ring):
        self.ring = ring
        self._elems = None

    @property
    def elems(self) -> frozenset:
        if self._elems is None:
            self._elems = verify.ring_elements(self.ring)
        return self._elems

    def zero(self):
        return verify.find_zero(self.ring, self.elems)

    def closure(self, spec: IdealSpec) -> frozenset:
        return verify.ideal_closure(self.ring, spec.generators, spec.side)

    def span(self, codes) -> frozenset:
        if not codes:
            return frozenset({self.zero()})
        return verify.additive_span(self.ring, codes)


def _check_basis(t, spec, rep):
    closure = t.closure(spec)
    return (rep.order(), t.span(rep.basis.h)), (len(closure), closure)


def _check_solve(t, a, b, x):
    sols = verify.solve_linear_set(t.ring, a, b, t.elems)
    return (x in sols if sols else x is None), True


def _check_hom_kernel(t, rho, codes):
    zero_image = rho(t.zero())
    return t.span(codes), frozenset(c for c in t.elems if rho(c) == zero_image)


# command -> check(truth, *answer) returning (answer, brute-force answer)
_CHECKS = {
    "basis": _check_basis,
    "order": lambda t, spec, n: (n, len(t.closure(spec))),
    "ring-order": lambda t, n: (n, len(t.elems)),
    "equal": lambda t, s1, s2, eq: (eq, t.closure(s1) == t.closure(s2)),
    "member": lambda t, spec, x, inside: (inside, x in t.closure(spec)),
    "intersect": lambda t, s1, s2, h: (t.span(h), t.closure(s1) & t.closure(s2)),
    "colon": lambda t, s1, s2, codes: (
        t.span(codes),
        verify.colon_set(t.ring, t.closure(s1), t.closure(s2), t.elems),
    ),
    "annihilate": lambda t, s_elems, side, codes: (
        t.span(codes),
        verify.annihilator_set(t.ring, s_elems, side, t.elems),
    ),
    "unit": lambda t, x, unit: (unit, x in verify.unit_table(t.ring, t.elems)),
    "inverse": lambda t, x, inv: (inv, verify.unit_table(t.ring, t.elems).get(x)),
    "one": lambda t, e: (e, verify.find_one(t.ring, t.elems)),
    "zero": lambda t, z: (z, t.zero()),
    "neg": lambda t, x, y: (t.ring.verification.add(x, y), t.zero()),
    "solve": _check_solve,
    "prime": lambda t, spec, prime: (
        prime,
        verify.is_prime_by_definition(t.ring, t.closure(spec), t.elems),
    ),
    "hom-kernel": _check_hom_kernel,
    "hom-injective": lambda t, rho, inj: (
        inj,
        len({rho(c) for c in t.elems}) == len(t.elems),
    ),
    "hom-surjective": lambda t, rho, surj: (
        surj,
        {rho(c) for c in t.elems} == verify.ring_elements(rho.codomain),
    ),
}


def _describe(session, value) -> str:
    if isinstance(value, frozenset):
        return f"a set of {len(value)} elements"
    if isinstance(value, ElementCode):
        return session.fmt(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(_describe(session, v) for v in value) + ")"
    return repr(value)


def bench_queries(config: RunConfig):
    """Query-count table for find_basis_representation over a ring family,
    with the brute-force enumeration channel as the comparator column."""
    if not 1 <= config.k_min <= config.k_max:
        raise ParseError("bench-queries needs 1 <= --k-min <= --k-max")

    def member(k):
        base = ModularSpec(1 << k)
        return base if config.family == "modular" else MatrixSpec(2, base)

    # the family grows with k: refuse an over-cap --k-max before any row
    if member(config.k_max).order() > DESK_CAP:
        raise PreconditionError(
            f"family member at k={config.k_max} exceeds the desk cap; lower --k-max"
        )
    rows = []
    for k in range(config.k_min, config.k_max + 1):
        ring = make_ring(member(k), config.seed)
        provider = PrimitiveProvider(
            ProviderConfig(
                backend=config.backend,
                epsilon=config.epsilon,
                seed=fork_seed(config.seed, f"bench-{k}"),
            )
        )
        find_basis_representation(
            ring, IdealSpec("left", ring.generators), provider
        )
        add_n, mul_n = ring.ledger.snapshot()
        verify.ring_elements(ring)
        vadd, vmul = ring.verification_ledger.snapshot()
        rows.append(
            {
                "k": k,
                "add": add_n,
                "mul": mul_n,
                "total": add_n + mul_n,
                "brute_add": vadd,
                "brute_mul": vmul,
                "brute_total": vadd + vmul,
            }
        )
    exponent = fit_exponent([r["k"] for r in rows], [max(1, r["total"]) for r in rows])
    return rows, exponent


def fit_exponent(ks, totals) -> float:
    """Least-squares slope of log(total) against log(k)."""
    if len(ks) < 2:
        return 0.0
    xs = [math.log(k) for k in ks]
    ys = [math.log(t) for t in totals]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    denom = sum((x - mx) ** 2 for x in xs)
    if denom == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom


def _cmd_bench(session):
    rows, exponent = bench_queries(session.config)
    human = ["k  add  mul  total  brute_total"]
    for r in rows:
        human.append(
            f"{r['k']:>2} {r['add']:>5} {r['mul']:>4} {r['total']:>6} {r['brute_total']:>11}"
        )
    human.append(f"fitted exponent: {exponent:.3f}")
    return {"rows": rows, "fitted_exponent": exponent}, human, ()


_HANDLERS = {
    "basis": _cmd_basis,
    "order": _cmd_order,
    "ring-order": _cmd_ring_order,
    "equal": _cmd_equal,
    "member": _cmd_member,
    "witness": _cmd_witness,
    "intersect": _cmd_intersect,
    "colon": _cmd_colon,
    "annihilate": _cmd_annihilate,
    "unit": _cmd_unit,
    "inverse": _cmd_inverse,
    "one": _cmd_one,
    "zero": _cmd_zero,
    "neg": _cmd_neg,
    "solve": _cmd_solve,
    "prime": _cmd_prime,
    "hom-kernel": _cmd_hom_kernel,
    "hom-injective": _cmd_hom_injective,
    "hom-surjective": _cmd_hom_surjective,
    "bench-queries": _cmd_bench,
}

COMMANDS = tuple(_HANDLERS)


def render(report, human_lines, config: RunConfig) -> str:
    if config.json_out:
        return json.dumps(report, sort_keys=True, indent=2)
    lines = list(human_lines)
    if config.count_queries and report.get("queries"):
        q = report["queries"]
        lines.append(
            f"queries: add={q['add']} mul={q['mul']} "
            f"(verification: add={q['verification_add']} mul={q['verification_mul']})"
        )
    for w in report.get("warnings", ()):
        lines.append(f"warning: {w}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = config_from_args(argv)
        code, report, human = run(config)
    except SystemExit as exc:  # argparse reports its own parse errors
        return 2 if exc.code else 0
    except (ParseError, RingConstructionError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, MembershipError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 3
    except LowConfidenceError as exc:
        print(f"low-confidence result: {exc}", file=sys.stderr)
        return 4
    except VerificationError as exc:
        print(f"verification divergence: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    print(render(report, human, config))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
