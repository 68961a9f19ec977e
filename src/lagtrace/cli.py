"""Command-line front end.

Subcommands compute one object each (Fox derivatives, Magnus matrices,
determinants, filtration degree, derivations, traces, bases) or run a named
verification suite over seeded samples.  Automorphisms come from a file in
the two-block format or from a named builtin.  Every error class maps to
its own exit code so shell callers can tell a parse problem from a failed
precondition or a falsified identity.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import chain, islice, product

from . import errors
from .derivations import (
    basis_D,
    basis_G,
    act_on_derivation,
    act_on_trace,
    derivation_bracket,
    derivation_coordinates,
    coordinate_labels,
    lagrangian_trace,
    morita_trace,
)
from .freegroup import (
    MIN_GENUS,
    _is_index,
    compose,
    symplectic_action,
    generator_names,
)
from .groupring import fox_derivative, render_ring, render_laurent
from .johnson import (
    BUILTINS,
    MAX_DEGREE_BOUND,
    _annulus_twists,
    _genus_in_budget,
    handlebody_sample_library,
    has_tau,
    johnson_degree,
    parse_mapping_class,
    sample_Ak,
    tau,
)
from .magnusrep import (
    additive_form,
    crossed_check,
    det_handlebody,
    handlebody_magnus,
    magnus_rep,
    truncated_identity_check,
    truncated_identity_check_A,
    verify_det_contraction,
    verify_theorem_A,
    verify_theorem_B,
)
from .tensorlie import render_lie, render_sym

EXIT_CODES = {
    errors.ParseError: 3,
    errors.CertificationError: 4,
    errors.NotInHandlebodyGroup: 5,
    errors.DegreeTooLow: 6,
    errors.NotLieElement: 8,
    errors.NotSymplectic: 9,
    errors.NotInG: 10,
    errors.RouteMismatch: 11,
    errors.NotMonomial: 12,
    errors.BudgetExceeded: 13,
    errors.AmbientMismatch: 14,
}

SCHEMA = 1

#: Largest `verify --count`, checked before any sample is drawn: every report
#: is kept, and thm-a keeps each class it draws.  On a 2-core machine at
#: genus 8 and count 250 each suite takes 0.2-0.8 s, thm-a the longest and
#: morita-prop 0.7 s.
COUNT_BUDGET = 250

#: The `verify` suites, in the order `verify --help` lists them.
SUITES = (
    "thm-a", "thm-b", "eq1", "eq3", "crossed", "bracket-vanish", "equivariance", "morita-prop"
)


def _exit_code_for(exc: errors.LagtraceError) -> int:
    for cls, code in EXIT_CODES.items():
        if isinstance(exc, cls):
            return code
    return 15


def load_class(args):
    if not args.file:
        return BUILTINS[args.builtin or "phi"](_genus_in_budget(args.genus))
    # only reading the input is guarded: an error writing the output is not a parse error
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise errors.ParseError(f"cannot read {args.file}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise errors.ParseError(f"{args.file} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    return parse_mapping_class(text)


def emit(args, payload: dict, text_lines) -> None:
    if args.json:
        # written piece by piece: a basis payload would be hundreds of MiB as one string
        encoder = json.JSONEncoder(indent=2, sort_keys=True)
        sys.stdout.writelines(encoder.iterencode({"schema": SCHEMA, **payload}))
        print()
    else:
        for line in text_lines:
            print(line)


def cmd_fox(args) -> int:
    m = load_class(args)
    g = m.genus
    names = generator_names(g)
    if args.gen not in names:
        raise errors.ParseError(f"generator must be one of {', '.join(names)}")
    var = names.index(args.gen) + 1
    rows = {}
    lines = []
    for j, name in enumerate(names):
        rows[name] = render_ring(fox_derivative(m.forward.images[j], var))
        lines.append(f"d image({name}) / d {args.gen} = {rows[name]}")
    emit(args, {"genus": g, "gen": args.gen, "derivatives": rows}, lines)
    return 0


def _matrix_payload(M, render) -> list[list[str]]:
    return [[render(e) for e in row] for row in M]


def cmd_magnus(args) -> int:
    m = load_class(args)
    M = handlebody_magnus(m) if args.handlebody else magnus_rep(m)
    grid = _matrix_payload(M, render_laurent)
    lines = ["[ " + " | ".join(row) + " ]" for row in grid]
    emit(args, {"genus": m.genus, "handlebody": bool(args.handlebody), "matrix": grid}, lines)
    return 0


def cmd_det(args) -> int:
    m = load_class(args)
    det = det_handlebody(m)
    payload = {"genus": m.genus, "det": render_laurent(det)}
    lines = [f"det = {render_laurent(det)}"]
    try:
        add = additive_form(det)
        payload["additive"] = render_sym(add)
        lines.append(f"additive = {render_sym(add)}")
    except errors.NotMonomial:
        payload["additive"] = None
    emit(args, payload, lines)
    return 0


def cmd_degree(args) -> int:
    m = load_class(args)
    deg = johnson_degree(m, args.max)
    shown = "exceeds N" if deg is None else deg
    emit(
        args,
        {"genus": m.genus, "max": args.max, "degree": deg},
        [f"degree = {shown}"],
    )
    return 0


def cmd_tau(args) -> int:
    m = load_class(args)
    d = tau(m, args.k)
    names = generator_names(m.genus)
    values = {name: render_lie(v) for name, v in zip(names, d.values)}
    lines = [f"tau_{args.k}({name}) = {values[name]}" for name in names]
    emit(args, {"genus": m.genus, "k": args.k, "values": values}, lines)
    return 0


def cmd_trace(args) -> int:
    m = load_class(args)
    d = tau(m, args.k)
    if args.kind == "morita":
        s = morita_trace(d)
    else:
        s = lagrangian_trace(d)
    emit(
        args,
        {"genus": m.genus, "k": args.k, "kind": args.kind, "trace": render_sym(s)},
        [f"{args.kind} trace = {render_sym(s)}"],
    )
    return 0


def cmd_basis(args) -> int:
    build = basis_D if args.space == "D" else basis_G
    basis = build(args.genus, args.k)
    labels = [
        f"{lab['letter']} (x) {lab['bracket']}"
        for lab in coordinate_labels(args.genus, args.k)
    ]
    # one pass over the rows: JSON keeps them all, text prints each as it comes
    rows = map(derivation_coordinates, basis)
    payload = {
        "space": args.space,
        "genus": args.genus,
        "k": args.k,
        "dimension": len(basis),
        "labels": labels,
    }
    if args.json:
        payload["coordinates"] = list(rows)
    lines = chain([f"dimension = {len(basis)}"], (" ".join(map(str, row)) for row in rows))
    emit(args, payload, lines)
    return 0


def _sample_degree_one(genus: int, seed: int, count: int):
    return [fm.rep for fm in sample_Ak(genus, 1, count, seed=seed)]


def _builtin_twist(genus: int):
    """annulus_twist(genus), handle 1, as the sample library's certified
    member: built once per genus, and its tau_1 and psi memos shared by
    every suite that checks it."""
    return handlebody_sample_library(genus)[_annulus_twists(genus)[0]]


def run_suite(name: str, genus: int, seed: int, count: int) -> list[dict]:
    reports: list[dict] = []

    def add(claim, equal, detail=""):
        reports.append(
            {"claim": claim, "equal": bool(equal), "detail": detail, "seed": seed}
        )

    if name in ("thm-b", "morita-prop"):
        verify = verify_theorem_B if name == "thm-b" else verify_det_contraction
        labelled = [("builtin twist", _builtin_twist(genus))]
        samples = _sample_degree_one(genus, seed, count)
        labelled += ((f"sample {i}", m) for i, m in enumerate(samples))
        for label, m in labelled:
            rep = verify(m)
            add(f"{label}: {rep['claim']}", rep["equal"], f"{rep['lhs']} vs {rep['rhs']}")
    elif name == "thm-a":
        for i, fm in enumerate(sample_Ak(genus, 2, count, seed=seed)):
            rep = verify_theorem_A(fm.rep, 2)
            add(f"sample {i}: " + rep["claim"], rep["equal"], rep["lhs"])
    elif name in ("eq1", "eq3"):
        check = truncated_identity_check if name == "eq1" else truncated_identity_check_A
        add("builtin twist, degree 1", check(_builtin_twist(genus), 1))
        for i, fm in enumerate(sample_Ak(genus, 2, max(1, count // 2), seed=seed)):
            add(f"sample {i}, degree 2", check(fm.rep, 2))
    elif name == "crossed":
        rng = random.Random(seed)
        lib = handlebody_sample_library(genus)
        for i in range(count):
            m = rng.choice(lib)
            n = rng.choice(lib)
            add(f"pair {i}", crossed_check(m, n))
    elif name == "bracket-vanish":
        basis = basis_G(genus, 1)
        brackets = (derivation_bracket(d, e) for d, e in product(basis, repeat=2))
        for i, br in enumerate(islice((br for br in brackets if not br.is_zero()), count)):
            s = lagrangian_trace(br)
            add(f"bracket {i}", s.is_zero(), render_sym(s))
    elif name == "equivariance":
        rng = random.Random(seed)
        lib = handlebody_sample_library(genus)
        samples = _sample_degree_one(genus, seed, max(1, count // 2))
        for i in range(count):
            m = rng.choice(samples)
            psi = rng.choice(lib)
            M = symplectic_action(psi)
            d = tau(m, 1)
            moved = act_on_derivation(M, d)
            # psi m psi^-1, forward map only: has_tau compares its error
            # words with 1 + moved on packed ints, and nothing is memoized
            conjugate = compose(compose(psi.forward, m.forward), psi.inverse)
            add(f"conjugation {i}", has_tau(conjugate, 1, moved))
            lhs_t = lagrangian_trace(moved)
            rhs_t = act_on_trace(M, lagrangian_trace(d), genus)
            add(f"trace action {i}", lhs_t == rhs_t)
    else:
        raise errors.ParseError(f"unknown suite {name!r}")
    return reports


def cmd_verify(args) -> int:
    if args.count > COUNT_BUDGET:
        raise errors.BudgetExceeded(f"count {args.count} is past the count budget ({COUNT_BUDGET})")
    reports = run_suite(args.suite, _genus_in_budget(args.genus), args.seed, args.count)
    all_ok = all(r["equal"] for r in reports)
    lines = []
    for r in reports:
        status = "pass" if r["equal"] else "FAIL"
        detail = f"  [{r['detail']}]" if r["detail"] else ""
        lines.append(f"{status}: {r['claim']}{detail}")
    lines.append(f"{'all pass' if all_ok else 'FAILED'} ({len(reports)} checks)")
    emit(args, {"suite": args.suite, "reports": reports, "all_pass": all_ok}, lines)
    return 0 if all_ok else 1


def _integer(text: str) -> int:
    """argparse type for an integer: ASCII digits after an optional "-", as
    the file grammar reads them; int alone also takes "٢" and "1_0"."""
    if not _is_index(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _int_in(low: int, high: int | None = None):
    """argparse type for an _integer in low..high, or at least low without
    high; anything else is a usage error (exit 2)."""
    bounds = f"in {low}..{high}" if high is not None else f"at least {low}"

    def parse(text: str) -> int:
        n = _integer(text)
        if n < low or (high is not None and n > high):
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {n}")
        return n

    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lagtrace",
        description="Exact Fox calculus, filtration derivations and trace identities",
    )
    sub = p.add_subparsers(dest="command", required=True)
    genus, degree = _int_in(MIN_GENUS), _int_in(0)

    def add_input(sp):
        sp.add_argument("--file", help="automorphism file (two-block format)")
        sp.add_argument(
            "--builtin",
            choices=tuple(BUILTINS),
            help="named builtin class (default: phi)",
        )
        sp.add_argument("--genus", type=genus, default=2, help="genus for builtins")
        sp.add_argument("--json", action="store_true", help="emit JSON")

    sp = sub.add_parser("fox", help="Fox derivatives of all generator images")
    add_input(sp)
    sp.add_argument("--gen", required=True, help="differentiation variable, e.g. a1")
    sp.set_defaults(func=cmd_fox)

    sp = sub.add_parser("magnus", help="abelianized Fox matrix")
    add_input(sp)
    sp.add_argument("--handlebody", action="store_true", help="g x g quotient version")
    sp.set_defaults(func=cmd_magnus)

    sp = sub.add_parser("det", help="determinant of the quotient matrix")
    add_input(sp)
    sp.set_defaults(func=cmd_det)

    sp = sub.add_parser("degree", help="filtration degree up to a bound")
    add_input(sp)
    sp.add_argument(
        "--max", type=_int_in(1, MAX_DEGREE_BOUND), default=4, help="largest degree to detect"
    )
    sp.set_defaults(func=cmd_degree)

    sp = sub.add_parser("tau", help="degree-k derivation of a class")
    add_input(sp)
    sp.add_argument("--k", type=degree, required=True)
    sp.set_defaults(func=cmd_tau)

    sp = sub.add_parser("trace", help="trace of the degree-k derivation")
    add_input(sp)
    sp.add_argument("--k", type=degree, required=True)
    sp.add_argument("--kind", choices=("morita", "lagrangian"), required=True)
    sp.set_defaults(func=cmd_trace)

    sp = sub.add_parser("basis", help="integer basis of a derivation space")
    sp.add_argument("--space", choices=("D", "G"), required=True)
    sp.add_argument("--genus", type=genus, required=True)
    sp.add_argument("--k", type=degree, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_basis)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("suite", choices=SUITES)
    sp.add_argument("--genus", type=genus, default=2)
    sp.add_argument("--seed", type=_integer, default=0)
    sp.add_argument("--count", type=_int_in(1), default=10)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except errors.LagtraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
