"""Command-line front end.

Subcommands: check, betti, cartan, annih-compare, extend, deform.
Exit codes: 0 ok, 1 computation warning (unstable truncation), 2 spec/axiom
failure (including non-cocycle input), 3 parse failure (including a negative
count such as --qmax -1, a malformed builtin spec such as ca:abc, and
remark81 cocycles without an mu: module).
Output is deterministic byte-for-byte for a fixed seed and spec.

Builtin algebras: vir, cur:sl2, cur:sl3, cur:abelian:<n> (n >= 1).
Builtin modules: trivial, ca:<a>, mda:<Delta>,<alpha>, mu:adjoint,
mu:V<m> / mu:V(<m>) (sl2 irreducibles), mu:trivial, mu:wedge2modg (sl3);
the mu: modules live over cur:sl2 and cur:sl3.

Inline spec files are JSON with the polynomial grammar of the library::

    {
      "algebra": {
        "generators": ["L"],
        "brackets": {"L,L": {"L": "d + 2*lam1"}},
        "associative": false,
        "del_scalars": {}
      },
      "module": {
        "kind": "free",
        "basis": ["v"],
        "actions": {"L": [["d + alpha + lam1"]]},
        "del_scalar": "0"
      }
    }

Generator and basis names are distinct non-empty strings.  Bracket keys
are "gen,gen"; missing entries are zero.  Free-module actions give one
row-major matrix (a list of lists) of polynomials per generator; scalar
modules give "del_scalar" and no actions.  Entries are polynomials in lam1,
d and named parameters (lam2 and above are a parse failure); ``check``
accepts named parameters, ``betti`` and ``deform`` refuse them (exit 2).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from itertools import combinations_with_replacement

from .algebra import (
    ConformalAlgebra,
    ConformalModule,
    adjoint_module,
    build_current,
    build_m_delta_alpha,
    build_m_u,
    build_trivial,
    build_vir,
    check_associativity,
    check_jacobi,
    check_module,
    check_skew_symmetry,
)
from .annihilation import ce_differential_eval, phi_eval
from .calculus import contract_lambda, lie_theta
from .cochain import (
    BASIC,
    REDUCED,
    cochain_from_obj,
    d_basic,
    lam_count,
    name_index,
    random_skew_cochain,
)
from .engine import ComplexSpec, truncation_sweep, verify_cocycle
from .errors import ConfcohError, NotACocycle, ParseError
from .extensions import deform, extend_algebra
from .liealg import (
    abelian,
    adjoint_rep,
    equivariant_maps,
    quotient_rep,
    sl2,
    sl2_irrep,
    sl3,
    sym_power_rep,
    trivial_rep,
    wedge2_rep,
)
from .poly import DEL, RatPoly, lam, parse_poly

EXIT_OK = 0
EXIT_WARNING = 1
EXIT_AXIOM = 2
EXIT_PARSE = 3


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


def _rational(text, spec):
    """A rational number from a module or algebra spec, or a ParseError."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{text!r} is not a rational number in {spec!r}") \
            from None


def _count(text, spec):
    """A positive integer from a spec, or a ParseError."""
    if not text.isdigit() or int(text) == 0:
        raise ParseError(f"{text!r} is not a positive integer in {spec!r}")
    return int(text)


# the Lie presentations of the builtin current algebras with M_U modules
_CURRENT_LIE = {"cur:sl2": sl2, "cur:sl3": sl3}


def parse_algebra(text):
    """(algebra, name, g): g is the Lie presentation of cur:sl2 and cur:sl3,
    which their mu: modules are built on, and None for the others."""
    if text == "vir":
        return build_vir(), "vir", None
    if text in _CURRENT_LIE:
        g = _CURRENT_LIE[text]()
        return build_current(g), text, g
    if text.startswith("cur:abelian:"):
        return build_current(abelian(_count(text[12:], text))), text, None
    raise ParseError(f"unknown algebra spec {text!r}")


def parse_module(text, algebra_name, g):
    """(module, reps): for an mu: module, reps maps "U" to the representation
    of g it is built on, and "ad" and "wedge2" to the adjoint and its
    (exterior square, pairs) when building U made them; None for the others."""
    if text == "trivial":
        return build_trivial(1, 0), None
    if text.startswith("ca:"):
        return build_trivial(1, _rational(text[3:], text)), None
    if text.startswith("mda:"):
        if algebra_name != "vir":
            raise ParseError("mda modules live over vir")
        parts = text[4:].split(",")
        if len(parts) != 2:
            raise ParseError(f"mda modules take <Delta>,<alpha>, got {text!r}")
        return build_m_delta_alpha(*(_rational(x, text) for x in parts)), None
    if text.startswith("mu:"):
        if g is None:
            raise ParseError("mu modules live over cur:sl2 and cur:sl3")
        name = text[3:]
        if name == "adjoint":
            ad = adjoint_rep(g)
            reps = {"U": ad, "ad": ad}
        elif name == "trivial":
            reps = {"U": trivial_rep(g)}
        elif name.startswith("V"):
            digits = name[1:].strip("()")
            if algebra_name != "cur:sl2":
                raise ParseError("V(m) irreducibles are the sl2 modules")
            if not digits.isdigit():
                raise ParseError(f"V(m) needs a non-negative integer m, got {text!r}")
            reps = {"U": sl2_irrep(g, int(digits))}
        elif name == "wedge2modg":
            if algebra_name != "cur:sl3":
                raise ParseError("wedge2modg is the sl3 module")
            reps = _wedge2_mod_g(g)
        else:
            raise ParseError(f"unknown module spec {text!r}")
        return build_m_u(g, reps["U"]), reps
    raise ParseError(f"unknown module spec {text!r}")


def _wedge2_mod_g(g):
    """The reps of parse_module for wedge^2 g / g."""
    ad = adjoint_rep(g)
    w2, pairs = wedge2_rep(ad)
    embed = equivariant_maps(ad, w2)[0]
    sub = [[embed[r][c] for r in range(w2.dim)] for c in range(g.dim)]
    quot, _, _ = quotient_rep(w2, sub)
    return {"U": quot, "ad": ad, "wedge2": (w2, pairs)}


def load_spec_file(path):
    """(algebra, module) of a spec file; None for a missing section."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path} is not valid JSON: {exc}") from None
    try:
        return _spec_from_obj(obj, path)
    except (KeyError, TypeError, AttributeError) as exc:
        # a missing key, or a value of the wrong JSON type
        raise ParseError(
            f"malformed spec file {path}: {type(exc).__name__}: {exc}"
        ) from None


def _names(values, what, path):
    """A non-empty tuple of distinct non-empty strings, or a ParseError naming
    the file: a repeated name would resolve every use to its first one."""
    names = tuple(values)
    if not names:
        raise ParseError(f"spec file {path} lists no {what}")
    for name in names:
        if not isinstance(name, str) or not name:
            raise ParseError(f"spec file {path} has the {what[:-1]} {name!r}, "
                             "not a non-empty string")
        if names.count(name) > 1:
            raise ParseError(f"spec file {path} repeats the {what[:-1]} "
                             f"{name!r}")
    return names


def _entry(text, where, path):
    """A bracket or action entry: a polynomial in lam1, d and parameters."""
    poly = parse_poly(text)
    if lam_count([poly]) > 1:
        raise ParseError(f"{where} in spec file {path} uses lam"
                         f"{lam_count([poly])}; entries are in lam1 and d")
    return poly


def _spec_from_obj(obj, path):
    algebra = None
    module = None
    if "algebra" in obj:
        spec = obj["algebra"]
        names = _names(spec["generators"], "generators", path)
        n = len(names)
        zero = RatPoly.zero()
        entries = [[[zero] * n for _ in range(n)] for _ in range(n)]
        for key, comps in spec.get("brackets", {}).items():
            pair = [s.strip() for s in key.split(",")]
            if len(pair) != 2:
                raise ParseError(f"bracket key {key!r} is not 'gen,gen'")
            i, j = (name_index(names, s, f"bracket key {key!r}") for s in pair)
            for out_name, text in comps.items():
                k = name_index(names, out_name, f"bracket {key!r}")
                entries[i][j][k] = _entry(text, f"bracket {key!r}", path)
        scalars = [None] * n
        for name, val in spec.get("del_scalars", {}).items():
            scalars[name_index(names, name, "del_scalars")] = \
                _rational(val, path)
        algebra = ConformalAlgebra(
            names,
            [[tuple(entries[i][j]) for j in range(n)] for i in range(n)],
            del_scalars=tuple(scalars),
            associative=bool(spec.get("associative", False)),
        )
    if "module" in obj:
        spec = obj["module"]
        basis = _names(spec.get("basis", ("v",)), "basis names", path)
        if spec.get("kind", "free") == "scalar":
            module = ConformalModule(
                "scalar", len(basis),
                del_scalar=_rational(spec.get("del_scalar", 0), path),
                basis_names=basis,
            )
        else:
            if algebra is None:
                raise ParseError("spec file has no algebra section")
            dim = len(basis)
            actions = spec["actions"]
            for name in actions:
                name_index(algebra.gen_names, name, "actions")
            action = []
            for name in algebra.gen_names:
                rows = actions.get(name)
                if rows is None:
                    action.append([[RatPoly.zero()] * dim for _ in range(dim)])
                elif (not isinstance(rows, list) or len(rows) != dim
                      or any(not isinstance(row, list) or len(row) != dim
                             for row in rows)):
                    raise ParseError(
                        f"the action of {name!r} is not a {dim}x{dim} matrix"
                    )
                else:
                    action.append([[_entry(x, f"the action of {name!r}", path)
                                     for x in row] for row in rows])
            module = ConformalModule("free", dim, action=action, basis_names=basis)
    return algebra, module


def _resolve(args):
    """(algebra, module, name, reps); reps as in parse_module."""
    reps = None
    if getattr(args, "spec_file", None):
        algebra, module = load_spec_file(args.spec_file)
        name = args.spec_file
        if algebra is None:
            raise ParseError("spec file has no algebra section")
        if module is None and getattr(args, "module", None):
            module, reps = parse_module(args.module, name, None)
        return algebra, module, name, reps
    algebra, name, g = parse_algebra(args.algebra)
    module = None
    if getattr(args, "module", None):
        module, reps = parse_module(args.module, name, g)
    return algebra, module, name, reps


# -- subcommands -------------------------------------------------------------


def cmd_check(args):
    algebra, module, name, _ = _resolve(args)
    report = {"algebra": name}
    if algebra.associative:
        ok, witness = check_associativity(algebra)
        report["associativity"] = ok
    else:
        ok, witness = check_skew_symmetry(algebra)
        report["skew_symmetry"] = ok
        if ok:
            ok, witness = check_jacobi(algebra)
            report["jacobi"] = ok
    if not ok:
        print(json.dumps(report))
        idx = ", ".join(str(x) for x in witness[:-1])
        print(f"failing identity at ({idx}): residual {witness[-1]}")
        return EXIT_AXIOM
    if module is not None:
        mok, witness = check_module(algebra, module)
        report["module"] = mok
        if not mok:
            print(json.dumps(report))
            print(f"module identity fails at {witness[:-1]}: residual {witness[-1]}")
            return EXIT_AXIOM
    print(json.dumps(report))
    return EXIT_OK


def cmd_betti(args):
    algebra, module, name, _ = _resolve(args)
    if module is None:
        return _fail(EXIT_PARSE, "betti needs --module")
    variant = REDUCED if args.variant == "reduced" else BASIC
    spec = ComplexSpec(algebra, module, variant, label=f"{name}/{args.module}")
    if args.bound is not None:
        bound = args.bound
    elif args.module and args.module.startswith(("trivial", "mu:")):
        bound = 8  # graded cases split by bidegree
    else:
        bound = 10  # filtered cases sweep 10/11/12
    table = truncation_sweep(spec, args.qmax, bound,
                             representatives=args.representatives)
    if args.format == "csv":
        print(table.to_csv())
    elif args.format == "json":
        print(table.to_json())
    else:
        print(table.to_text())
    if any(not row.stabilized for row in table.rows):
        print("warning: at least one row did not stabilize across "
              f"bounds {bound}/{bound + 1}/{bound + 2}", file=sys.stderr)
        return EXIT_WARNING
    return EXIT_OK


def cmd_cartan(args):
    algebra, module, name, _ = _resolve(args)
    if module is None:
        module = build_trivial(1, 0)
    rng = random.Random(args.seed)
    checked = 0
    for q in range(1, args.qmax + 1):
        for _ in range(args.trials):
            gamma = random_skew_cochain(
                algebra, module, q, args.degmax, rng,
                max_del=1 if module.is_free() else 0,
            )
            dg = d_basic(gamma)
            for i in range(algebra.ngens):
                a = tuple(
                    RatPoly.const(1 if k == i else 0)
                    for k in range(algebra.ngens)
                )
                lhs = (d_basic(contract_lambda(a, gamma))
                       + contract_lambda(a, dg))
                theta = lie_theta(a, gamma)
                if lhs != theta:
                    print(json.dumps({"identity": "cartan", "ok": False,
                                      "q": q, "generator": i}))
                    return EXIT_AXIOM
                if d_basic(theta) != lie_theta(a, dg):
                    print(json.dumps({"identity": "d-theta", "ok": False,
                                      "q": q, "generator": i}))
                    return EXIT_AXIOM
                checked += 1
    print(json.dumps({"identity": "cartan", "ok": True, "checked": checked,
                      "algebra": name, "seed": args.seed}))
    return EXIT_OK


def cmd_annih_compare(args):
    algebra, module, name, _ = _resolve(args)
    if module is None:
        module = build_trivial(1, 0)
    rng = random.Random(args.seed)
    tuples_checked = 0
    for q in range(0, args.qmax + 1):
        for _ in range(args.trials):
            gamma = random_skew_cochain(
                algebra, module, q, 3, rng,
                max_del=1 if module.is_free() else 0,
            )
            dg = d_basic(gamma)
            pair_pool = [
                (g, m)
                for g in range(algebra.ngens)
                for m in range(args.levels + 1)
            ]
            for pairs in combinations_with_replacement(pair_pool, q + 1):
                gens = tuple(p[0] for p in pairs)
                levels = tuple(p[1] for p in pairs)
                lhs = phi_eval(dg, gens, levels)
                rhs = ce_differential_eval(gamma, gens, levels)
                if lhs != rhs:
                    print(json.dumps({"identity": "annihilation-transport",
                                      "ok": False, "q": q, "gens": gens,
                                      "levels": levels}))
                    return EXIT_AXIOM
                tuples_checked += 1
    print(json.dumps({"identity": "annihilation-transport", "ok": True,
                      "tuples": tuples_checked, "algebra": name,
                      "seed": args.seed}))
    return EXIT_OK


def _remark81_datum(algebra_name, module, reps):
    """The abelian-extension cocycles of current algebras, as a datum table;
    reps as in parse_module, whose adjoint and exterior square are reused."""
    if algebra_name not in _CURRENT_LIE:
        raise ParseError("remark81 cocycles are defined for cur:sl2 and cur:sl3")
    if reps is None:
        raise ParseError("remark81 cocycles take an mu: module")
    rep = reps["U"]
    g = rep.algebra
    ad = reps["ad"] if "ad" in reps else adjoint_rep(g)
    d = RatPoly.var(DEL)
    l1 = RatPoly.var(lam(1))
    if algebra_name == "cur:sl2":
        sym2, basis = sym_power_rep(ad, 2)
        maps = equivariant_maps(sym2, rep)
        if not maps:
            raise NotACocycle("no equivariant Sym^2 -> U map exists")
        phi = maps[0]
        idx = {b: k for k, b in enumerate(basis)}
        poly = l1 * (d + l1) * (d + 2 * l1)
        return {
            (i, j): tuple(
                poly * phi[r][idx[tuple(sorted((i, j)))]]
                for r in range(module.dim)
            )
            for i in range(3)
            for j in range(3)
        }
    w2, pairs = reps["wedge2"] if "wedge2" in reps else wedge2_rep(ad)
    maps = equivariant_maps(w2, rep)
    if not maps:
        raise NotACocycle("no equivariant wedge^2 g -> U map exists")
    phi = maps[0]
    index = {p: k for k, p in enumerate(pairs)}
    poly = l1 * (d + l1)
    datum = {}
    for i in range(g.dim):
        for j in range(g.dim):
            if i == j:
                datum[(i, j)] = tuple(RatPoly.zero() for _ in range(module.dim))
                continue
            a, b = min(i, j), max(i, j)
            sign = 1 if i < j else -1
            col = index[(a, b)]
            datum[(i, j)] = tuple(
                sign * poly * phi[r][col] for r in range(module.dim)
            )
    return datum


def _read_cocycle(path, algebra, module):
    """The reduced 2-cochain of a cochain file, or a ParseError."""
    with open(path) as fh:
        try:
            cochain = cochain_from_obj(algebra, module, json.load(fh))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            # invalid JSON, a missing key, a non-integer degree, unsorted
            # skew args, a value that is not an object
            raise ParseError(f"malformed cochain file {path}: {exc}") from None
    if cochain.variant != REDUCED or cochain.q != 2:
        raise ParseError(
            f"{path} holds a {cochain.variant} {cochain.q}-cochain, "
            "not a reduced 2-cochain"
        )
    return cochain


def cmd_extend(args):
    algebra, module, name, reps = _resolve(args)
    if module is None:
        return _fail(EXIT_PARSE, "extend needs --module")
    if args.cocycle == "remark81":
        datum = _remark81_datum(name, module, reps)
    else:
        datum = _read_cocycle(args.cocycle, algebra, module)
    try:
        extend_algebra(algebra, module, datum)
    except NotACocycle as exc:
        print(json.dumps({"extension": "invalid", "witness": str(exc.witness)}))
        return EXIT_AXIOM
    print(json.dumps({"extension": "valid", "algebra": name,
                      "module": args.module}))
    return EXIT_OK


def cmd_deform(args):
    algebra, module, name, _ = _resolve(args)
    adjoint = adjoint_module(algebra)
    if args.cocycle:
        defo = deform(algebra, _read_cocycle(args.cocycle, algebra, adjoint))
        ok, witness = defo.check_jacobi_mod_eps2()
        print(json.dumps({"deformation": "valid" if ok else "invalid"}))
        return EXIT_OK if ok else EXIT_AXIOM
    rng = random.Random(args.seed)
    spec = ComplexSpec(algebra, adjoint, REDUCED, label=name)
    agreements = 0
    for _ in range(args.trials):
        gamma = random_skew_cochain(algebra, adjoint, 2, args.degmax, rng,
                                    variant=REDUCED)
        is_cocycle = verify_cocycle(spec, gamma).is_cocycle
        defo_ok = deform(algebra, gamma).check_jacobi_mod_eps2()[0]
        if is_cocycle != defo_ok:
            print(json.dumps({"deformation-roundtrip": False}))
            return EXIT_AXIOM
        agreements += 1
    print(json.dumps({"deformation-roundtrip": True, "trials": agreements,
                      "seed": args.seed}))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="confcoh",
        description="Exact cohomology of Lie conformal algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, module_required=False):
        p.add_argument("--algebra", help="vir | cur:sl2 | cur:sl3 | cur:abelian:n")
        p.add_argument("--module", help="trivial | ca:a | mda:D,a | mu:name")
        p.add_argument("--spec-file", help="inline JSON algebra/module spec")

    p = sub.add_parser("check", help="run the axiom checkers")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("betti", help="cohomology dimensions and representatives")
    common(p)
    p.add_argument("--variant", choices=("reduced", "basic"), default="reduced")
    p.add_argument("--qmax", type=int, default=3)
    p.add_argument("--bound", type=int, default=None,
                   help="sweep bound D (default 8 graded / 10 filtered)")
    p.add_argument("--representatives", action="store_true")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("cartan", help="contraction/action identity suite")
    common(p)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--qmax", type=int, default=2)
    p.add_argument("--degmax", type=int, default=3)
    p.set_defaults(fn=cmd_cartan)

    p = sub.add_parser("annih-compare",
                       help="transport to the annihilation-algebra complex")
    common(p)
    p.add_argument("--qmax", type=int, default=2)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_annih_compare)

    p = sub.add_parser("extend", help="build an abelian extension from a cocycle")
    common(p)
    p.add_argument("--cocycle", required=True,
                   help="'remark81' or a serialized cochain file")
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("deform", help="first-order deformation round-trips")
    common(p)
    p.add_argument("--cocycle", help="serialized 2-cochain with adjoint values")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--degmax", type=int, default=3)
    p.set_defaults(fn=cmd_deform)
    return parser


# options that count something; a negative value is a parse failure
_COUNT_OPTIONS = ("qmax", "bound", "trials", "levels", "degmax")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in _COUNT_OPTIONS:
        value = getattr(args, name, None)
        if value is not None and value < 0:
            return _fail(EXIT_PARSE, f"--{name} must be >= 0, got {value}")
    try:
        return args.fn(args)
    except ParseError as exc:
        return _fail(EXIT_PARSE, str(exc))
    except FileNotFoundError as exc:
        return _fail(EXIT_PARSE, str(exc))
    except ConfcohError as exc:
        return _fail(EXIT_AXIOM, str(exc))


if __name__ == "__main__":
    sys.exit(main())
