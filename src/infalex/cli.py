"""Command-line front end.

JSON on stdout by default (--csv for flat tables), deterministic byte-for-byte
across runs.  Exit codes: 0 success, 2 usage, 3 resource budget, 4 internal
inconsistency (an oracle mismatch, or any failure that no usage or budget
check foresaw).
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from math import comb

from . import __version__
from .alex_module import (coker_dims, coker_multiplication_action, delta3,
                          nabla, nabla_bar)
from .errors import BudgetExceededError, InternalInconsistencyError
from .fox_alex import (Character, CharacterError, GroupPresentation,
                       alexander_matrix, cv_membership, torsion_sweep,
                       twisted_h1_dim)
from .free_lie import lyndon_words, witt_dims
from .johnson import (central_z_check, decompose_wedge2_V, johnson_module_dims)
from .nilpotent_transport import (FinDimLaurentModule, FinDimSymModule,
                                  exp_transport, is_nilpotent, log_transport,
                                  annihilator_exponent_match)
from .quad_lie import LiePresentation, bb_direct

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INCONSISTENT = 4


def _emit(doc: dict, as_csv: bool):
    if not as_csv:
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
        return
    flat = _flatten(doc)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow([k for k, _v in flat])
    writer.writerow([v for _k, v in flat])


def _flatten(doc, prefix="") -> list:
    out = []
    if isinstance(doc, dict):
        for k in sorted(doc):
            out.extend(_flatten(doc[k], f"{prefix}{k}." if prefix else f"{k}."))
        return [(k.rstrip("."), v) for k, v in out] if not prefix else out
    if isinstance(doc, list):
        for i, v in enumerate(doc):
            out.extend(_flatten(v, f"{prefix}{i}."))
        return out
    return [(prefix.rstrip("."), doc)]


def _read(path: str) -> str:
    # the from_json readers parse the text and check the document's shape
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _nonnegative(flag: str, value: int) -> int:
    if value < 0:
        raise ValueError(f"{flag} must be >= 0, got {value}")
    return value


# -- subcommands -------------------------------------------------------------

def cmd_witt(args) -> dict:
    count = len(lyndon_words(args.n, args.q))
    table = witt_dims(args.n, args.q)
    if table[args.q] != count:
        raise InternalInconsistencyError("necklace count disagrees with enumeration")
    return {"n": args.n, "q": args.q, "count": count}


def cmd_chen(args) -> dict:
    _nonnegative("-q", args.q)
    closed = comb(args.q + args.n, args.q + 2) * (args.q + 1)
    computed = coker_dims(delta3(args.n), args.q)[args.q]
    return {"n": args.n, "q": args.q, "closed_form": closed,
            "computed": computed, "match": closed == computed}


def cmd_bb(args) -> dict:
    n_deg = _nonnegative("--max-degree", args.max_degree)
    p = LiePresentation.from_json(_read(args.presentation))
    if args.method == "nabla":
        dims = list(coker_dims(nabla(p), n_deg).dims)
    elif args.method == "nabla-bar":
        dims = list(coker_dims(nabla_bar(p), n_deg).dims)
    else:
        dims = [bb_direct(p, q)[0] for q in range(n_deg + 1)]
    return {"dim_v": p.dim_v, "num_relations": p.num_relations(),
            "method": args.method, "degrees": list(range(n_deg + 1)), "dims": dims}


def cmd_johnson(args) -> dict:
    _nonnegative("--max-degree", args.max_degree)
    rep = johnson_module_dims(args.genus, args.max_degree, allow_large=args.allow_large)
    return rep.to_json_dict()


def cmd_decompose(args) -> dict:
    parts = decompose_wedge2_V(args.genus, allow_large=args.allow_large)
    out = []
    for label, dim in parts:
        if isinstance(label, str):
            out.append({"part": label, "dim": dim})
        else:
            out.append({"part": "V(" + ",".join(map(str, label.coefficients)) + ")",
                        "dim": dim})
    doc = {"genus": args.genus, "parts": out, "total": sum(d["dim"] for d in out)}
    if args.central_z:
        doc["central_z"] = central_z_check(args.genus, allow_large=args.allow_large)
    return doc


def cmd_fox(args) -> dict:
    p = GroupPresentation.from_json(_read(args.presentation))
    am = alexander_matrix(p)
    entries = []
    for (r, c) in sorted(am.entries):
        poly = am.entries[(r, c)]
        entries.append({"row": r, "col": c,
                        "poly": [{"exps": list(e), "c": str(poly[e])}
                                 for e in sorted(poly)]})
    return {"generators": p.num_generators, "relators": len(p.relators),
            "alexander_matrix": entries}


def cmd_cv(args) -> dict:
    p = GroupPresentation.from_json(_read(args.presentation))
    if args.torsion is not None:
        found = torsion_sweep(p, args.torsion, args.depth,
                              budget=_nonnegative("--budget", args.budget))
        chars = [list(rho.torsion_exponents()) for rho in found]
        return {"torsion": args.torsion, "depth": args.depth,
                "members": sorted(chars)}
    if args.character is None:
        raise CharacterError("one of --character or --torsion is required")
    rho = Character.parse(args.character)
    member = cv_membership(p, rho, args.depth, restricted=args.restricted)
    return {"character": args.character, "depth": args.depth,
            "restricted": args.restricted, "member": member,
            "twisted_h1": twisted_h1_dim(p, rho)}


def cmd_nilpotence(args) -> dict:
    m = FinDimLaurentModule.from_json(_read(args.module))
    nilpotent, q = is_nilpotent(m)
    return {"dimension": m.dimension, "nilpotent": nilpotent, "exponent": q}


def cmd_oracle_check(args) -> dict:
    _nonnegative("--trials", args.trials)
    rng = random.Random(args.seed)
    failures = []
    checks = 0

    def expect(cond: bool, what: str):
        nonlocal checks
        checks += 1
        if not cond:
            failures.append(what)

    # Lyndon counts against the necklace formula
    for n in (2, 3, 4):
        for q in range(1, 7):
            expect(len(lyndon_words(n, q)) == witt_dims(n, q)[q],
                   f"witt n={n} q={q}")
    # Chen ranks: closed form against the instantiated cokernel
    for n in (2, 3, 4):
        dims = coker_dims(delta3(n), 4)
        for q in range(5):
            expect(dims[q] == comb(q + n, q + 2) * (q + 1), f"chen n={n} q={q}")
    # presentation routes agree
    for trial in range(args.trials):
        n = rng.choice([2, 2, 3, 3, 4])
        rels = []
        for _ in range(rng.randint(0, min(4, comb(n, 2)))):
            rel = {}
            for i in range(n):
                for j in range(i + 1, n):
                    c = rng.randint(-2, 2)
                    if c:
                        rel[(i, j)] = c
            if rel:
                rels.append(rel)
        p = LiePresentation.make(n, rels)
        qmax = 3 if n < 4 else 2
        a = list(coker_dims(nabla(p), qmax).dims)
        b = list(coker_dims(nabla_bar(p), qmax).dims)
        c = [bb_direct(p, q)[0] for q in range(qmax + 1)]
        expect(a == b == c, f"presentation routes trial={trial} ({a} {b} {c})")
        # transport the truncated cokernel and compare annihilator exponents
        total, mats = coker_multiplication_action(nabla(p), qmax)
        sym = FinDimSymModule.make(total, mats)
        lau = exp_transport(sym)
        match = annihilator_exponent_match(lau, a)
        expect(match.matched, f"annihilator match trial={trial}")
        back = log_transport(lau)
        expect(all(x == y for x, y in zip(back.actions, sym.actions)),
               f"log/exp round trip trial={trial}")
    doc = {"seed": args.seed, "trials": args.trials, "checks": checks,
           "failures": failures, "ok": not failures}
    return doc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="infalex",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=__version__)
    ap.add_argument("--csv", action="store_true", help="flat CSV output instead of JSON")
    # accepted after the subcommand as well; SUPPRESS keeps a value set by
    # the main parser from being clobbered by the subparser default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--csv", action="store_true", default=argparse.SUPPRESS,
                        help="flat CSV output instead of JSON")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    w = add_parser("witt", help="Lyndon word counts")
    w.add_argument("-n", type=int, required=True)
    w.add_argument("-q", type=int, required=True)
    w.set_defaults(fn=cmd_witt)

    c = add_parser("chen", help="graded ranks of the free-case invariant")
    c.add_argument("-n", type=int, required=True)
    c.add_argument("-q", type=int, required=True)
    c.set_defaults(fn=cmd_chen)

    b = add_parser("bb", help="graded dims of the invariant of a presentation")
    b.add_argument("--presentation", required=True, metavar="FILE")
    b.add_argument("--max-degree", type=int, required=True)
    b.add_argument("--method", choices=["nabla", "nabla-bar", "direct"],
                   default="nabla")
    b.set_defaults(fn=cmd_bb)

    j = add_parser("johnson", help="Johnson module dims for a genus")
    j.add_argument("--genus", type=int, required=True)
    j.add_argument("--max-degree", type=int, required=True)
    j.add_argument("--allow-large", action="store_true")
    j.set_defaults(fn=cmd_johnson)

    d = add_parser("decompose", help="decompose wedge^2 V(lambda_3)")
    d.add_argument("--genus", type=int, required=True)
    d.add_argument("--central-z", action="store_true",
                   help="also run the degree-3 centrality membership check")
    d.add_argument("--allow-large", action="store_true")
    d.set_defaults(fn=cmd_decompose)

    f = add_parser("fox", help="Alexander matrix of a group presentation")
    f.add_argument("--presentation", required=True, metavar="FILE")
    f.set_defaults(fn=cmd_fox)

    v = add_parser("cv", help="characteristic variety point tests")
    v.add_argument("--presentation", required=True, metavar="FILE")
    v.add_argument("--depth", type=int, default=1)
    v.add_argument("--character", default=None,
                   help="comma-separated values, rationals or zeta_m^j tokens")
    v.add_argument("--torsion", type=int, default=None,
                   help="sweep all characters with values in mu_m")
    v.add_argument("--restricted", action="store_true",
                   help="require the character to factor through the free part")
    v.add_argument("--budget", type=int, default=100_000)
    v.set_defaults(fn=cmd_cv)

    nl = add_parser("nilpotence", help="nilpotence test for a matrix family")
    nl.add_argument("--module", required=True, metavar="FILE")
    nl.set_defaults(fn=cmd_nilpotence)

    oc = add_parser("oracle-check", help="run the cross-validation suite")
    oc.add_argument("--seed", type=int, default=2024)
    oc.add_argument("--trials", type=int, default=12)
    oc.set_defaults(fn=cmd_oracle_check)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        doc = args.fn(args)
    except BudgetExceededError as exc:
        sys.stdout.write(json.dumps(exc.reason, sort_keys=True) + "\n")
        return EXIT_BUDGET
    except (CharacterError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:
        # an oracle mismatch, or a failure that no usage or budget check
        # foresaw: either way an inconsistency, never a traceback
        detail = str(exc) if isinstance(exc, InternalInconsistencyError) else repr(exc)
        sys.stdout.write(json.dumps({"error": "inconsistency", "detail": detail},
                                    sort_keys=True) + "\n")
        return EXIT_INCONSISTENT
    _emit(doc, args.csv)
    if args.command == "oracle-check" and not doc["ok"]:
        return EXIT_INCONSISTENT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
