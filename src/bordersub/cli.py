"""Command-line interface.

Every subcommand reads/writes the JSON formats of the library types, emits
a RunReport (stable, sorted-keys JSON; or a plain table with --format
table), and uses exit codes designed for scripting over sweeps:

    0  success / positive verdict
    1  negative verdict: infeasible, non-member, not tight, not maximal,
       or a failed reproduction check
    2  usage error (bad flags, malformed or missing files)
    3  internal invariant violation (a result failed its own re-check)

All randomized operations take an explicit --seed; nothing reads the clock.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, islice

from . import backend_name
from .errors import BordersubError, InternalError, InvalidValueError
from .monomials import Monomial, generator_family, invariant_monomials_within, is_torus_invariant
from .nullcone import ENUMERATION_CAP, enumerate_maximal_components, is_maximal_nullcone_support, nullcone_feasible
from .orbit import unit_orbit_member
from .stabilizer import (
    ACTION_KERNEL_DIM,
    cone_stabilizer_dim,
    cone_stabilizer_structure,
    orbit_cone_tangent_dim,
    qmax_dimension_bound,
    stabilizer_dim,
)
from .suite import run_suite
from .tensors import (
    Support,
    Tensor3,
    W_VARIANTS,
    build_tight_U,
    build_W,
    diagonal_support,
    sample_coefficients,
    tensor_from_support,
    unit_tensor,
)
from .tight import find_tight_witness
from .weights import TorusWeight, check_degeneration_certificate

USAGE_ERROR, VERDICT_FAIL, OK = 2, 1, 0

FAMILY_ALIASES = {
    "W": "W",
    "W'": "W'",
    "Wp": "W'",
    "W''": "W''",
    "Wpp": "W''",
    "tight-U": "tight-U",
    "plane": "plane",
    "diagonal": "diagonal",
}


def _load_json(path):
    # ValueError covers bad JSON and bytes that are not UTF-8; a deeply
    # nested array raises RecursionError
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidValueError(f"cannot read {path}: {exc}") from exc


def _write_output(args, payload):
    """Write payload to --output or stdout as stable JSON or a table.  The
    JSON encoder's chunks go out 65,536 a write, never as one string; an
    object in payload is encoded by its to_json() when the writer reaches it."""
    encoder = json.JSONEncoder(sort_keys=True, indent=2, default=lambda obj: obj.to_json())
    chunks = chain(encoder.iterencode(payload), ["\n"]) if args.format == "json" else iter([_as_table(payload)])
    batches = ("".join(batch) for batch in iter(lambda: list(islice(chunks, 65536)), []))
    if getattr(args, "output", None):
        try:
            with open(args.output, "w") as fh:
                fh.writelines(batches)
        except OSError as exc:
            raise InvalidValueError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.writelines(batches)


def _as_table(payload, indent=0):
    lines = []
    pad = "  " * indent

    def emit(key, value):
        if isinstance(value, list):
            value = [v.to_json() if hasattr(v, "to_json") else v for v in value]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_as_table(value, indent + 1).rstrip("\n"))
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            lines.append(f"{pad}{key}: [{len(value)} items]")
            for item in value:
                if isinstance(item, dict):
                    lines.append(_as_table(item, indent + 1).rstrip("\n"))
                else:
                    lines.append(f"{pad}  {item}")
        else:
            lines.append(f"{pad}{key}: {json.dumps(value, sort_keys=True)}")

    for key in sorted(payload):
        emit(key, payload[key])
    return "\n".join(lines) + "\n"


def _report(command, inputs, outputs, checks=()):
    return {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "checks": [{"name": n, "pass": p, "detail": d} for n, p, d in checks],
    }


# -- subcommand handlers -----------------------------------------------------


def cmd_gen_support(args):
    family = FAMILY_ALIASES.get(args.family)
    if family in W_VARIANTS:
        sup = build_W(args.n, family)
    elif family == "tight-U":
        sup = build_tight_U(args.n)
    elif family == "diagonal":
        sup = diagonal_support(args.n)
    elif family == "plane":
        sup = build_tight_U(args.n).union(diagonal_support(args.n))
    else:
        raise InvalidValueError(f"unknown family {args.family!r}")
    _write_output(args, sup.to_json())
    return OK


def cmd_gen_tensor(args):
    sup = Support.from_json(_load_json(args.support))
    T = tensor_from_support(sup, sample_coefficients(sup, args.seed))
    if args.add_unit:
        T = T + unit_tensor(sup.n)
    _write_output(args, T.to_json())
    return OK


def cmd_nullcone_check(args):
    sup = Support.from_json(_load_json(args.support))
    outcome = nullcone_feasible(sup)
    checks = []
    if outcome.feasible:
        cert = outcome.certificate
        ok = all(cert.weight(t) >= 1 for t in sup)
        checks.append(("certificate-weights-positive", ok, "weight >= 1 on every support triple"))
        if not ok:
            raise InternalError("returned certificate does not cover the support")
    _write_output(args, _report("nullcone check", {"support": sup.to_json()}, outcome.to_json(), checks))
    return OK if outcome.feasible else VERDICT_FAIL


def cmd_nullcone_maximal(args):
    sup = Support.from_json(_load_json(args.support))
    maximal, extendable = is_maximal_nullcone_support(sup)
    out = {"maximal": maximal, "extendable": [list(t) for t in extendable]}
    _write_output(args, _report("nullcone maximal", {"support": sup.to_json()}, out))
    return OK if maximal else VERDICT_FAIL


def cmd_nullcone_components(args):
    enum = enumerate_maximal_components(args.n, best_effort=args.best_effort)
    # enum.to_json() with each component left a Support until it is written
    out = {"n": enum.n, "complete": enum.complete, "components": list(enum.components)}
    _write_output(args, _report("nullcone components", {"n": args.n}, out))
    return OK


def cmd_invariants_list(args):
    fam = generator_family(args.n)
    out = {"count": len(fam), "monomials": [m.to_json() for m in fam]}
    _write_output(args, _report("invariants list", {"n": args.n}, out))
    return OK


def cmd_invariants_check(args):
    m = Monomial.from_json(_load_json(args.monomial))
    inv = is_torus_invariant(m)
    _write_output(args, _report("invariants check", {"monomial": m.to_json()}, {"invariant": inv}))
    return OK if inv else VERDICT_FAIL


def cmd_invariants_within(args):
    sup = Support.from_json(_load_json(args.support))
    found = invariant_monomials_within(sup, args.max_degree)
    out = {"count": len(found), "monomials": [m.to_json() for m in found]}
    _write_output(args, _report("invariants within", {"support": sup.to_json(), "max_degree": args.max_degree}, out))
    return OK


def cmd_stab_dim(args):
    T = Tensor3.from_json(_load_json(args.tensor))
    full = stabilizer_dim(T)
    value = full if args.convention == "gl3" else full - ACTION_KERNEL_DIM
    out = {"value": value, "convention": args.convention, "attempts": []}
    _write_output(args, _report("stab dim", {"tensor": T.to_json(), "convention": args.convention}, out))
    return OK


def cmd_cone_stab(args):
    quotient = cone_stabilizer_dim(args.n)
    value = quotient if args.convention == "quotient" else quotient + ACTION_KERNEL_DIM
    out = {"value": value, "convention": args.convention, "attempts": []}
    checks = []
    structure_ok = True
    if args.structure:
        rep = cone_stabilizer_structure(args.n)
        structure_ok = rep.passes
        out["structure"] = rep.to_json()
        checks.append(("structure", rep.passes, "; ".join(rep.violations) or "triangular shapes and constant traces"))
    _write_output(args, _report("cone-stab", {"n": args.n, "convention": args.convention}, out, checks))
    return OK if structure_ok else VERDICT_FAIL


def cmd_orbit_dim(args):
    rep = orbit_cone_tangent_dim(args.n, args.seed)
    out = {
        "value": rep.value,
        "convention": "quotient",
        "attempts": [{"seed": s, "value": v} for s, v in rep.attempts],
        "expected": rep.expected,
    }
    checks = [("matches-closed-form", rep.ok, f"{rep.value} vs {rep.expected}")]
    _write_output(args, _report("orbit-dim", {"n": args.n, "seed": args.seed}, out, checks))
    return OK if rep.ok else VERDICT_FAIL


def cmd_bound(args):
    out = {"value": qmax_dimension_bound(args.n), "convention": "quotient", "attempts": []}
    _write_output(args, _report("bound", {"n": args.n}, out))
    return OK


def cmd_certify(args):
    T = Tensor3.from_json(_load_json(args.tensor))
    n = T.n
    if args.certificate:
        # validate a supplied cocharacter instead of synthesizing one
        tw = TorusWeight.from_json(_load_json(args.certificate))
        verdict = check_degeneration_certificate(T, tw)
        out = verdict.to_json()
        out.pop("valid")
        out["certified"] = verdict.valid
        if verdict.valid:
            out["certificate"] = tw.to_json()
        _write_output(args, _report("certify", {"tensor": T.to_json(), "certificate": tw.to_json()}, out))
        return OK if verdict.valid else VERDICT_FAIL
    missing = [i for i in range(1, n + 1) if (i, i, i) not in T.entries]
    if missing:
        out = {
            "certified": False,
            "reason": (
                "not of the form unit-diagonal plus perturbation (diagonal "
                f"entries missing at {missing}); certificate method inapplicable, "
                "no claim about border subrank"
            ),
        }
        _write_output(args, _report("certify", {"tensor": T.to_json()}, out))
        return VERDICT_FAIL
    off = Support.of(n, [t for t in T.entries if not t[0] == t[1] == t[2]])
    outcome = nullcone_feasible(off)
    if not outcome.feasible:
        out = {
            "certified": False,
            "reason": "off-diagonal support is not in the nullcone (no destabilizing cocharacter exists)",
            "support": off.to_json(),
        }
        _write_output(args, _report("certify", {"tensor": T.to_json()}, out))
        return VERDICT_FAIL
    verdict = check_degeneration_certificate(T, outcome.certificate)
    if not verdict.valid:
        raise InternalError(f"synthesized certificate failed validation: {verdict.reason}")
    out = {
        "certified": True,
        "certificate": outcome.certificate.to_json(),
        "detail": verdict.detail,
    }
    checks = [("certificate-validates", True, "weights >= 1 on off-diagonal support, full diagonal")]
    _write_output(args, _report("certify", {"tensor": T.to_json()}, out, checks))
    return OK


def cmd_unit_orbit(args):
    T = Tensor3.from_json(_load_json(args.tensor))
    v = unit_orbit_member(T, args.seed)
    _write_output(args, _report("unit-orbit", {"tensor": T.to_json(), "seed": args.seed}, v.to_json()))
    return OK if v.verdict == "member" else VERDICT_FAIL


def cmd_tight_check(args):
    sup = Support.from_json(_load_json(args.support))
    witness = find_tight_witness(sup)
    out = {"tight": witness is not None}
    if witness is not None:
        out["witness"] = witness.to_json()
    _write_output(args, _report("tight check", {"support": sup.to_json()}, out))
    return OK if witness is not None else VERDICT_FAIL


def cmd_reproduce(args):
    checks, ok = run_suite(args.n_max)
    for name, passed, detail in checks:
        sys.stderr.write(f"{'PASS' if passed else 'FAIL'} {name}{(' -- ' + detail) if detail else ''}\n")
    out = {
        "passed": sum(1 for _, p, _ in checks if p),
        "failed": sum(1 for _, p, _ in checks if not p),
        "all_ok": ok,
    }
    _write_output(args, _report("reproduce", {"n_max": args.n_max}, out, checks))
    return OK if ok else VERDICT_FAIL


# -- parser ------------------------------------------------------------------


def _common(default_format="json"):
    """Fresh parent parser per subcommand: argparse parents share action
    objects, so a per-subcommand default must not mutate a shared one."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--format", choices=("json", "table"), default=default_format, help="output rendering")
    parent.add_argument("--output", "-o", help="write the result to a file instead of stdout")
    return parent


def build_parser():
    p = argparse.ArgumentParser(
        prog="bordersub",
        description=(
            "Exact certificates and dimension counts around maximal border "
            f"subrank of n x n x n tensors (kernel backend: {backend_name()})."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate supports and seeded tensors")
    gsub = g.add_subparsers(dest="gen_what", required=True)
    gs = gsub.add_parser("support", parents=[_common()], help="named support families")
    gs.add_argument("--n", type=int, required=True)
    gs.add_argument("--family", required=True, choices=sorted(FAMILY_ALIASES), help="W, W' (Wp), W'' (Wpp), tight-U, plane (2i=j+k), diagonal")
    gs.set_defaults(func=cmd_gen_support)
    gt = gsub.add_parser("tensor", parents=[_common()], help="random small-integer coefficients on a support")
    gt.add_argument("--support", required=True)
    gt.add_argument("--seed", type=int, required=True)
    gt.add_argument("--add-unit", action="store_true", help="add the unit tensor's diagonal")
    gt.set_defaults(func=cmd_gen_tensor)

    nl = sub.add_parser("nullcone", help="nullcone membership, maximality, component enumeration")
    nsub = nl.add_subparsers(dest="nullcone_what", required=True)
    nc = nsub.add_parser("check", parents=[_common()])
    nc.add_argument("--support", required=True)
    nc.set_defaults(func=cmd_nullcone_check)
    nm = nsub.add_parser("maximal", parents=[_common()])
    nm.add_argument("--support", required=True)
    nm.set_defaults(func=cmd_nullcone_maximal)
    ncomp = nsub.add_parser("components", parents=[_common()])
    ncomp.add_argument("--n", type=int, required=True)
    ncomp.add_argument("--best-effort", action="store_true", help=f"search beyond the completeness cap n={ENUMERATION_CAP}")
    ncomp.set_defaults(func=cmd_nullcone_components)

    inv = sub.add_parser("invariants", help="torus-invariant monomials")
    isub = inv.add_subparsers(dest="invariants_what", required=True)
    il = isub.add_parser("list", parents=[_common("table")])
    il.add_argument("--n", type=int, required=True)
    il.set_defaults(func=cmd_invariants_list)
    ic = isub.add_parser("check", parents=[_common()])
    ic.add_argument("--monomial", required=True)
    ic.set_defaults(func=cmd_invariants_check)
    iw = isub.add_parser("within", parents=[_common()])
    iw.add_argument("--support", required=True)
    iw.add_argument("--max-degree", type=int, required=True)
    iw.set_defaults(func=cmd_invariants_within)

    st = sub.add_parser("stab", help="stabilizer algebra dimensions")
    ssub = st.add_subparsers(dest="stab_what", required=True)
    sd = ssub.add_parser("dim", parents=[_common()])
    sd.add_argument("--tensor", required=True)
    sd.add_argument("--convention", choices=("gl3", "quotient"), default="gl3")
    sd.set_defaults(func=cmd_stab_dim)

    cs = sub.add_parser("cone-stab", parents=[_common()], help="stabilizer of the cone over unit tensor and W")
    cs.add_argument("--n", type=int, required=True)
    cs.add_argument("--structure", action="store_true", help="also verify triangular shapes and trace sums")
    cs.add_argument("--convention", choices=("gl3", "quotient"), default="quotient")
    cs.set_defaults(func=cmd_cone_stab)

    od = sub.add_parser("orbit-dim", parents=[_common()], help="tangent-rank dimension of the orbit of the cone")
    od.add_argument("--n", type=int, required=True)
    od.add_argument("--seed", type=int, required=True)
    od.set_defaults(func=cmd_orbit_dim)

    bd = sub.add_parser("bound", parents=[_common()], help="closed-form dimension lower bound")
    bd.add_argument("--n", type=int, required=True)
    bd.set_defaults(func=cmd_bound)

    ce = sub.add_parser("certify", parents=[_common()], help="synthesize or validate a maximal-border-subrank certificate")
    ce.add_argument("--tensor", required=True)
    ce.add_argument("--certificate", help="validate this cocharacter JSON instead of searching for one")
    ce.set_defaults(func=cmd_certify)

    uo = sub.add_parser(
        "unit-orbit",
        parents=[_common()],
        help="membership in the GL^3-orbit of the unit tensor",
        description=(
            "Membership here is equivalent to maximal subrank.  A tensor of "
            "maximal *border* subrank can still be a non-member: degeneration "
            "is weaker than restriction, and that gap is exactly what the "
            "degeneration certificates of `certify` exploit."
        ),
    )
    uo.add_argument("--tensor", required=True)
    uo.add_argument("--seed", type=int, required=True)
    uo.set_defaults(func=cmd_unit_orbit)

    tg = sub.add_parser("tight", help="tight-support decisions and witnesses")
    tsub = tg.add_subparsers(dest="tight_what", required=True)
    tc = tsub.add_parser("check", parents=[_common()])
    tc.add_argument("--support", required=True)
    tc.set_defaults(func=cmd_tight_check)

    rp = sub.add_parser("reproduce", parents=[_common()], help="run the built-in verification suite")
    rp.add_argument("--n-max", type=int, required=True, help="largest format (1..5)")
    rp.set_defaults(func=cmd_reproduce)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3
    except BordersubError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
