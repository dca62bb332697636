"""Command-line surface: construct algebras, verify axioms, classify
quasitriangular structures, and reproduce the full classification summary at
a chosen pair of odd primes.

Exit codes: 0 success, 1 a check failed (verify: an axiom fails; classify-qt:
a cross-check fails, "oracle_equivalent": false; reproduce: a claim fails),
2 parameter error, 3 I/O or format error.  Reports are deterministic given
the same configuration, except for the elapsed_ms field.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from importlib import resources

from .exactfield import CycloNumber
from .grouptool import (ParameterError, abelian_decomposition, build_group, is_prime,
                        lambda_set)
from .hopfcore import (
    FormatError,
    antipode_diagnostics,
    dump_structure,
    group_algebra,
    load_structure,
    verify_hopf_axioms,
)
from .bismash import build_bismash, dualize_trivial_action, make_A, make_B
from . import qtlab

GROUP_FAMILIES = ("beta1", "beta2", "beta3", "beta4", "beta5", "beta6",
                  "beta7", "gamma1", "gamma2", "gamma3", "gamma4", "gamma5",
                  "gamma6")


# ---------------------------------------------------------------------------
# minimal JSON-schema validation (type / required / properties / items)


def load_schema(name: str) -> dict:
    with resources.files("hopfqt.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def validate_json(obj, schema, path="$"):
    t = schema.get("type")
    checks = {"object": dict, "array": list, "string": str,
              "boolean": bool, "integer": int, "number": (int, float)}
    if t is not None:
        pytype = checks[t]
        if t == "integer" and isinstance(obj, bool):
            raise ValueError(f"{path}: expected integer, got bool")
        if not isinstance(obj, pytype):
            raise ValueError(f"{path}: expected {t}, got {type(obj).__name__}")
    if t == "object":
        for key in schema.get("required", ()):
            if key not in obj:
                raise ValueError(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in obj:
                validate_json(obj[key], sub, f"{path}.{key}")
    if t == "array" and "items" in schema:
        for i, item in enumerate(obj):
            validate_json(item, schema["items"], f"{path}[{i}]")
    return True


# ---------------------------------------------------------------------------
# parameter resolution


def _smallest_order_element(modulus, exponent):
    """Smallest residue of multiplicative order exactly `exponent` mod
    `modulus`, or None."""
    for m in range(2, modulus):
        if pow(m, exponent, modulus) == 1:
            order = 1
            x = m
            while x != 1:
                x = x * m % modulus
                order += 1
            if order == exponent:
                return m
    return None


def _resolve_family_params(args):
    p, q = args.p, args.q
    params = {"p": p, "q": q}
    fam = args.family
    if fam == "A":
        t = args.t if args.t is not None else _smallest_order_element(p, q)
        if t is None:
            raise ParameterError(f"no residue of order {q} mod {p}")
        params["t"] = t
        params["l"] = args.l or 0
    elif fam in ("B", "Bdual"):
        m = args.m if args.m is not None else _smallest_order_element(q, p)
        if m is None:
            raise ParameterError(f"no residue of order {p} mod {q}")
        params["m"] = m
        params["lam"] = args.lam or 0
    elif fam in ("beta3", "gamma4"):
        mod = q * q if fam == "beta3" else p
        expo = p if fam == "beta3" else q * q
        if fam == "gamma4":
            m = args.m if args.m is not None else next(
                (x for x in range(2, p)
                 if pow(x, q * q, p) == 1 and pow(x, q, p) != 1), None)
        else:
            m = args.m if args.m is not None else _smallest_order_element(mod, expo)
        if m is None:
            raise ParameterError(f"no valid parameter m for {fam} at p={p}, q={q}")
        params["m"] = m
    elif fam in ("beta4", "beta5", "beta6", "gamma3", "gamma5", "gamma6"):
        mod, expo = (q, p) if fam.startswith("beta") else (p, q)
        m = args.m if args.m is not None else _smallest_order_element(mod, expo)
        if m is None:
            raise ParameterError(f"no valid parameter m for {fam} at p={p}, q={q}")
        params["m"] = m
        if fam in ("beta6", "gamma6"):
            n = args.n
            if n is None:
                n = next((x for x in range(m + 1, mod)
                          if pow(x, expo, mod) == 1 and x != 1
                          and (x - m) % mod), None)
            if n is None:
                raise ParameterError(f"no valid parameter n for {fam}")
            params["n"] = n
    elif fam == "beta7":
        if args.m is not None:
            params["m"] = args.m
        if args.n is not None:
            params["n"] = args.n
    return params


def _construct(args):
    params = _resolve_family_params(args)
    fam = args.family
    if fam == "A":
        H = build_bismash(make_A(params["p"], params["q"], params["t"], params["l"]))
    elif fam == "B":
        H = build_bismash(make_B(params["p"], params["q"], params["m"], params["lam"]))
    elif fam == "Bdual":
        H = build_bismash(dualize_trivial_action(
            make_B(params["p"], params["q"], params["m"], params["lam"])))
    elif fam in GROUP_FAMILIES:
        G = build_group(fam, **{k: v for k, v in params.items()
                                if k in ("p", "q", "m", "n", "t")})
        conductor = 1
        H = group_algebra(G, conductor)
        params.update(getattr(G, "params", {}))
    else:
        raise ParameterError(f"unknown family {fam!r}")
    return H, params


# ---------------------------------------------------------------------------
# commands


def cmd_construct(args) -> int:
    H, params = _construct(args)
    text = dump_structure(H)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    resolved = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    print(f"dim {H.dim} conductor {H.conductor} [{resolved}]", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    try:
        with open(args.infile, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read dump: {exc}", file=sys.stderr)
        return 3
    except UnicodeDecodeError as exc:
        raise FormatError(f"dump is not UTF-8 text: {exc}") from exc
    H = load_structure(text)
    rep = verify_hopf_axioms(H)
    diag = antipode_diagnostics(H)
    axioms = []
    for name in rep.checked:
        failures = rep.failures.get(name, [])
        axioms.append({"name": name, "passed": not failures,
                       "failures": len(failures)})
    doc = {
        "axioms": axioms,
        "trace_S2": repr(diag.trace_s2),
        "semisimple": diag.semisimple,
        "S2_is_id": diag.s2_is_id,
        "S4_is_id": diag.s4_is_id,
        "dim": H.dim,
        "conductor": H.conductor,
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }
    validate_json(doc, load_schema("verify.schema.json"))
    _emit(doc, args)
    return 0 if rep.passed else 1


def _cyclo_field(c: CycloNumber):
    den, nums = c.serial()
    return {"conductor": c.conductor, "num": nums, "den": den}


def _classify_A(H, p, q, l):
    forms = qtlab.braiding_A_search(H)
    structures = []
    for f in forms:
        g0, g1, lam = f.params
        structures.append({
            "kind": "braiding",
            "g0": f.host.mp.G.label(g0),
            "g1": f.host.mp.G.label(g1),
            "lambda": _cyclo_field(lam),
        })
    if l == 0:
        expected = [qtlab.braiding_A0_construct(H, k) for k in range(q)]
        equiv = (len(forms) == q
                 and all(any(f.values == g.values for g in expected)
                         for f in forms))
        claim = f"the sigma-twisted algebra with index 0 at (p,q)=({p},{q}) admits exactly q={q} braiding structures"
    else:
        equiv = not forms
        claim = f"the sigma-twisted algebra with index {l} at (p,q)=({p},{q}) admits no braiding structure"
    return claim, len(forms), structures, equiv


def _classify_B(res, p, q, lam):
    structures = [{"kind": "r-matrix", "bicharacter": [list(r) for r in w.key()]}
                  for w, _ in res]
    claim = (f"quasitriangular structures on the tau-twisted algebra with "
             f"index {lam} at (p,q)=({p},{q}) are classified by four "
             f"generator conditions")
    return claim, len(res), structures, res.oracle_equivalent


def _classify_Bdual(p, q, m, lam):
    rep = qtlab.no_qt_B_dual(p, q, m, lam)
    structures = [{"kind": "no-go", "branch": rep.branch,
                   "candidates_checked": rep.candidates_checked,
                   "nullspace_dim": rep.nullspace_dim,
                   "note": rep.note}]
    claim = (f"the dual of the tau-twisted algebra with index {lam} at "
             f"(p,q)=({p},{q}) admits no quasitriangular structure on the "
             f"group-like support")
    return claim, 0, structures, rep.no_qt_on_support


def _classify_group(fam, params):
    G = build_group(fam, **params)
    res = qtlab.qt_group_algebra_enumerate(G)
    structures = [{"kind": "r-matrix", "bicharacter": [list(r) for r in w.key()]}
                  for w, _ in res]
    claim = (f"quasitriangular structures on the group algebra {fam} at "
             f"(p,q)=({params.get('p')},{params.get('q')}) are the "
             f"conjugation-invariant bicharacters on the largest abelian "
             f"normal subgroup")
    return claim, len(res), structures, res.oracle_equivalent


def cmd_classify_qt(args) -> int:
    t0 = time.monotonic()
    params = _resolve_family_params(args)
    fam = args.family
    if fam == "A":
        H = build_bismash(make_A(params["p"], params["q"], params["t"], params["l"]))
        claim, count, structures, equiv = _classify_A(
            H, params["p"], params["q"], params["l"])
    elif fam == "B":
        res = qtlab.qt_B_enumerate(params["p"], params["q"], params["m"], params["lam"])
        claim, count, structures, equiv = _classify_B(
            res, params["p"], params["q"], params["lam"])
    elif fam == "Bdual":
        claim, count, structures, equiv = _classify_Bdual(
            params["p"], params["q"], params["m"], params["lam"])
    elif fam in GROUP_FAMILIES:
        claim, count, structures, equiv = _classify_group(
            fam, {k: v for k, v in params.items() if k in ("p", "q", "m", "n")})
    else:
        raise ParameterError(f"unknown family {fam!r}")
    doc = {
        "claim": claim,
        "parameters": {k: v for k, v in sorted(params.items())},
        "count": count,
        "structures": structures,
        "oracle_equivalent": equiv,
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }
    validate_json(doc, load_schema("report.schema.json"))
    _emit(doc, args)
    return 0 if equiv else 1


def _abelian_bicharacter_count(orders):
    return math.prod(math.gcd(a, b) for a in orders for b in orders)


def cmd_reproduce(args) -> int:
    t0 = time.monotonic()
    p, q = args.p, args.q
    for x in (p, q):
        if x < 3 or not is_prime(x):
            raise ParameterError("p and q must be odd primes")
    if p == q:
        raise ParameterError("p and q must be distinct")
    claims = []

    def add(claim, passed, count=None, extra=None):
        entry = {"claim": claim, "passed": bool(passed)}
        if count is not None:
            entry["count"] = count
        if extra:
            entry.update(extra)
        claims.append(entry)

    # twisted families
    if (p - 1) % q == 0:
        t = _smallest_order_element(p, q)
        for l in range(q):
            H = build_bismash(make_A(p, q, t, l))
            rep = verify_hopf_axioms(H)
            diag = antipode_diagnostics(H)
            add(f"sigma-twisted algebra index {l}: all axioms hold, "
                f"trace(S^2) = dim = {H.dim}",
                rep.passed and diag.s2_is_id and diag.trace_s2 == H.dim)
            claim, count, _, equiv = _classify_A(H, p, q, l)
            expected = q if l == 0 else 0
            add(claim, equiv and count == expected, count)
    else:
        add(f"no sigma-twisted families: p != 1 (mod q) at (p,q)=({p},{q})", True)

    if (q - 1) % p == 0:
        m = _smallest_order_element(q, p)
        lams = [0] + lambda_set(p)
        for lam in lams:
            res = qtlab.qt_B_enumerate(p, q, m, lam)
            H = res.host
            rep = verify_hopf_axioms(H)
            diag = antipode_diagnostics(H)
            add(f"tau-twisted algebra index {lam}: all axioms hold, "
                f"trace(S^2) = dim = {H.dim}",
                rep.passed and diag.s2_is_id and diag.trace_s2 == H.dim)
            claim, count, _, equiv = _classify_B(res, p, q, lam)
            add(claim, equiv and count >= 1, count)
            claim, _, _, ok = _classify_Bdual(p, q, m, lam)
            add(claim, ok, 0)
    else:
        add(f"no tau-twisted families: q != 1 (mod p) at (p,q)=({p},{q})", True)

    # group algebras; q is the squared prime
    def resolved(fam):
        return fam, _resolve_family_params(
            argparse.Namespace(family=fam, p=p, q=q, m=None, n=None))

    if q > p:
        fams = [resolved("beta1"), resolved("beta2")]
        try:
            fams.append(resolved("beta3"))
        except ParameterError:
            add(f"beta3 does not exist at (p,q)=({p},{q}): no residue of "
                f"order {p} mod {q * q}", True)
        if (q - 1) % p == 0:
            fams += map(resolved, ["beta4", "beta5", "beta6"])
        if (q + 1) % p == 0:
            fams.append(resolved("beta7"))
    else:
        fams = [resolved("gamma1"), resolved("gamma2")]
        if (p - 1) % q == 0:
            fams += map(resolved, ["gamma3", "gamma5", "gamma6"])
        if (p - 1) % (q * q) == 0:
            fams.append(resolved("gamma4"))

    for fam, params in fams:
        G = build_group(fam, **params)
        if G.is_abelian():
            K = abelian_decomposition(G, range(G.order))
            count = _abelian_bicharacter_count(K.orders)
            add(f"group algebra {fam}: quasitriangular structures are all "
                f"{count} bicharacters", True, count)
        else:
            res = qtlab.qt_group_algebra_enumerate(G)
            trivial = any(w.is_trivial() for w, _ in res)
            add(f"group algebra {fam}: conjugation-invariant bicharacters, "
                f"closed-form conditions and the full verifier agree",
                res.oracle_equivalent and trivial, len(res))

    doc = {
        "claim": (f"classification of quasitriangular structures on "
                  f"non-simple Hopf algebras of dimension {p * q * q} "
                  f"at (p,q)=({p},{q})"),
        "parameters": {"p": p, "q": q},
        "count": len(claims),
        "structures": claims,
        "oracle_equivalent": all(c["passed"] for c in claims),
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }
    validate_json(doc, load_schema("report.schema.json"))
    _emit(doc, args)
    return 0 if doc["oracle_equivalent"] else 1


def _emit(doc, args):
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        lines = []
        for key, val in doc.items():
            if key in ("structures", "axioms"):
                lines.append(f"{key}:")
                for item in val:
                    lines.append("  " + json.dumps(item, sort_keys=True))
            else:
                lines.append(f"{key}: {val}")
        text = "\n".join(lines) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hopfqt",
        description="exact verification and classification of quasitriangular "
                    "structures on Hopf algebras of dimension p*q^2")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_family_args(sp, with_out=True):
        sp.add_argument("--family", required=True,
                        choices=("A", "B", "Bdual") + GROUP_FAMILIES)
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--t", type=int)
        sp.add_argument("--m", type=int)
        sp.add_argument("--n", type=int)
        sp.add_argument("--l", type=int, default=0)
        sp.add_argument("--lam", "--lambda", dest="lam", type=int, default=0)
        if with_out:
            sp.add_argument("--out")
            sp.add_argument("--format", choices=("json", "text"), default="json")

    sp = sub.add_parser("construct", help="write a structure-constant dump")
    add_family_args(sp)
    sp.set_defaults(fn=cmd_construct)

    sp = sub.add_parser("verify", help="verify all axioms of a dump")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("classify-qt",
                        help="enumerate quasitriangular/braiding structures")
    add_family_args(sp)
    sp.set_defaults(fn=cmd_classify_qt)

    sp = sub.add_parser("reproduce",
                        help="full classification summary at (p, q)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--out")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.set_defaults(fn=cmd_reproduce)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
