"""Hypothesis fuzzing of the two loaders: mutated structure dumps through
``hopfqt verify`` and mutated matched-pair dumps through load_matched_pair.
Malformed input must end in a documented exit code or a ValueError, never in
another exception.  Also: the axiom sweeps against the exhaustive oracle and
the references on algebras with one scaled or dropped structure constant."""

import os
import tempfile
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings, strategies as st

from hopfqt.bismash import (MatchedPair, build_bismash, dualize_trivial_action,
                            dump_matched_pair, load_matched_pair, make_A, make_B)
from hopfqt.cli import main
from hopfqt.exactfield import CycloNumber, zeta
from hopfqt.grouptool import abelian_group, build_group, cyclic_group, semidirect_pq
from hopfqt.hopfcore import (_AXIOM_SWEEPS, HopfAlgebra, dual_hopf, dump_structure,
                             group_algebra, verify_hopf_axioms)
from test_hopfcore import (_reference_antipode, _reference_eps_algebra_map,
                           _reference_unit, comult_mutant, generic_copy,
                           joined_failures, reference_failures, sweep_failures)

TOKENS = st.one_of(
    st.integers(-3, 40).map(str),
    st.integers(-2**70, 2**70).map(str),
    st.sampled_from(["", "x", "-", "0x1", "1.5", "END", "MUL", "order", "end"]),
)

# (kind, line, field, token): replace, delete or append a field, or delete,
# duplicate or swap a line; line and field are taken modulo the sizes
EDITS = st.lists(
    st.tuples(st.sampled_from(["field", "drop-field", "add-field",
                               "drop-line", "dup-line", "swap-lines"]),
              st.integers(0, 10**6), st.integers(0, 10**6), TOKENS),
    min_size=1, max_size=4)


def mutate(text, edits):
    lines = text.splitlines()
    for kind, i, k, token in edits:
        if not lines:
            break
        i %= len(lines)
        parts = lines[i].split()
        if kind == "field" and parts:
            parts[k % len(parts)] = token
        elif kind == "drop-field" and parts:
            del parts[k % len(parts)]
        elif kind == "add-field":
            parts.insert(k % (len(parts) + 1), token)
        elif kind == "drop-line":
            del lines[i]
            continue
        elif kind == "dup-line":
            lines.insert(i, lines[i])
            continue
        elif kind == "swap-lines":
            k %= len(lines)
            lines[i], lines[k] = lines[k], lines[i]
            continue
        lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


C3_DUMP = dump_structure(group_algebra(cyclic_group(3), 3))


@settings(max_examples=150, deadline=None)
@given(EDITS)
def test_verify_mutated_dump_exit_code(edits):
    with tempfile.TemporaryDirectory() as work:
        dump = os.path.join(work, "c3.txt")
        with open(dump, "w") as fh:
            fh.write(mutate(C3_DUMP, edits))
        rc = main(["verify", "--in", dump, "--out", os.path.join(work, "r.json")])
    assert rc in (0, 1, 3)


def small_pair():
    """Z2 and Z3 with trivial actions and nonzero cocycle exponents at
    conductor 3: the size of the trivial pairs in test_bismash."""
    G, F = abelian_group([2]), abelian_group([3])
    act_left = np.repeat(np.arange(2)[:, None], 3, axis=1)
    act_right = np.repeat(np.arange(3)[None, :], 2, axis=0)
    sigma = np.arange(2 * 3 * 3).reshape(2, 3, 3)
    tau = np.arange(2 * 2 * 3).reshape(2, 2, 3)
    return MatchedPair(G, F, act_left, act_right, sigma, tau, 3, name="small")


PAIR_DUMP = dump_matched_pair(small_pair())


def test_small_pair_roundtrip():
    mp = load_matched_pair(PAIR_DUMP)
    assert dump_matched_pair(mp) == PAIR_DUMP


@settings(max_examples=300, deadline=None)
@given(EDITS)
def test_load_mutated_matched_pair(edits):
    try:
        mp = load_matched_pair(mutate(PAIR_DUMP, edits))
    except ValueError:
        return
    assert isinstance(mp, MatchedPair)


SMALL_ALGEBRAS = [
    group_algebra(cyclic_group(4), 4),
    group_algebra(semidirect_pq(7, 3, 2), 3),
    dual_hopf(group_algebra(semidirect_pq(7, 3, 2), 3)),
]

# the three algebras of the verify-dumps benchmark, in a second property
# with fewer examples: the exhaustive oracle takes seconds on each
DUMP_ALGEBRAS = [
    build_bismash(make_A(7, 3, 2, 1)),
    group_algebra(build_group("gamma5", p=7, q=3, m=2), 1),
    build_bismash(dualize_trivial_action(make_B(3, 7, 2, 0))),
]

TAGS = st.sampled_from(["MUL", "CMUL", "EPS", "UNIT", "S"])
SITES = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
FACTORS = st.one_of(st.none(), st.integers(0, 30), st.fractions(-3, 3, max_denominator=4))


def mutant(H, tag, site, factor):
    """H with one structure constant of the dump line tag scaled by
    zeta_N^e (factor an int) or by a rational, or dropped (None).  A zero
    counit value scaled becomes the factor itself."""
    i = site[0] % H.dim
    if factor is None:
        scale = None
    elif isinstance(factor, int):
        scale = zeta(H.conductor, factor)
    else:
        scale = CycloNumber.from_rational(factor)
    mult, unit, counit, antipode = H.mult, H.unit, H.counit, H.antipode
    if tag == "CMUL":
        t = site[1] % len(H.comult[i])
        return comult_mutant(H, i, t, lambda j, k, c: [] if scale is None
                             else [(j, k, c * scale)])
    if tag == "MUL":
        js = sorted(H.mult[i])
        j = js[site[1] % len(js)]
        k = H.mult[i][j][site[2] % len(H.mult[i][j])][0]
        if scale is not None:
            return H.with_scaled_mult_entry(i, j, k, scale)
        # as if the MUL line were missing from a dump
        mult = [dict(row) for row in H.mult]
        mult[i][j] = tuple(t for t in mult[i][j] if t[0] != k)
        if not mult[i][j]:
            del mult[i][j]
    elif tag == "EPS":
        counit = list(counit)
        c = counit[i]
        counit[i] = (CycloNumber.zero(H.conductor) if scale is None
                     else c * scale if c else scale)
    elif tag == "UNIT":
        unit = dict(unit)
        u = sorted(unit)[site[0] % len(unit)]
        if scale is None:
            del unit[u]
        else:
            unit[u] = unit[u] * scale
    else:
        antipode = list(antipode)
        terms = list(antipode[i])
        t = site[1] % len(terms)
        terms[t:t + 1] = [] if scale is None else [(terms[t][0], terms[t][1] * scale)]
        antipode[i] = tuple(terms)
    return HopfAlgebra(H.dim, H.conductor, mult, H.comult, unit, counit, antipode)


def check_against_oracles(bad, product_reference, skip=()):
    """The failures equal those of the exhaustive oracle, every index sent
    to the sparse join, and per condition those of the references.  The
    conditions in skip are left out of the oracle and must not fail."""
    generic = generic_copy(bad)
    failures = verify_hopf_axioms(bad).failures
    assert not set(skip) & set(failures)
    assert sweep_failures({c: sweep for c, sweep in _AXIOM_SWEEPS if c not in skip},
                          generic) == failures
    for cond, ref in (("counit is an algebra map", _reference_eps_algebra_map),
                      ("unit", _reference_unit), ("antipode", _reference_antipode)):
        assert failures.get(cond, []) == list(ref(bad))
    if product_reference and bad.mono_tables() is None:
        assert joined_failures(generic) == reference_failures(bad)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(SMALL_ALGEBRAS) - 1), TAGS, SITES, FACTORS)
# odd values the tables must not accept: a counit value 2, an antipode
# coefficient 1/2, a unit coefficient 3
@example(0, "EPS", (1, 0, 0), Fraction(2))
@example(2, "S", (5, 0, 0), Fraction(1, 2))
@example(1, "UNIT", (0, 0, 0), Fraction(3))
def test_generic_join_matches_reference(which, tag, site, factor):
    """Scale one constant of mult, comult, the counit, the unit or the
    antipode by zeta_N^e (an int) or by a rational, or drop it (None); the
    exponent tables must find the failures of the exhaustive oracle, and the
    product reference's when mult has no tables."""
    check_against_oracles(mutant(SMALL_ALGEBRAS[which], tag, site, factor), True)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, len(DUMP_ALGEBRAS) - 1), TAGS, SITES, FACTORS)
def test_dump_algebra_mutants_match_oracle(which, tag, site, factor):
    """As above, on A(7,3,l=1), gamma5(7,3) and Bdual(3,7,lam=0), without
    the cubic product reference of associativity; where mult is the clean
    one, associativity must pass and its exhaustive oracle, seconds on each
    of these hosts, is not run."""
    H = DUMP_ALGEBRAS[which]
    bad = mutant(H, tag, site, factor)
    check_against_oracles(bad, False, ("associativity",) if bad.mult is H.mult else ())
