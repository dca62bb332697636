"""Hypothesis fuzzing of the two loaders: mutated structure dumps through
``hopfqt verify`` and mutated matched-pair dumps through load_matched_pair.
Malformed input must end in a documented exit code or a ValueError, never in
another exception.  Also: the generic axiom sweeps against their references
on algebras with one scaled or dropped structure constant."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from hopfqt.bismash import MatchedPair, dump_matched_pair, load_matched_pair
from hopfqt.cli import main
from hopfqt.exactfield import CycloNumber, zeta
from hopfqt.grouptool import abelian_group, cyclic_group, semidirect_pq
from hopfqt.hopfcore import (HopfAlgebra, dual_hopf, dump_structure, group_algebra,
                             verify_hopf_axioms)
from test_hopfcore import (comult_mutant, generic_copy, joined_failures,
                           reference_failures)

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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(SMALL_ALGEBRAS) - 1),
       st.sampled_from(["MUL", "CMUL"]),
       st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)),
       st.one_of(st.none(), st.integers(0, 30),
                 st.fractions(-3, 3, max_denominator=4)))
def test_generic_join_matches_reference(which, tag, site, factor):
    """Scale one constant of mult or comult by zeta_N^e (an int) or by a
    rational, or drop it (None); the generic join must find the failures of
    the exponent tables, and the product reference's when mult has no
    tables."""
    H = SMALL_ALGEBRAS[which]
    i = site[0] % H.dim
    if factor is None:
        scale = None
    elif isinstance(factor, int):
        scale = zeta(H.conductor, factor)
    else:
        scale = CycloNumber.from_rational(factor)
    if tag == "CMUL":
        t = site[1] % len(H.comult[i])
        bad = comult_mutant(H, i, t, lambda j, k, c: [] if scale is None
                            else [(j, k, c * scale)])
    else:
        js = sorted(H.mult[i])
        j = js[site[1] % len(js)]
        k = H.mult[i][j][site[2] % len(H.mult[i][j])][0]
        if scale is None:  # as if the MUL line were missing from a dump
            mult = [dict(row) for row in H.mult]
            mult[i][j] = tuple(t for t in mult[i][j] if t[0] != k)
            if not mult[i][j]:
                del mult[i][j]
            bad = HopfAlgebra(H.dim, H.conductor, mult, H.comult, H.unit,
                              H.counit, H.antipode)
        else:
            bad = H.with_scaled_mult_entry(i, j, k, scale)
    generic = generic_copy(bad)
    assert verify_hopf_axioms(generic).failures == verify_hopf_axioms(bad).failures
    if bad.mono_tables() is None:
        assert joined_failures(generic) == reference_failures(bad)
