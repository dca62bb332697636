import argparse
import contextlib
import io
import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from hopfqt import bismash
from hopfqt.bismash import build_bismash, make_A
from hopfqt.cli import build_parser, load_schema, main, validate_json
from hopfqt.hopfcore import dump_structure


def run_cli(*argv, expect=0):
    rc = main(list(argv))
    assert rc == expect, f"exit {rc} != {expect} for {argv}"


def run_proc(*argv):
    return subprocess.run([sys.executable, "-m", "hopfqt.cli", *argv],
                          capture_output=True, text=True)


# ---------------------------------------------------------------------------


def test_construct_and_verify_roundtrip(tmp_path):
    dump = tmp_path / "a0.txt"
    report = tmp_path / "verify.json"
    run_cli("construct", "--family", "A", "--p", "7", "--q", "3",
            "--l", "0", "--out", str(dump))
    assert dump.exists()
    run_cli("verify", "--in", str(dump), "--out", str(report))
    doc = json.loads(report.read_text())
    validate_json(doc, load_schema("verify.schema.json"))
    assert doc["dim"] == 63
    assert doc["trace_S2"] == "63"
    assert doc["semisimple"] and doc["S2_is_id"] and doc["S4_is_id"]
    assert all(a["passed"] for a in doc["axioms"])


def test_construct_group_family(tmp_path):
    dump = tmp_path / "b1.txt"
    run_cli("construct", "--family", "beta1", "--p", "3", "--q", "5",
            "--out", str(dump))
    head = dump.read_text().splitlines()[:2]
    assert head[1] == "dim 75"


def test_construct_B_dump_dimension(tmp_path):
    dump = tmp_path / "b.txt"
    run_cli("construct", "--family", "B", "--p", "3", "--q", "7",
            "--lam", "1", "--out", str(dump))
    assert "dim 147" in dump.read_text().splitlines()[1]


def test_parameter_error_exit_code():
    run_cli("construct", "--family", "A", "--p", "7", "--q", "3",
            "--t", "3", expect=2)
    run_cli("construct", "--family", "beta3", "--p", "3", "--q", "5",
            "--m", "2", expect=2)
    run_cli("reproduce", "--p", "4", "--q", "3", expect=2)
    # beta7 takes both m and n or neither; a lone one is not dropped
    run_cli("classify-qt", "--family", "beta7", "--p", "3", "--q", "5",
            "--m", "2", expect=2)


@pytest.mark.parametrize("argv, message", [
    ("reproduce --p 9 --q 3", "p and q must be odd primes"),
    ("reproduce --p 2 --q 3", "p and q must be odd primes"),
    ("construct --family A --p 9 --q 3 --t 2", "p, q must be distinct odd primes"),
    ("construct --family B --p 3 --q 9 --m 2 --lam 0",
     "p, q must be distinct odd primes"),
    ("construct --family beta3 --p 9 --q 5 --m 2", "p and q must be prime"),
], ids=["reproduce-9", "reproduce-2", "A-9", "B-9", "beta3-9"])
def test_prime_checks_keep_messages(argv, message, capsys):
    run_cli(*argv.split(), expect=2)
    assert capsys.readouterr().err == f"parameter error: {message}\n"


FAMILY_OPTIONS = {"--family", "--p", "--q", "--t", "--m", "--n", "--l", "--lam",
                  "--lambda", "--out", "--format"}


def test_cli_option_set_is_pinned(capsys):
    """Every long option of every subcommand: a new knob is a change here."""
    sub, = (a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    options = {name: {o for a in sp._actions for o in a.option_strings
                      if o.startswith("--") and o != "--help"}
               for name, sp in sub.choices.items()}
    assert options == {
        "construct": FAMILY_OPTIONS,
        "verify": {"--in", "--out", "--format"},
        "classify-qt": FAMILY_OPTIONS,
        "reproduce": {"--p", "--q", "--out", "--format"},
    }
    # verify always reports every witness; --mode is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--in", "any.txt", "--mode", "full"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode full" in capsys.readouterr().err


def test_malformed_dump_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a dump\n")
    run_cli("verify", "--in", str(bad), expect=3)
    run_cli("verify", "--in", str(tmp_path / "missing.txt"), expect=3)


def test_non_utf8_dump_is_a_format_error(tmp_path, capsys):
    # a valid header, then a line that is not UTF-8
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"hopfqt-structure 1\n\xff\xfe\n")
    run_cli("verify", "--in", str(bad), expect=3)
    err = capsys.readouterr().err
    assert err.startswith("format error: dump is not UTF-8 text")
    assert len(err.splitlines()) == 1


def test_random_bytes_dump_is_a_format_error(tmp_path):
    bad = tmp_path / "random.bin"
    bad.write_bytes(random.Random(18).randbytes(4096))
    proc = run_proc("verify", "--in", str(bad))
    assert proc.returncode == 3
    assert proc.stderr.startswith("format error:")
    assert "Traceback" not in proc.stderr


def test_mutated_dump_fails_verification(tmp_path):
    dump = tmp_path / "a0.txt"
    run_cli("construct", "--family", "A", "--p", "7", "--q", "3",
            "--l", "1", "--out", str(dump))
    lines = dump.read_text().splitlines()
    idx, mutated = next(
        (i, ln) for i, ln in enumerate(lines)
        if ln.startswith("MUL") and ln.split()[4] == "1"
        and ln.split()[5] == "1" and ln.split()[6] == "0")
    parts = mutated.split()
    parts[5], parts[6] = "0", "1"  # 1 -> zeta_3
    lines[idx] = " ".join(parts)
    bad = tmp_path / "mutated.txt"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["verify", "--in", str(bad), "--out", str(tmp_path / "r.json")])
    assert rc == 1
    doc = json.loads((tmp_path / "r.json").read_text())
    assert not all(a["passed"] for a in doc["axioms"])
    assert [(a["name"], a["passed"], a["failures"]) for a in doc["axioms"]] == [
        ("associativity", False, 8),
        ("unit", False, 1),
        ("coassociativity", True, 0),
        ("counit", True, 0),
        ("comultiplication is an algebra map", False, 21),
        ("counit is an algebra map", False, 1),
        ("antipode", False, 1),
    ]


def test_doubled_constant_dump_fails_verification(tmp_path):
    # twice a root of unity leaves the exponent tables: the generic sweeps run
    H = build_bismash(make_A(7, 3, 2, 1)).with_scaled_mult_entry(54, 54, 54, 2)
    bad = tmp_path / "doubled.txt"
    bad.write_text(dump_structure(H))
    rc = main(["verify", "--in", str(bad), "--out", str(tmp_path / "r.json")])
    assert rc == 1
    doc = json.loads((tmp_path / "r.json").read_text())
    assert [(a["name"], a["passed"], a["failures"]) for a in doc["axioms"]] == [
        ("associativity", False, 8),
        ("unit", False, 1),
        ("coassociativity", True, 0),
        ("counit", True, 0),
        ("comultiplication is an algebra map", False, 21),
        ("counit is an algebra map", True, 0),
        ("antipode", False, 1),
    ]


@pytest.mark.parametrize("old,new", [
    # a negative index would alias the last basis element
    ("MUL 2 2 1 1 1 0", "MUL -1 2 1 1 1 0"),
    ("MUL 1 2 0 1 1 0", "MUL 1 2 9 1 1 0"),
    ("EPS 0 1 1 0", "EPS 0 0 1 0"),
    # header bounds fire before anything is allocated
    ("dim 3", "dim -2"),
    ("dim 3", "dim 1000000000"),
    ("conductor 3", "conductor 1000000007"),
    # a repeated (tag, indices) line would overwrite or add to the first
    ("UNIT 0 1 1 0", "UNIT 0 1 1 0\nUNIT 0 1 0 1"),
    ("EPS 1 1 1 0", "EPS 1 1 1 0\nEPS 1 1 1 0"),
    ("MUL 1 1 2 1 1 0", "MUL 1 1 2 1 1 0\nMUL 1 1 2 1 1 0"),
    ("CMUL 1 1 1 1 1 0", "CMUL 1 1 1 1 1 0\nCMUL 1 1 1 1 0 1"),
    ("S 2 1 1 1 0", "S 2 1 1 1 0\nS 2 1 1 1 0"),
    ("label 1 g^1", "label 1 g^1\nlabel 1 h"),
], ids=["negative-index", "index-out-of-range", "zero-denominator",
        "negative-dim", "huge-dim", "huge-conductor", "repeated-UNIT",
        "repeated-EPS", "repeated-MUL", "repeated-CMUL", "repeated-S",
        "repeated-label"])
def test_bad_dump_line_exit_code(tmp_path, old, new):
    from hopfqt.grouptool import cyclic_group
    from hopfqt.hopfcore import dump_structure, group_algebra
    text = dump_structure(group_algebra(cyclic_group(3), 3))
    assert old in text.splitlines()
    dump = tmp_path / "c3.txt"
    dump.write_text(text.replace(old + "\n", new + "\n"))
    run_cli("verify", "--in", str(dump), expect=3)


def test_dump_conductor_cap(tmp_path, capsys):
    # k[C3] written out at the prime conductor 1031: every coefficient line
    # has 1,031 fields (a denominator and phi = 1030 numerators), so the dump
    # is well formed, but its field tables would be quadratic in the conductor
    from hopfqt.grouptool import cyclic_group
    from hopfqt.hopfcore import MAX_CONDUCTOR, dump_structure, group_algebra
    text = dump_structure(group_algebra(cyclic_group(3), 3))
    wide = " 1 1" + " 0" * 1029
    lines = [ln[:-len(" 1 1 0")] + wide if ln.endswith(" 1 1 0") else ln
             for ln in text.replace("conductor 3", "conductor 1031").splitlines()]
    assert len(lines[6].split()[2:]) == 1031 > MAX_CONDUCTOR
    dump = tmp_path / "c3.txt"
    dump.write_text("\n".join(lines) + "\n")
    run_cli("verify", "--in", str(dump), expect=3)
    assert f"conductor 1031 exceeds {MAX_CONDUCTOR}" in capsys.readouterr().err


def test_classify_counts(tmp_path):
    out = tmp_path / "r.json"
    run_cli("classify-qt", "--family", "A", "--p", "7", "--q", "3",
            "--l", "0", "--out", str(out))
    doc = json.loads(out.read_text())
    validate_json(doc, load_schema("report.schema.json"))
    assert doc["count"] == 3 and doc["oracle_equivalent"]
    run_cli("classify-qt", "--family", "A", "--p", "7", "--q", "3",
            "--l", "1", "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["count"] == 0 and doc["oracle_equivalent"]
    run_cli("classify-qt", "--family", "gamma3", "--p", "7", "--q", "3",
            "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["count"] == 3 and doc["oracle_equivalent"]


def test_classify_bdual_reports_nullspace(tmp_path):
    out = tmp_path / "r.json"
    run_cli("classify-qt", "--family", "Bdual", "--p", "3", "--q", "7",
            "--lam", "0", "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["count"] == 0
    assert doc["structures"][0]["nullspace_dim"] == 49
    assert doc["oracle_equivalent"]


def test_classify_exit_code_on_failed_cross_check(tmp_path, monkeypatch):
    # a Bdual candidate that escapes the no-go argument
    from hopfqt import qtlab

    def escaped(p, q, m, lam):
        rep = qtlab.NoQTReport(lam, "zero")
        rep.nullspace_dim = 49
        rep.checks.fail("escaped candidate", (0,))
        return rep

    monkeypatch.setattr(qtlab, "no_qt_B_dual", escaped)
    out = tmp_path / "r.json"
    run_cli("classify-qt", "--family", "Bdual", "--p", "3", "--q", "7",
            "--lam", "0", "--out", str(out), expect=1)
    assert json.loads(out.read_text())["oracle_equivalent"] is False


def test_reports_byte_stable(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        run_cli("classify-qt", "--family", "gamma5", "--p", "7", "--q", "3",
                "--out", str(out))
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    d1.pop("elapsed_ms")
    d2.pop("elapsed_ms")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_reproduce_small(tmp_path):
    out = tmp_path / "r.json"
    run_cli("reproduce", "--p", "3", "--q", "5", "--out", str(out))
    doc = json.loads(out.read_text())
    validate_json(doc, load_schema("report.schema.json"))
    assert doc["oracle_equivalent"]
    texts = [c["claim"] for c in doc["structures"]]
    assert any("beta3 does not exist" in t for t in texts)
    assert any("beta7" in t for t in texts)


def test_reproduce_13_3(tmp_path):
    # the sigma-twisted family beyond (7,3): dim 117
    out = tmp_path / "r.json"
    run_cli("reproduce", "--p", "13", "--q", "3", "--out", str(out))
    doc = json.loads(out.read_text())
    validate_json(doc, load_schema("report.schema.json"))
    claims = doc["structures"]
    assert doc["count"] == len(claims) == 12
    assert doc["oracle_equivalent"] and all(c["passed"] for c in claims)
    braidings = [c["count"] for c in claims if "braiding" in c["claim"]]
    groups = [c["count"] for c in claims if c["claim"].startswith("group algebra")]
    assert braidings == [3, 0, 0]
    assert groups == [117, 1053, 3, 3, 3]


# the reports of the benchmark's reproduce jobs, and the (3,7) report as the
# parent of the commit that builds each algebra once per run printed it; each
# without its elapsed_ms line
PERFBENCH_GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
REPORT_PINS = Path(__file__).resolve().parent / "golden"


def run_counting_validations(*argv):
    """The report of a successful command without its elapsed_ms line, and
    the number of matched-pair validations of each pair, by pair name."""
    counts = Counter()
    validate = bismash._matched_pair_failures

    def counting(mp):
        counts[mp.name] += 1
        return validate(mp)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as m, contextlib.redirect_stdout(out):
        m.setattr(bismash, "_matched_pair_failures", counting)
        assert main(list(argv)) == 0
    report = "".join(line for line in out.getvalue().splitlines(keepends=True)
                     if not line.startswith('  "elapsed_ms": '))
    return report, counts


@pytest.fixture(scope="module")
def reproduced():
    """reproduced(p, q): run_counting_validations of reproduce at (p, q),
    run once per module."""
    runs = {}

    def run(p, q):
        if (p, q) not in runs:
            runs[p, q] = run_counting_validations("reproduce", "--p", str(p),
                                                  "--q", str(q))
        return runs[p, q]
    return run


@pytest.mark.parametrize("p,q,pin", [
    (7, 3, PERFBENCH_GOLDEN / "reproduce-7-3.json"),
    (3, 5, PERFBENCH_GOLDEN / "reproduce-3-5.json"),
    (3, 7, REPORT_PINS / "reproduce-3-7.json"),
])
def test_reproduce_report_is_byte_identical_to_pin(reproduced, p, q, pin):
    assert reproduced(p, q)[0] == pin.read_text()


def test_reproduce_validates_each_algebra_once(reproduced):
    assert reproduced(7, 3)[1] == {f"A_{l}(p=7,q=3,t=2)": 1 for l in range(3)}
    B = [f"B_{lam}(p=3,q=7,m=2)" for lam in (0, 1)]
    assert reproduced(3, 7)[1] == {name: 1 for name in B + [f"dual({b})" for b in B]}
    assert reproduced(3, 5)[1] == {}


def test_classify_A_validates_its_algebra_once():
    _, counts = run_counting_validations("classify-qt", "--family", "A", "--p", "7",
                                         "--q", "3", "--l", "0")
    assert counts == {"A_0(p=7,q=3,t=2)": 1}


def test_text_format(tmp_path):
    out = tmp_path / "r.txt"
    run_cli("classify-qt", "--family", "gamma5", "--p", "7", "--q", "3",
            "--format", "text", "--out", str(out))
    text = out.read_text()
    assert "count: 3" in text


def test_entrypoint_subprocess():
    r = run_proc("construct", "--family", "cyclic-bogus", "--p", "3", "--q", "5")
    assert r.returncode == 2


def test_schema_validator_rejects():
    schema = load_schema("report.schema.json")
    with pytest.raises(ValueError):
        validate_json({"claim": "x"}, schema)
    with pytest.raises(ValueError):
        validate_json({"claim": 1, "parameters": {}, "count": 0,
                       "structures": [], "oracle_equivalent": True,
                       "elapsed_ms": 0}, schema)


# `hopfqt verify` on fixed-site dumps: the per-axiom failure counts and the
# antipode figures, taken from the verifier before the counit, antipode and
# counit-algebra-map sweeps moved onto the exponent tables and before an odd
# mult entry stopped disabling the tables.  (dump, exit, failure counts in
# the order associativity, unit, coassociativity, counit, comultiplication is
# an algebra map, counit is an algebra map, antipode, trace_S2); S2 = id and
# semisimple hold on all of them.
VERIFY_PINS = [
    ("A", 0, [0, 0, 0, 0, 0, 0, 0], "63"),
    ("gamma5", 0, [0, 0, 0, 0, 0, 0, 0], "63"),
    ("Bdual", 0, [0, 0, 0, 0, 0, 0, 0], "147"),
    ("A zeta MUL 8 8 7", 1, [4, 0, 0, 0, 21, 0, 0], "63"),
    ("Bdual zeta BDUAL_SITE", 1, [190, 0, 0, 0, 5, 1, 0], "147"),
    ("A x2 MUL 54 54 54", 1, [8, 1, 0, 0, 21, 0, 1], "63"),
]


def _verify_dump_hosts():
    from test_hopfcore import BDUAL_SITE, zeta_mutant

    from hopfqt.bismash import dualize_trivial_action, make_B
    from hopfqt.grouptool import build_group
    from hopfqt.hopfcore import group_algebra

    A = build_bismash(make_A(7, 3, 2, 1))
    Bdual = build_bismash(dualize_trivial_action(make_B(3, 7, 2, 0)))
    return {"A": A, "gamma5": group_algebra(build_group("gamma5", p=7, q=3, m=2), 1),
            "Bdual": Bdual, "A zeta MUL 8 8 7": zeta_mutant(A, 8, 8),
            "Bdual zeta BDUAL_SITE": zeta_mutant(Bdual, *BDUAL_SITE),
            "A x2 MUL 54 54 54": A.with_scaled_mult_entry(54, 54, 54, 2)}


def test_verify_reports_on_fixed_dumps_are_pinned(tmp_path):
    hosts = _verify_dump_hosts()
    assert hosts["A zeta MUL 8 8 7"].mult[8][8][0][0] == 7
    for name, rc, counts, trace in VERIFY_PINS:
        dump, report = tmp_path / "h.txt", tmp_path / "r.json"
        dump.write_text(dump_structure(hosts[name]))
        run_cli("verify", "--in", str(dump), "--out", str(report), expect=rc)
        doc = json.loads(report.read_text())
        assert [a["failures"] for a in doc["axioms"]] == counts, name
        assert [a["passed"] for a in doc["axioms"]] == [not c for c in counts]
        assert (doc["trace_S2"], doc["S2_is_id"], doc["semisimple"]) == (trace, True, True)
