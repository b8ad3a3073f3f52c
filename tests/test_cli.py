import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bqplane
from bqplane.cli import MAX_SEARCH_P, run_command
from bqplane.geometry import all_points
from bqplane.errors import ProductFormViolation
from bqplane.maps import MapTable, identity_map, raw_image_table
from bqplane.parsing import format_table_lines


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = run_command(list(argv))
        out, err = capsys.readouterr()
        return code, out, err

    return invoke


@pytest.fixture
def corrupt_table_file(tmp_path, gf13):
    raw = list(raw_image_table(identity_map(gf13), gf13))
    raw[0], raw[70] = raw[70], raw[0]
    text = format_table_lines(MapTable(gf13, raw))
    path = tmp_path / "bad_table.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def duplicate_table_file(tmp_path, gf13):
    lines = format_table_lines(MapTable(gf13, range(169))).splitlines()
    lines.append(lines[4])  # (0, 4) mapped again on line 170
    path = tmp_path / "dup_table.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _json_records(out):
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert all("record" in r for r in recs)
    assert recs[-1]["record"] == "verdict"
    return recs


class TestPassingCommands:
    def test_verify_identities_finite(self, run):
        code, out, _ = run("verify-identities", "--field", "GF(13)")
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_verify_identities_sampled(self, run):
        code, out, _ = run("verify-identities", "--field", "Q[i]",
                           "--samples", "40", "--format", "json")
        assert code == 0
        recs = _json_records(out)
        assert recs[-1]["ok"] is True
        checks = [r for r in recs if r["record"] == "identity_check"]
        assert len(checks) == 4 and all(c["checked"] == 40 for c in checks)

    def test_large_prime_field_sampled(self, run):
        start = time.monotonic()
        code, out, _ = run("verify-identities", "--field", "GF(100000037)",
                           "--samples", "5")
        assert time.monotonic() - start < 5
        assert code == 0
        assert "phi_matches_lm_after_xi: 5 checked, ok" in out

    def test_rational_chain(self, run):
        code, out, _ = run("chain", "--from", "(0,0)", "--to", "(3/5,4/5)",
                           "--mode", "rational", "--format", "json")
        assert code == 0
        chain = next(r for r in _json_records(out) if r["record"] == "chain")
        assert len(chain["points"]) == 2

    def test_auto_chain_extends_field(self, run):
        code, out, _ = run("chain", "--from", "(0,0)", "--to", "(1,2)",
                           "--format", "json")
        assert code == 0
        chain = next(r for r in _json_records(out) if r["record"] == "chain")
        assert "sqrt" in chain["field"]

    def test_auto_chain_over_cancelling_radicand(self, run):
        # 2305195203 - 1630019160 sqrt 2 = 3 (577 - 408 sqrt 2)^3 > 0
        field = "Q[sqrt 2][sqrt 2305195203 - 1630019160*r1]"
        code, out, _ = run("chain", "--field", field, "--from", "(0,0)",
                           "--to", "(3,0)", "--format", "json")
        assert code == 0
        chain = next(r for r in _json_records(out) if r["record"] == "chain")
        assert chain["field"] == field

    def test_auto_chain_far_target_within_default_budget(self, run):
        code, out, _ = run("chain", "--from", "(0,0)", "--to", "(2000,1/3)",
                           "--format", "json")
        assert code == 0
        chain = next(r for r in _json_records(out) if r["record"] == "chain")
        assert chain["edge_bound"] == 2001

    def test_lemma3_chain(self, run):
        code, out, _ = run("lemma3-chain", "--point", "(1 + 2*i, 3 + i)",
                           "--field", "Q[i]", "--format", "json")
        assert code == 0
        recs = _json_records(out)
        certs = next(r for r in recs if r["record"] == "psi_certificates")
        assert certs["values"][:2] == ["4", "2"]

    def test_depth_six_lemma3_chain_text(self, run):
        code, out, _ = run("lemma3-chain", "--field", "Q[i]",
                           "--point", "(1/2*i, 1/2 + 7/2*i)")
        assert code == 0
        assert out == (
            "lemma3-chain from (1/2*i, 1/2 + 7/2*i) over Q[i]\n"
            "  7 points ending at (i, i) in Q[sqrt 53/4][sqrt 5/4][sqrt 2]"
            "[sqrt 67/4 + r2 - 2*r1*r3][sqrt -55/16 - 1/4*r2 + 1/2*r1*r3 + 1/2*r4][i]\n"
            "  psi per edge: 1/4, 1/2, 1, 1, 1, 1\n"
            "  every edge phi = 1 with psi != 0\n"
            "PASS\n")

    def test_decompose_routes_agree(self, run):
        argv = ("--field", "GF(13)", "--map", "translate(2,3) . rot(0,1)",
                "--format", "json")
        code1, out1, _ = run("decompose", *argv)
        code2, out2, _ = run("decompose-lorentz", *argv)
        assert code1 == code2 == 0
        rec1 = next(r for r in _json_records(out1)
                    if r["record"] == "decomposition")
        rec2 = next(r for r in _json_records(out2)
                    if r["record"] == "decomposition")
        assert rec1["route"] == "frame" and rec2["route"] == "lorentz"
        assert rec1["normalizer_matrix"] == rec2["normalizer_matrix"]
        assert rec1["normalizer_translation"] == rec2["normalizer_translation"]

    def test_decompose_over_tower(self, run):
        code, out, _ = run("decompose", "--field", "Q[sqrt 2][i]",
                           "--map", "rot(3/5, 4/5) . hom(conj@1)",
                           "--samples", "30", "--format", "json")
        assert code == 0
        rec = next(r for r in _json_records(out)
                   if r["record"] == "decomposition")
        assert rec["gamma"] == "hom(conj@1)"

    @pytest.mark.parametrize("command", ["decompose", "decompose-lorentz"])
    def test_routes_on_a_matrix_that_is_not_rational(self, run, command):
        # entries 1/2*r1 send the affine rows through the full tower product
        code, out, _ = run(command, "--field", "Q[sqrt 2][i]", "--map",
                           "translate(r1, i) . rot(1/2*r1, 1/2*r1) . hom(conj@1)",
                           "--format", "json")
        assert code == 0
        want = {"branch": "theta", "field": "Q[sqrt 2][i]", "gamma": "hom(conj@1)",
                "normalizer_matrix": [["1/2*r1", "1/2*r1"], ["-1/2*r1", "1/2*r1"]],
                "normalizer_translation": ["-1 - 1/2*r1*i", "1 - 1/2*r1*i"],
                "record": "decomposition", "route": "frame",
                "verified_on": "samples(200,seed=1729)"}
        if command == "decompose-lorentz":
            want.update(route="lorentz", lorentz_case=1, lorentz_scale="1/2*r1 + 1/2*r1*i")
        assert _json_records(out)[1:] == [want, {"command": command, "ok": True,
                                                 "record": "verdict"}]

    @pytest.mark.parametrize("command", ["decompose", "decompose-lorentz"])
    def test_joint_conjugation_of_a_nested_radicand(self, run, command):
        # neither conj@1 nor conj@2 fixes 5 + r1*r2 alone; together they do
        code, out, err = run(command, "--field", "Q[sqrt 2][sqrt 3][sqrt 5 + r1*r2][i]",
                             "--map", "rot(3/5, 4/5) . hom(conj@1) . hom(conj@2)",
                             "--samples", "40")
        assert (code, err) == (0, "")
        assert "  gamma: hom(conj@1) . hom(conj@2)\n" in out

    @pytest.mark.parametrize("command", ["decompose", "decompose-lorentz"])
    def test_prime_field_decomposition_is_exhaustive_whatever_the_samples(self, run, command):
        code, out, _ = run(command, "--field", "GF(13)", "--map", "swap", "--samples", "3")
        assert code == 0 and "  verified on: exhaustive\n" in out

    def test_enumerate_ortho(self, run):
        code, out, _ = run("enumerate-ortho", "--field", "GF(13)",
                           "--format", "json")
        assert code == 0
        recs = _json_records(out)
        census = next(r for r in recs if r["record"] == "census")
        assert census["count"] == 24
        assert sum(r["record"] == "orthogonal_matrix" for r in recs) == 24

    def test_budgeted_search(self, run):
        code, out, _ = run("search-preservers", "--p", "17",
                           "--budget", "40000", "--format", "json")
        assert code == 0
        census = next(r for r in _json_records(out) if r["record"] == "census")
        assert census["found"] == 2 and census["complete"] is False
        assert census["anomaly_count"] == 0

    def test_witness(self, run):
        code, out, _ = run("witness-nonisometry", "--samples", "40",
                           "--format", "json")
        assert code == 0
        recs = _json_records(out)
        wit = next(r for r in recs if r["record"] == "witness")
        assert wit["phi"] != wit["phi_image"]

    def test_zero_budget_kept_in_header(self, run):
        code, out, _ = run("search-preservers", "--p", "13", "--budget", "0")
        assert code == 1
        assert out.splitlines()[0] == "search-preservers p=13 budget=0"
        assert out.splitlines()[-1] == "FAIL"

    def test_help_exits_clean(self, run):
        code, out, _ = run("--help")
        assert code == 0


class TestVerdictFailures:
    def test_infeasible_rational_chain(self, run):
        code, out, _ = run("chain", "--from", "(0,0)", "--to", "(1/3,0)",
                           "--mode", "rational", "--format", "json")
        assert code == 1
        recs = _json_records(out)
        failure = next(r for r in recs if r["record"] == "failure")
        assert failure["error"] == "SearchExhausted"
        assert recs[-1]["ok"] is False

    def test_chain_budget_exhaustion(self, run):
        code, out, _ = run("chain", "--from", "(0,0)", "--to", "(50,0)",
                           "--mode", "rational", "--budget", "10")
        assert code == 1
        assert "FAILURE SearchExhausted" in out

    @pytest.mark.parametrize("budget, code", [("12", 0), ("11", 1)])
    def test_auto_chain_budget_bounds_edges(self, run, budget, code):
        got, out, _ = run("chain", "--from", "(0,0)", "--to", "(12,0)",
                          "--budget", budget, "--format", "json")
        assert got == code
        recs = _json_records(out)
        if code == 0:
            chain = next(r for r in recs if r["record"] == "chain")
            assert chain["edge_bound"] == len(chain["points"]) - 1 == 12
        else:
            failure = next(r for r in recs if r["record"] == "failure")
            assert failure["error"] == "SearchExhausted"

    @pytest.mark.parametrize("argv", [
        ("chain", "--from", "(0,0)", "--to", "(1000000000,0)"),
        ("lemma3-chain", "--field", "Q[i]", "--point", "(1000000000 + i, 0)"),
    ])
    def test_far_auto_walk_is_refused_quickly(self, run, argv):
        start = time.monotonic()
        code, out, _ = run(*argv)
        assert time.monotonic() - start < 5
        assert code == 1
        assert "FAILURE SearchExhausted: the straight walk needs more than" \
               " the budget of 10000 steps" in out

    @pytest.mark.parametrize("budget, code", [("4", 1), ("5", 0)])
    def test_lemma3_budget_bounds_the_real_walk(self, run, budget, code):
        # the real walk from (6, 1) to (sqrt 2, 0) takes 5 unit steps
        got, out, _ = run("lemma3-chain", "--field", "Q[i]", "--point", "(5 + i, 0)",
                          "--budget", budget, "--format", "json")
        assert got == code
        recs = _json_records(out)
        if code == 0:
            chain = next(r for r in recs if r["record"] == "chain")
            assert chain["edge_bound"] == 5 + 4
        else:
            failure = next(r for r in recs if r["record"] == "failure")
            assert failure["error"] == "SearchExhausted"
            assert "budget of 4 steps" in failure["detail"]

    def test_unsplit_denominator_is_an_undecided_refusal(self, run):
        # a 49-digit product of two primes = 1 mod 4: the bounded factoring
        # gives up and names the part it could not split
        n = "3000000000000000000000164000000000000000000000833"
        start = time.monotonic()
        code, out, _ = run("chain", "--mode", "rational", "--from", "(0, 0)",
                           "--to", f"(1/{n}, 0)")
        assert time.monotonic() - start < 5
        assert code == 1
        assert f"FAILURE SearchExhausted: displacement (1/{n}, 0): the" \
               f" denominator part {n} is not factored" in out
        assert "undecided" in out

    def test_denominator_3_mod_4_is_refused_unfactored(self, run):
        # (10^24 + 49)(2*10^24 + 3) is 3 mod 4, a certificate on its own
        n = "2000000000000000000000101000000000000000000000147"
        start = time.monotonic()
        code, out, _ = run("chain", "--mode", "rational", "--from", "(0, 0)",
                           "--to", f"(1/{n}, 0)")
        assert time.monotonic() - start < 5
        assert code == 1
        assert "is unreachable by rational unit steps" in out

    def test_corrupt_table(self, run, corrupt_table_file):
        code, out, _ = run("decompose", "--field", "GF(13)",
                           "--table", corrupt_table_file, "--format", "json")
        assert code == 1
        failure = next(r for r in _json_records(out)
                       if r["record"] == "failure")
        assert failure["error"] == "FrameNotOrthonormal"

    def test_anomaly_record_lists_the_rejected_table(self, run, gf13, monkeypatch,
                                                     point_table_text):
        # at p = 13 the first find comes after 20,000 nodes; 40,000 give two
        module = sys.modules["bqplane.decompose"]
        frame, rejected = module._frame_on_table, []

        def reject_first(raw, k):
            if not rejected:
                rejected.append(raw)
                raise ProductFormViolation("rejected by the test")
            return frame(raw, k)

        monkeypatch.setattr(module, "_frame_on_table", reject_first)
        code, out, _ = run("search-preservers", "--p", "13", "--budget", "40000",
                           "--format", "json")
        assert code == 1
        recs = _json_records(out)
        census = next(r for r in recs if r["record"] == "census")
        assert (census["found"], census["anomaly_count"]) == (2, 1)
        [anomaly] = [r for r in recs if r["record"] == "anomaly"]
        assert anomaly["reason"] == "ProductFormViolation: rejected by the test"
        pts = all_points(gf13)
        images = {pts[i]: pts[v] for i, v in enumerate(rejected[0])}
        assert anomaly["table"] == point_table_text(images).splitlines()
        assert [line.split(" -> ")[0] for line in anomaly["table"][:4]] == \
            ["0,0", "0,1", "0,10", "0,11"]

    def test_census_that_repeats_a_find_fails(self, run, monkeypatch):
        # the first find handed over again in place of a later one: the
        # complete census still counts 4,056 of 4,056, but misses a map
        module = sys.modules["bqplane.decompose"]
        pair_census = module._pair_census

        def repeat_first(*args):
            *rest, take = args
            firsts = []

            def hand(finds):
                if finds and len(firsts) == 1:  # the second batch with a find
                    finds = [firsts[0], *finds[1:]]
                firsts.extend(finds[:1])
                take(finds)

            return pair_census(*rest, hand)

        monkeypatch.setattr(module, "_pair_census", repeat_first)
        census = module.search_unit_preservers(13)
        assert census.complete and census.anomalies == []
        assert census.total_found == census.expected == 4_056
        assert len(set(census.found)) == 4_055
        assert not census.ok
        code, out, _ = run("search-preservers", "--p", "13")
        assert code == 1
        assert out.splitlines()[1] == ("  found 4056 of 4056 expected, complete,"
                                       " 75135541 nodes, 0 anomalies")

    def test_real_point_has_no_lemma3_chain(self, run):
        code, out, _ = run("lemma3-chain", "--point", "(2, 3)",
                           "--field", "Q[i]")
        assert code == 1
        assert "PrimaryBranchUnavailable" in out


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        (),
        ("bogus",),
        ("verify-identities",),
        ("verify-identities", "--field", "GF(5)"),
        ("verify-identities", "--field", "GF("),
        ("decompose", "--field", "GF(13)"),
        ("decompose", "--field", "Q[i]", "--map", "rot(1,1)"),
        ("decompose", "--field", "Q[i]", "--map", "hom(id)", "--exhaustive"),
        ("decompose-lorentz", "--field", "GF(13)", "--map", "swap", "--exhaustive"),
        ("verify-identities", "--field", "Q[i]", "--exhaustive"),
        ("verify-identities", "--field", "Q"),
        ("decompose-lorentz", "--field", "Q[sqrt 2]", "--map", "swap"),
        ("lemma3-chain", "--field", "Q[sqrt 2]", "--point", "(1,1)"),
        ("chain", "--field", "GF(13)", "--from", "(0,0)", "--to", "(1,2)",
         "--mode", "rational"),
        ("chain", "--field", "GF(13)", "--from", "(0,0)", "--to", "(1,2)",
         "--mode", "auto"),
        ("decompose", "--field", "GF(13)", "--table", "/no/such/file"),
        ("search-preservers", "--p", "12"),
        ("enumerate-ortho", "--field", "Q"),
        ("verify-identities", "--field", "Q[i]", "--samples", "0"),
        ("decompose", "--field", "Q[i]", "--map", "hom(id)", "--samples", "0"),
        ("decompose-lorentz", "--field", "Q[sqrt 2][i]",
         "--map", "translate(1,2)", "--samples", "-1"),
        ("witness-nonisometry", "--samples", "0"),
        ("witness-nonisometry", "--samples", "-5"),
        ("witness-nonisometry", "--samples", "many"),
        ("search-preservers", "--p", "13", "--budget", "-1"),
        ("chain", "--from", "(0,0)", "--to", "(3/5,4/5)", "--budget", "-1"),
        ("verify-identities", "--field", "GF(100000037)"),
        ("decompose", "--field", "GF(100000037)", "--map", "rot(0,1)"),
        ("decompose-lorentz", "--field", "GF(100000037)", "--map", "rot(0,1)"),
        ("enumerate-ortho", "--field", "GF(73)"),
        # radicand -1023286908188737 + 723573111879672 sqrt 2 < 0
        ("chain", "--field", "Q[sqrt 2][sqrt -1023286908188737 + 723573111879672*r1]",
         "--from", "(0,0)", "--to", "(3,0)"),
        ("lemma3-chain", "--field", "Q[i]", "--point", "(1 + i, 0)", "--budget", "-1"),
        # digits outside ASCII 0-9
        ("verify-identities", "--field", "GF(1³)"),
        ("verify-identities", "--field", "GF(١٣)"),
        ("decompose", "--field", "GF(13)", "--map", "translate(²,0)"),
        ("decompose", "--field", "Q[sqrt 2][i]", "--map", "translate(r²,0)"),
        ("verify-identities", "--field", "GF(" + "1" * 5000 + ")"),
        ("decompose", "--field", "Q[i]", "--map", "translate(r" + "1" * 5000 + ",0)"),
        ("chain", "--from", "(0,0)", "--to", "(" + "(" * 400 + "1" + ")" * 400 + ",0)"),
    ])
    def test_exit_code_two(self, run, argv):
        code, out, err = run(*argv)
        assert code == 2
        assert "error:" in err

    def test_prime_field_message_names_no_keyword(self, run):
        code, out, err = run("verify-identities", "--field", "GF(7)")
        assert code == 2 and out == ""
        assert "GF(7): p must be 1 mod 4" in err

    def test_duplicate_table_line(self, run, duplicate_table_file):
        code, out, err = run("decompose", "--field", "GF(13)",
                             "--table", duplicate_table_file)
        assert code == 2 and out == ""
        assert "line 170" in err and "line 5" in err

    def test_table_errors_name_their_line(self, run, tmp_path):
        path = tmp_path / "table.txt"
        for data, message in [
            (b"0,0 -> 0,\xff\n",
             f"{path}: not UTF-8 text (invalid start byte at byte 9)"),
            (b"0,0 -> 1/13,0\n", "line 1: denominator divisible by 13"),
            (b"0,0 -> 0,0\n", "table must cover all 169 points of GF(13)^2"),
        ]:
            path.write_bytes(data)
            code, out, err = run("decompose", "--field", "GF(13)", "--table", str(path))
            assert code == 2 and out == ""
            assert err == f"bq: error: {message}\n"
        code, out, err = run("decompose", "--field", "Q[i]", "--table", str(path))
        assert code == 2 and out == ""
        assert err == "bq: error: map tables need a finite field\n"

    def test_search_prime_above_bound(self, run):
        # 73 is the first p = 1 mod 4 above the bound; the budget keeps a
        # missing bound from turning this into a full census
        assert MAX_SEARCH_P < 73
        code, out, err = run("search-preservers", "--p", "73", "--budget", "0")
        assert code == 2 and out == ""
        assert f"p <= {MAX_SEARCH_P}" in err


# N, 3,000 sevens, and N/M below parse under the default limit of 4,300
# digits, but N*N has 6,000 digits and the chain field built from N/M a
# radicand coefficient of 5,002.
SEVENS = "7" * 3000
OVER_LIMIT = "7" * 2501 + "/" + "3" * 2500 + "1"
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not 3000 <= DIGIT_LIMIT < 5002,
                    reason="this Python's digit limit refuses other inputs")
class TestDigitLimit:
    """Coefficients beyond the interpreter's int-to-str digit limit are
    refused like any other toolkit error: exit 2 while the input is
    prepared, a failure record and exit 1 while the command runs."""

    @pytest.mark.parametrize("argv, code, digits", [
        (("decompose", "--field", "Q[i]", "--map", f"translate({SEVENS}*{SEVENS}, 0)"),
         1, 6000),
        (("verify-identities", "--field", f"Q[sqrt {SEVENS}*{SEVENS}+1][i]",
          "--samples", "2"), 1, 6000),
        (("lemma3-chain", "--field", "Q[i]", "--point", f"({OVER_LIMIT} + {OVER_LIMIT}*i, 0)"),
         1, 5002),
        # the AlreadySquare refusal names the radicand N*N
        (("verify-identities", "--field", f"Q[sqrt {SEVENS}*{SEVENS}][i]"), 2, 6000),
    ], ids=["decompose", "verify-identities", "lemma3-chain", "prepare"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_refused_without_traceback(self, argv, code, digits, fmt):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(bqplane.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "bqplane.cli", *argv, "--format", fmt],
            env=env, capture_output=True, text=True, timeout=120)
        message = (f"cannot print a coefficient of {digits} digits:"
                   f" integers print with at most {DIGIT_LIMIT} digits")
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if code == 2:
            assert proc.stdout == "" and proc.stderr == f"bq: error: {message}\n"
        elif fmt == "json":
            failure = _json_records(proc.stdout)[-2]
            assert failure == {"record": "failure", "error": "DigitLimitExceeded",
                               "detail": message}
        else:
            assert proc.stdout.endswith(f"FAILURE DigitLimitExceeded: {message}\nFAIL\n")


class TestRationalDecompose:
    def test_default_samples_return(self):
        # Q has only 111 probe values, fewer than the 200 default samples:
        # the probe set stops at them instead of waiting for more
        env = dict(os.environ,
                   PYTHONPATH=str(Path(bqplane.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "bqplane.cli", "decompose", "--field", "Q",
             "--map", "rot(3/5, 4/5)", "--format", "json"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert '"verified_on": "samples(200,seed=1729)"' in proc.stdout


class TestMapMixes:
    """Expressions mixing lambda, xi and eta with isometries and
    homomorphisms, over GF(13) and Q[sqrt 2][i]: stdout and exit codes
    of both decomposition routes in both formats, as captured before
    every expression map became one normal form."""

    CASES = json.loads(Path(__file__).with_name("cli_map_mixes.json")
                       .read_text(encoding="utf-8"))

    @pytest.mark.parametrize("case", CASES, ids=[f"mix{n:02d}" for n in range(len(CASES))])
    def test_output_matches_golden(self, run, case):
        code, out, _ = run(*case["argv"])
        assert (code, out) == (case["code"], case["stdout"])

    @pytest.mark.parametrize("expr", [
        "hom(conj@1) . rot(1 - r1, 2*r2 - r1*r2)",
        "hom(conj@1)",
        "hom(conj@1) . lambda(r2)",
    ])
    def test_non_catalog_conjugation_exits_two(self, run, expr):
        # conj@1 moves the radicand 1 + sqrt 2 of the next level, so it
        # is no automorphism of this field
        code, out, err = run("decompose", "--field", "Q[sqrt 2][sqrt (1 + r1)][i]",
                             "--map", expr)
        assert code == 2 and out == ""
        assert "conj@1" in err and "Q[sqrt 2][sqrt 1 + r1][i]" in err


class TestOutputStability:
    def test_json_is_byte_identical_across_runs(self, run):
        argv = ("witness-nonisometry", "--samples", "40", "--format", "json")
        _, first, _ = run(*argv)
        _, second, _ = run(*argv)
        assert first == second

    def test_sampled_json_stable_for_fixed_seed(self, run):
        argv = ("verify-identities", "--field", "Q[i]", "--samples", "30",
                "--format", "json", "--seed", "5")
        _, first, _ = run(*argv)
        _, second, _ = run(*argv)
        assert first == second

    def test_json_lines_have_sorted_keys(self, run):
        _, out, _ = run("enumerate-ortho", "--field", "GF(13)",
                        "--format", "json")
        for line in out.strip().splitlines():
            assert json.dumps(json.loads(line), sort_keys=True) == line

    def test_timing_is_additive_only(self, run):
        base = ("witness-nonisometry", "--samples", "30", "--format", "json")
        _, plain, _ = run(*base)
        _, timed, _ = run(*base, "--timing")
        timed_lines = [line for line in timed.splitlines()
                       if json.loads(line)["record"] != "timing"]
        assert timed_lines == plain.splitlines()
        assert any(json.loads(line)["record"] == "timing"
                   for line in timed.splitlines())

    def test_text_timing_line(self, run):
        _, out, _ = run("enumerate-ortho", "--field", "GF(13)", "--timing")
        assert any(line.startswith("elapsed:") for line in out.splitlines())
