import json

import pytest

from bqplane.cli import MAX_SEARCH_P, run_command
from bqplane.geometry import all_points
from bqplane.maps import identity_map, raw_image_table
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
    raw = raw_image_table(identity_map(gf13), gf13)
    raw[0], raw[70] = raw[70], raw[0]
    pts = all_points(gf13)
    text = format_table_lines({pts[i]: pts[raw[i]] for i in range(169)})
    path = tmp_path / "bad_table.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def duplicate_table_file(tmp_path, gf13):
    lines = format_table_lines(
        {pt: pt for pt in all_points(gf13)}).splitlines()
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

    def test_lemma3_chain(self, run):
        code, out, _ = run("lemma3-chain", "--point", "(1 + 2*i, 3 + i)",
                           "--field", "Q[i]", "--format", "json")
        assert code == 0
        recs = _json_records(out)
        certs = next(r for r in recs if r["record"] == "psi_certificates")
        assert certs["values"][:2] == ["4", "2"]

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
        assert code == 0
        assert out.splitlines()[0] == "search-preservers p=13 budget=0"

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

    def test_corrupt_table(self, run, corrupt_table_file):
        code, out, _ = run("decompose", "--field", "GF(13)",
                           "--table", corrupt_table_file, "--format", "json")
        assert code == 1
        failure = next(r for r in _json_records(out)
                       if r["record"] == "failure")
        assert failure["error"] == "FrameNotOrthonormal"

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
    ])
    def test_exit_code_two(self, run, argv):
        code, out, err = run(*argv)
        assert code == 2
        assert "error:" in err

    def test_duplicate_table_line(self, run, duplicate_table_file):
        code, out, err = run("decompose", "--field", "GF(13)",
                             "--table", duplicate_table_file)
        assert code == 2 and out == ""
        assert "line 170" in err and "line 5" in err

    def test_search_prime_above_bound(self, run):
        # 73 is the first p = 1 mod 4 above the bound; the budget keeps a
        # missing bound from turning this into a full census
        assert MAX_SEARCH_P < 73
        code, out, err = run("search-preservers", "--p", "73", "--budget", "0")
        assert code == 2 and out == ""
        assert f"p <= {MAX_SEARCH_P}" in err


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
