import json
import os
import subprocess
import sys

import pytest

from jacobsthal import cli, cover
from jacobsthal.certify import int_to_decimal
from jacobsthal.cli import H_TABLE_ENV, run


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(H_TABLE_ENV, raising=False)


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _spawn(*argv, env_extra=None):
    env = {k: v for k, v in os.environ.items() if k != H_TABLE_ENV}
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "jacobsthal", *argv],
                          capture_output=True, text=True, env=env)


def test_g_human(capsys):
    code, out, err = _run(capsys, "g", "10")
    assert code == 0
    assert "g(10) = 4" in out
    assert "witness: 4..6" in out


def test_g_one_has_no_witness_line(capsys):
    code, out, _ = _run(capsys, "g", "1")
    assert code == 0
    assert out == "g(1) = 1\n"


def test_g_json(capsys):
    code, out, _ = _run(capsys, "g", "10", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": "10", "g": 4, "witness_start": "4",
                       "witness_length": 3}


def test_g_past_the_digit_limit(capsys):
    # 10^5000 has more digits than int() and str() take by default
    n = "1" + "0" * 5000
    code, out, _ = _run(capsys, "g", n)
    assert code == 0
    assert out.startswith(f"g({n}) = 4\n")
    code, out, _ = _run(capsys, "g", n, "--json")
    assert code == 0
    assert json.loads(out) == {"n": n, "g": 4, "witness_start": "4",
                               "witness_length": 3}
    for argv, error in ((["g", "x" * 5000], "not an integer"),
                        (["g", "10", "--max-seconds", "x" * 5000],
                         "not a number")):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, "")
        assert error in err and len(err) < 1000


def test_h_tabulated(capsys):
    code, out, _ = _run(capsys, "h", "5")
    assert code == 0
    assert "h(5) = 14 (paper)" in out
    assert "least witness: 114..126" in out


def test_h_json(capsys):
    code, out, _ = _run(capsys, "h", "5", "--json")
    payload = json.loads(out)
    assert payload == {"k": 5, "h": 14, "source": "paper",
                       "witness": {"start": "114", "length": 13,
                                   "least": True}}


def test_h_computed_small(capsys):
    code, out, _ = _run(capsys, "h", "2", "--compute")
    assert code == 0
    assert "h(2) = 4 (computed)" in out
    assert "least witness: 2..4" in out


def test_h_computed_large_period_uses_search_witness(capsys):
    # the period of the first 9 primes is too big to sieve for the least
    # run, so the displayed witness comes from the search assignment
    code, out, _ = _run(capsys, "h", "9", "--compute")
    assert code == 0
    assert "h(9) = 40 (computed)" in out
    assert "least" not in out
    assert "witness:" in out


# `h K --compute --json` for periods too big to sieve: each payload carries
# the witness of the walk that h_of ran
COMPUTED_H_PAYLOADS = {
    9: {"h": 40, "k": 9, "source": "computed",
        "witness": {"least": False, "length": 39, "start": "140722742"}},
    10: {"h": 46, "k": 10, "source": "computed",
         "witness": {"least": False, "length": 45, "start": "417086648"}},
    11: {"h": 58, "k": 11, "source": "computed",
         "witness": {"least": False, "length": 57, "start": "125601285782"}},
    12: {"h": 66, "k": 12, "source": "computed",
         "witness": {"least": False, "length": 65,
                     "start": "5546972216582"}},
}


@pytest.mark.parametrize("k", sorted(COMPUTED_H_PAYLOADS))
def test_h_compute_json_is_pinned(capsys, k):
    code, out, _ = _run(capsys, "h", str(k), "--compute", "--json")
    assert code == 0
    assert out == json.dumps(COMPUTED_H_PAYLOADS[k], sort_keys=True,
                             indent=2) + "\n"


def test_h_not_tabulated_fails(capsys):
    code, _, err = _run(capsys, "h", "21")
    assert code == 1
    assert "error" in err
    code, _, err = _run(capsys, "h", "5", "--max-compute-k", "0")
    assert code == 0
    code, out, err = _run(capsys, "h", "21", "--max-compute-k", "0")
    assert (code, out) == (1, "")
    assert err == ("error: h(21) is not tabulated and k exceeds the compute "
                   "cap 0\n")


def test_h_compute_budget_bounds_the_whole_walk(capsys):
    # the k = 17 walk spends 70,447 nodes in all, its largest search 70,332
    code, out, err = _run(capsys, "h", "17", "--compute",
                          "--max-nodes", "70400")
    assert (code, out) == (3, "")
    assert err == "budget exhausted: cover search passed 70400 nodes\n"


def test_h_compute_leaves_the_callers_policy_unchanged(monkeypatch, capsys):
    # --compute hands h_of a copy whose cap reaches k, not the policy itself
    policy = cover.ComputePolicy(max_compute_k=0)
    monkeypatch.setattr(cli, "_policy", lambda args: policy)
    seen = []
    h_of = cover.h_of
    monkeypatch.setattr(cover, "h_of", lambda k, table, given:
                        seen.append(given) or h_of(k, table, given))
    code, out, _ = _run(capsys, "h", "12", "--compute")
    assert (code, out.splitlines()[0]) == (0, "h(12) = 66 (computed)")
    assert policy == cover.ComputePolicy(0, None)
    assert seen == [cover.ComputePolicy(12, None)]


def test_h_compute_flags_table_mismatch(tmp_path, capsys):
    lying = tmp_path / "table.txt"
    lying.write_text("5,16,paper\n")
    code, _, err = _run(capsys, "h", "5", "--compute", "--table", str(lying))
    assert code == 1
    assert "refusing" in err


def test_h_search_coverable(capsys):
    code, out, _ = _run(capsys, "h-search", "13", "--primes", "5")
    assert code == 0
    assert "coverable: offsets" in out
    assert "witness: 114..126" in out


def _reference_cover(search, length, primes):
    # the engine's coverable, which the CLI wraps, or the independent
    # prime-order oracle, called directly rather than through the CLI
    from jacobsthal.cover import coverable
    from oracles import prime_order_cover
    if search == "prime-order":
        return prime_order_cover(length, primes)
    return coverable(length, primes)


@pytest.mark.parametrize("search", ["wheel", "prime-order"])
def test_h_search_strategies_agree(capsys, search):
    # the CLI's decision against each search run directly
    from jacobsthal.cover import verify_cover
    for length in (13, 14):
        code, out, _ = _run(capsys, "h-search", str(length), "--primes", "5",
                            "--json")
        assert code == 0
        payload = json.loads(out)
        reference = _reference_cover(search, length, (2, 3, 5, 7, 11))
        assert payload["coverable"] is (reference is not None), length
        if payload["coverable"]:
            start = int(payload["witness_start"])
            assert verify_cover(start, length,
                                [p for p, _ in payload["offsets"]])


def test_h_search_not_coverable(capsys):
    code, out, _ = _run(capsys, "h-search", "14", "--primes", "5")
    assert code == 0
    assert "not coverable" in out


def test_h_search_json(capsys):
    code, out, _ = _run(capsys, "h-search", "13", "--primes", "5", "--json")
    payload = json.loads(out)
    assert payload["coverable"] is True
    assert payload["witness_start"] == "114"
    assert sorted(p for p, _ in payload["offsets"]) == [2, 3, 5, 7, 11]


def test_h_search_budget_exit(capsys):
    code, _, err = _run(capsys, "h-search", "34", "--primes", "8",
                        "--max-nodes", "5")
    assert code == 3
    assert "budget" in err


def test_witness_lower(capsys):
    code, out, _ = _run(capsys, "witness-lower", "5")
    assert code == 0
    assert out.startswith("114..126: 13 consecutive integers")


def test_iso_marked_window(capsys):
    code, out, _ = _run(capsys, "iso", "1", "3", "--k", "2", "--window", "2")
    assert code == 0
    assert "c = 4" in out
    assert "maps Z onto 1+3Z" in out
    cells = [tuple(line.split()) for line in out.splitlines()[1:-1]]
    assert ("[1]", "[7]") in cells
    assert ("[-1]", "[1]") in cells
    assert ("0", "4") in cells  # unmarked on both sides
    assert "brackets mark integers coprime to 6" in out


def test_iso_json(capsys):
    code, out, _ = _run(capsys, "iso", "1", "3", "--k", "2", "--window", "2",
                        "--json")
    payload = json.loads(out)
    assert payload["c"] == "4"
    assert len(payload["rows"]) == 5
    for row in payload["rows"]:
        assert row["n_coprime"] == row["image_coprime"]


def _both_formats(capsys, *argv):
    code, text, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    code, out, err = _run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    return text, json.loads(out)


def test_iso_past_the_digit_limit(capsys):
    from jacobsthal.arith import first_primes, primorial
    from jacobsthal.progressions import coprime_iso, make_eligible
    iso = coprime_iso(make_eligible(1, 7), first_primes(2000))
    c, below, above, modulus = (int_to_decimal(n) for n in (
        iso.c, iso(-1), iso(1), primorial(2000)))
    assert min(len(c), len(below), len(above), len(modulus)) > 4300
    text, payload = _both_formats(capsys, "iso", "1", "7", "--k", "2000",
                                  "--window", "1")
    assert text.startswith(f"c = {c}: n -> {c} + 7*n maps Z onto 1+7Z")
    assert f"[{below}]" in text and f"[{above}]" in text
    assert f"coprime to {modulus};" in text
    assert payload["c"] == c
    assert [row["image"] for row in payload["rows"]] == [below, c, above]


def test_witness_lower_past_the_digit_limit(capsys):
    from jacobsthal.cover import elementary_lower_witness
    witness = elementary_lower_witness(2000)
    start = int_to_decimal(witness.start)
    last = int_to_decimal(witness.start + witness.length - 1)
    assert len(start) > 4300
    text, payload = _both_formats(capsys, "witness-lower", "2000")
    assert text.startswith(f"{start}..{last}: {witness.length} consecutive")
    assert payload == {"n": 2000, "start": start, "length": witness.length}


def test_h_search_past_the_digit_limit(capsys):
    from jacobsthal.arith import first_primes
    from jacobsthal.cover import coverable, witness_integer
    witness = witness_integer(coverable(3, first_primes(2000)))
    start = int_to_decimal(witness.start)
    last = int_to_decimal(witness.start + 2)
    assert len(start) > 4300
    text, payload = _both_formats(capsys, "h-search", "3", "--primes", "2000")
    assert text.splitlines()[1] == f"witness: {start}..{last}"
    assert payload["witness_start"] == start


def test_find_prime_emits_certificate(capsys):
    code, out, err = _run(capsys, "find-prime", "9", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["prime"] == "23"
    assert payload["a"] == "2"
    assert payload["d"] == "7"
    assert payload["m"] == "-1"
    assert "certified prime 23" in err


def test_find_prime_summary_cuts_a_long_c(capsys):
    # stdout is the full certificate; stderr shows at most 40 digits of c
    code, out, err = _run(capsys, "find-prime", "1", "5", "--mode", "cw")
    assert code == 0
    c = json.loads(out)["c"]
    assert len(c) == 91
    assert err == (f"certified prime 241 in 1+5Z (k = 50, c = {c[:40]}... "
                   "(91 digits), mode cw)\n")
    code, out, err = _run(capsys, "find-prime", "2", "7")
    assert err == ("certified prime 23 in 2+7Z (k = 4, c = 30, "
                   "mode unconditional)\n")


def test_find_prime_rejects_ineligible(capsys):
    code, out, err = _run(capsys, "find-prime", "4", "6")
    assert code == 1
    assert out == ""
    assert "error" in err


def test_verify_round_trip(tmp_path, capsys):
    code, out, _ = _run(capsys, "find-prime", "1", "3")
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out)
    code, out, _ = _run(capsys, "verify", str(cert_file))
    assert code == 0
    assert out.startswith("ok: 7 in 1+3Z")


def test_verify_rejects_corrupted(tmp_path, capsys):
    code, out, _ = _run(capsys, "find-prime", "1", "3")
    payload = json.loads(out)
    payload["prime"] = "25"
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(payload))
    code, out, _ = _run(capsys, "verify", str(cert_file))
    assert code == 1
    assert "FAIL: 25 in 1+3Z" in out


def test_verify_reports_a_prime_past_the_digit_limit(tmp_path, capsys):
    code, out, _ = _run(capsys, "find-prime", "1", "3")
    payload = json.loads(out)
    prime = payload["prime"] = int_to_decimal(10**5000 + 1)
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(payload))
    code, out, err = _run(capsys, "verify", str(cert_file))
    assert (code, err) == (1, "")
    assert out.startswith(f"FAIL: {prime} in 1+3Z")
    code, out, err = _run(capsys, "verify", str(cert_file), "--json")
    assert (code, err) == (1, "")
    assert json.loads(out)["prime"] == prime


def test_verify_array_file(tmp_path, capsys):
    _, first, _ = _run(capsys, "find-prime", "1", "3")
    _, second, _ = _run(capsys, "find-prime", "9", "7")
    cert_file = tmp_path / "certs.json"
    cert_file.write_text(f"[{first.rstrip()}, {second.rstrip()}]")
    code, out, _ = _run(capsys, "verify", str(cert_file), "--json")
    assert code == 0
    payload = json.loads(out)
    assert [item["ok"] for item in payload] == [True, True]
    assert [item["prime"] for item in payload] == ["7", "23"]


def test_verify_empty_array_is_an_error(tmp_path, capsys):
    cert_file = tmp_path / "certs.json"
    cert_file.write_text("[]\n")
    code, out, err = _run(capsys, "verify", str(cert_file))
    assert (code, out) == (1, "")
    assert err == f"error: {cert_file} holds no certificates\n"


@pytest.mark.parametrize("text", ["1" * 5000, "[" + "1" * 5000 + "]"],
                         ids=["bare", "in-array"])
def test_verify_number_past_the_digit_limit_is_not_json(tmp_path, capsys,
                                                        text):
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(text)
    code, out, err = _run(capsys, "verify", str(cert_file))
    assert (code, out) == (1, "")
    assert err.startswith("error: certificate is not valid JSON: ")


def test_primes_human(capsys):
    code, out, err = _run(capsys, "primes", "1", "3", "--count", "2")
    assert code == 0
    assert out == "7\n97\n"
    assert "1+12Z" in err


def test_primes_json(capsys):
    code, out, _ = _run(capsys, "primes", "0", "1", "--count", "3", "--json")
    payload = json.loads(out)
    assert [item["prime"] for item in payload] == ["3", "5", "17"]


def test_find_prime_with_compute_cap_zero_never_runs_the_engine(
        tmp_path, capsys, monkeypatch):
    table = tmp_path / "table.txt"
    table.write_text("1,2,computed\n2,4,computed\n")
    with monkeypatch.context() as patched:
        def no_engine(*args, **kwargs):
            raise AssertionError("the exact search ran")

        patched.setattr(cover, "max_cover_length", no_engine)
        code, out, err = _run(capsys, "find-prime", "1", "7", "--table",
                              str(table), "--max-compute-k", "0")
    assert (code, out) == (1, "")
    assert "no available bound reaches d = 7 (largest provable: 4)" in err
    # the default cap lets the engine compute h(3) and h(4)
    code, out, _ = _run(capsys, "find-prime", "1", "7", "--table", str(table))
    assert code == 0
    assert json.loads(out)["prime"] == "29"


def test_primes_not_provable(capsys):
    code, _, err = _run(capsys, "primes", "1", "77", "--count", "1")
    assert code == 1
    assert "76" in err


def test_bound_table_default(capsys):
    code, out, _ = _run(capsys, "bound-table")
    assert code == 0
    assert "11.133" in out
    assert "71.149" in out
    assert len(out.splitlines()) == 11  # header + ten rows


def test_bound_table_chosen_k(capsys):
    code, out, _ = _run(capsys, "bound-table", "--ks", "54")
    assert code == 0
    assert "257" in out and "858" in out and "76.888" in out


def test_bound_table_cw_mode(capsys):
    code, out, _ = _run(capsys, "bound-table", "--ks", "50", "--mode", "cw",
                        "--json")
    payload = json.loads(out)
    assert payload == [{"k": 50, "next_prime": 233, "h": 2714,
                        "h_source": "cw", "value": "19.995"}]


def test_max_d(capsys):
    code, out, _ = _run(capsys, "max-d")
    assert code == 0
    assert "max certifiable modulus: 76 (k = 54" in out


def test_max_d_cw_json(capsys):
    code, out, _ = _run(capsys, "max-d", "--mode", "cw", "--json")
    payload = json.loads(out)
    assert payload == {"mode": "cw", "max_d": 42, "k": 8119}


def test_max_d_of_an_empty_table(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text("# no rows\n")
    code, out, _ = _run(capsys, "max-d", "--table", str(table))
    assert (code, out) == (0, "no bounds available (empty table)\n")
    code, out, _ = _run(capsys, "max-d", "--table", str(table), "--json")
    assert code == 0
    assert json.loads(out) == {"k": None, "max_d": 0,
                               "mode": "unconditional"}


def test_env_table_and_flag_precedence(tmp_path, capsys, monkeypatch):
    env_table = tmp_path / "env_table.txt"
    env_table.write_text("50,762,paper\n")
    flag_table = tmp_path / "flag_table.txt"
    flag_table.write_text("54,858,paper\n")
    monkeypatch.setenv(H_TABLE_ENV, str(env_table))
    code, out, _ = _run(capsys, "max-d", "--json")
    assert json.loads(out) == {"mode": "unconditional", "max_d": 71, "k": 50}
    code, out, _ = _run(capsys, "max-d", "--json", "--table", str(flag_table))
    assert json.loads(out) == {"mode": "unconditional", "max_d": 76, "k": 54}


@pytest.mark.parametrize("argv", [
    ("g",),                          # missing argument
    ("g", "0"),                      # domain of n
    ("g", "10", "--max-seconds", "0"),  # invalid time budget
    ("frobnicate",),                 # unknown subcommand
    ("bound-table", "--ks", "5,x"),  # malformed list
    ("h", "5", "--table-only"),      # removed: --max-compute-k 0 says it
    ("find-prime", "1", "3", "--mode", "hopeful"),  # unknown mode
    ("h-search", "13", "--primes", "5", "--max-nodes", "0"),  # node budget
    ("find-prime", "1", "3", "--json"),  # removed: stdout is always JSON
    ("max-d", "--max-compute-k", "8"),   # removed: max-d never computes
])
def test_usage_errors(capsys, argv):
    code, _, _ = _run(capsys, *argv)
    assert code == 2


def test_verify_missing_file(capsys):
    code, _, err = _run(capsys, "verify", "/nonexistent/cert.json")
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize("argv", [
    ("verify",), ("h", "3", "--table"), ("max-d", "--table"),
])
def test_unreadable_path_is_a_usage_error(tmp_path, capsys, argv):
    # a directory where a file belongs fails to open, like a missing file
    code, out, err = _run(capsys, *argv, str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ")


# --- fresh-process checks ----------------------------------------------------

def test_subprocess_g():
    proc = _spawn("g", "10")
    assert proc.returncode == 0
    assert "g(10) = 4" in proc.stdout


def test_subprocess_certificate_round_trip(tmp_path):
    first = _spawn("find-prime", "9", "7")
    assert first.returncode == 0
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(first.stdout)
    second = _spawn("verify", str(cert_file))
    assert second.returncode == 0
    assert second.stdout.startswith("ok: 23 in 2+7Z")


def test_subprocess_output_is_byte_stable(tmp_path):
    runs = [_spawn("find-prime", "9", "7") for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    tables = [_spawn("bound-table", "--json") for _ in range(2)]
    assert tables[0].stdout == tables[1].stdout
    assert json.loads(tables[0].stdout)[0]["value"] == "11.133"


def test_subprocess_env_table(tmp_path):
    env_table = tmp_path / "env_table.txt"
    env_table.write_text("50,762,paper\n")
    proc = _spawn("max-d", "--json", env_extra={H_TABLE_ENV: str(env_table)})
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"mode": "unconditional",
                                       "max_d": 71, "k": 50}
