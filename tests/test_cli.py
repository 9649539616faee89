import json
import os
import subprocess
import sys

import pytest

from jacobsthal.cli import CliConfig, H_TABLE_ENV, run


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


def test_h_not_tabulated_fails(capsys):
    code, _, err = _run(capsys, "h", "21")
    assert code == 1
    assert "error" in err
    code, _, err = _run(capsys, "h", "5", "--table-only")
    assert code == 0
    code, _, err = _run(capsys, "h", "21", "--table-only")
    assert code == 1


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
    # the wheel engine, its positions routine, or the independent
    # prime-order oracle, called directly rather than through the CLI
    from jacobsthal.cover import _Search
    from oracles import prime_order_cover
    if search == "prime-order":
        return prime_order_cover(length, primes)
    engine = _Search(length, primes, None)
    if search == "positions":
        return engine.search_positions()
    return engine.search_wheel()


@pytest.mark.parametrize("search", ["wheel", "positions", "prime-order"])
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


def test_find_prime_emits_certificate(capsys):
    code, out, err = _run(capsys, "find-prime", "9", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["prime"] == "23"
    assert payload["a"] == "2"
    assert payload["d"] == "7"
    assert payload["m"] == "-1"
    assert "certified prime 23" in err


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


def test_primes_human(capsys):
    code, out, err = _run(capsys, "primes", "1", "3", "--count", "2")
    assert code == 0
    assert out == "7\n97\n"
    assert "1+12Z" in err


def test_primes_json(capsys):
    code, out, _ = _run(capsys, "primes", "0", "1", "--count", "3", "--json")
    payload = json.loads(out)
    assert [item["prime"] for item in payload] == ["3", "5", "17"]


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


def test_env_table_and_flag_precedence(tmp_path, capsys, monkeypatch):
    env_table = tmp_path / "env_table.txt"
    env_table.write_text("50,762,paper\n")
    flag_table = tmp_path / "flag_table.txt"
    flag_table.write_text("54,858,paper\n")
    monkeypatch.setenv(H_TABLE_ENV, str(env_table))
    code, out, _ = _run(capsys, "max-d", "--max-compute-k", "8", "--json")
    assert json.loads(out) == {"mode": "unconditional", "max_d": 71, "k": 50}
    code, out, _ = _run(capsys, "max-d", "--max-compute-k", "8", "--json",
                        "--table", str(flag_table))
    assert json.loads(out) == {"mode": "unconditional", "max_d": 76, "k": 54}


@pytest.mark.parametrize("argv", [
    ("g",),                          # missing argument
    ("g", "0"),                      # domain of n
    ("g", "10", "--max-seconds", "0"),  # invalid time budget
    ("frobnicate",),                 # unknown subcommand
    ("bound-table", "--ks", "5,x"),  # malformed list
    ("h", "5", "--compute", "--table-only"),  # mutually exclusive
])
def test_usage_errors(capsys, argv):
    code, _, _ = _run(capsys, *argv)
    assert code == 2


def test_verify_missing_file(capsys):
    code, _, err = _run(capsys, "verify", "/nonexistent/cert.json")
    assert code == 2
    assert "usage error" in err


def test_cli_config_validation():
    with pytest.raises(ValueError):
        CliConfig(mode="hopeful")
    with pytest.raises(ValueError):
        CliConfig(max_nodes=0)


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
    proc = _spawn("max-d", "--max-compute-k", "8", "--json",
                  env_extra={H_TABLE_ENV: str(env_table)})
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"mode": "unconditional",
                                       "max_d": 71, "k": 50}
