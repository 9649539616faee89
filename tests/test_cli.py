import json
import os

import pytest

from jacobsthal import cli, cover
from jacobsthal.arith import primorial
from jacobsthal.certify import certificate_from_json, int_to_decimal
from jacobsthal.cli import run
from conftest import run_python


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _spawn(*argv, flags=()):
    return run_python(*flags, "-m", "jacobsthal", *argv)


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


@pytest.mark.parametrize("text", ["1_0", "\u0661\u0660", "+10", " 10"],
                         ids=["underscore", "arabic-indic", "plus", "space"])
@pytest.mark.parametrize("padding", [0, 4400])
def test_an_integer_argument_is_a_minus_and_ascii_digits(capsys, text,
                                                         padding):
    # int() reads each short text as 10; an argument, short or past the
    # digit limit, takes only an optional '-' and ASCII digits
    text += "0" * padding
    code, out, err = _run(capsys, "g", text)
    assert (code, out) == (2, "")
    assert "not an integer" in err and len(err) < 1000


@pytest.mark.parametrize("text, error", [
    ("inf", "must be finite, got 'inf'"),
    ("infinity", "must be finite, got 'infinity'"),
    ("1e400", "must be finite, got '1e400'"),
    ("\u0661", "not a number: '\u0661'"),
    ("1_0", "not a number: '1_0'"),
    (" 1 ", "not a number: ' 1 '"),
], ids=["inf", "infinity", "past-the-float-range", "arabic-indic",
        "underscore", "spaces"])
def test_a_time_budget_is_a_finite_ascii_number(capsys, text, error):
    # float() reads each of these; 'inf' would mean no limit at all
    code, out, err = _run(capsys, "g", "10", "--max-seconds", text)
    assert (code, out) == (2, "")
    assert f"--max-seconds: {error}" in err


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


# `h K --compute --json` for periods small enough to scan: (h, start) of
# the least run of h - 1 integers, each divisible by one of the first K
# primes
LEAST_H_RUNS = {
    1: (2, "2"),
    2: (4, "2"),
    3: (6, "2"),
    4: (10, "2"),
    5: (14, "114"),
    6: (22, "9440"),
    7: (26, "217128"),
    8: (34, "60044"),
}


@pytest.mark.parametrize("k", sorted(LEAST_H_RUNS))
def test_h_compute_json_least_witness_is_pinned(capsys, k):
    h, start = LEAST_H_RUNS[k]
    code, out, _ = _run(capsys, "h", str(k), "--compute", "--json")
    assert code == 0
    expected = {"h": h, "k": k, "source": "computed",
                "witness": {"least": True, "length": h - 1, "start": start}}
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


# `g P_K --json`: (P_K, g, start of the first longest run)
PRIMORIAL_G_RUNS = {
    1: ("2", 2, "2"),
    2: ("6", 4, "2"),
    3: ("30", 6, "2"),
    4: ("210", 10, "2"),
    5: ("2310", 14, "114"),
    6: ("30030", 22, "9440"),
    7: ("510510", 26, "217128"),
    8: ("9699690", 34, "60044"),
}


@pytest.mark.parametrize("k", sorted(PRIMORIAL_G_RUNS))
def test_g_of_a_primorial_json_is_pinned(capsys, k):
    n, g, start = PRIMORIAL_G_RUNS[k]
    code, out, _ = _run(capsys, "g", n, "--json")
    assert code == 0
    expected = {"g": g, "n": n, "witness_length": g - 1,
                "witness_start": start}
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_h_not_tabulated_fails(capsys):
    code, out, err = _run(capsys, "h", "21")
    assert (code, out) == (1, "")
    assert err == ("error: h(21) is not tabulated and k exceeds the compute "
                   "cap 12\n")


def test_h_compute_budget_bounds_the_whole_walk(capsys):
    # the k = 17 walk spends 70,447 nodes in all, its largest search 70,332
    code, out, err = _run(capsys, "h", "17", "--compute",
                          "--max-nodes", "70400")
    assert (code, out) == (3, "")
    assert err == "budget exhausted: cover search passed 70400 nodes\n"


def test_h_hands_h_of_its_table_cap_and_budget(monkeypatch, capsys):
    # plain h reads the loaded table under the default cap; --compute
    # starts from an empty table with a cap that reaches k
    loaded = cover.default_h_table()
    monkeypatch.setattr(cli, "default_h_table", lambda: loaded)
    seen = []
    h_of = cover.h_of

    def spy(k, table, *, budget=None, max_compute_k=12):
        seen.append((k, table, len(table.ks()), budget, max_compute_k))
        return h_of(k, table, budget=budget, max_compute_k=max_compute_k)

    monkeypatch.setattr(cover, "h_of", spy)
    code, out, _ = _run(capsys, "h", "5")
    assert (code, out.splitlines()[0]) == (0, "h(5) = 14 (paper)")
    code, out, _ = _run(capsys, "h", "9", "--compute", "--max-nodes",
                        "1000000")
    assert (code, out.splitlines()[0]) == (0, "h(9) = 40 (computed)")
    assert [(k, table is loaded, size, budget, cap)
            for k, table, size, budget, cap in seen] == [
        (5, True, len(loaded.ks()), None, 12),
        (9, False, 0, cover.SearchBudget(1000000, None), 9)]


def test_h_compute_flags_table_mismatch(tmp_path, capsys):
    lying = tmp_path / "table.txt"
    lying.write_text("5,16,paper\n")
    code, _, err = _run(capsys, "h", "5", "--compute", "--table", str(lying))
    assert code == 1
    assert "refusing" in err


def test_a_table_row_past_the_prime_index_cap_is_a_bad_row(tmp_path,
                                                          capsys):
    # refused as a row (exit 1), not as an exhausted search (exit 3)
    table = tmp_path / "table.txt"
    table.write_text("1,2,paper\n5000000,10,paper\n")
    code, out, err = _run(capsys, "max-d", "--table", str(table))
    assert (code, out) == (1, "")
    assert err == ("error: line 2: k is too large: prime index 4999999 "
                   "beyond supported cap 4000000\n")


@pytest.mark.parametrize("row, argv, found", [
    ("8,40,paper", ("h", "8"), 34),             # no run of 39 in the period
    ("5,16,paper", ("h", "5", "--json"), 14)])
def test_h_refuses_a_row_the_period_scan_contradicts(tmp_path, capsys, row,
                                                     argv, found):
    lying = tmp_path / "table.txt"
    lying.write_text(row + "\n")
    code, out, err = _run(capsys, *argv, "--table", str(lying))
    k, h = row.split(",")[:2]
    assert (code, out) == (1, "")
    assert err == (f"error: a scan of one period finds h({k}) = {found} but "
                   f"the paper value is {h}; refusing to report either\n")


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


def test_an_ample_time_budget_changes_nothing(capsys):
    plain = _run(capsys, "h", "12", "--compute", "--json")
    budgeted = _run(capsys, "h", "12", "--compute", "--max-seconds", "60",
                    "--json")
    assert plain[0] == 0 and budgeted == plain


def test_a_nan_time_budget_is_a_usage_error(capsys):
    # NaN compares false with everything, so it is no positive number of
    # seconds and must not read as "no limit"
    code, out, err = _run(capsys, "h", "9", "--compute", "--max-seconds",
                          "nan")
    assert (code, out) == (2, "")
    assert "--max-seconds: must be positive, got nan" in err


def test_h_search_time_budget_exit(capsys):
    # the time budget is checked at the first node, so a spent one stops it
    code, out, err = _run(capsys, "h-search", "65", "--primes", "12",
                          "--max-seconds", "1e-9")
    assert (code, out) == (3, "")
    assert err == "budget exhausted: cover search passed its time budget\n"


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
    from jacobsthal.arith import first_primes
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


def test_iso_with_a_modulus_past_the_digit_limit(capsys):
    # a and d print in full in both forms; JSON keeps a short one a
    # number and writes one past the digit limit as a string
    d = "1" * 5000
    text, payload = _both_formats(capsys, "iso", "1", d, "--k", "2",
                                  "--window", "1")
    assert f"+ {d}*n maps Z onto 1+{d}Z," in text.splitlines()[0]
    assert text.splitlines()[1].endswith(f"+{d}n")
    assert (payload["a"], payload["d"]) == (1, d)


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
    # 10**5000 + 1 is divisible by 17; 3*10**5000 + 7 has no factor up to
    # 41, so the primality test refuses it and its message must not raise
    code, out, _ = _run(capsys, "find-prime", "1", "3")
    payload = json.loads(out)
    for value in (10**5000 + 1, 3 * 10**5000 + 7):
        prime = payload["prime"] = int_to_decimal(value)
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(payload))
        code, out, err = _run(capsys, "verify", str(cert_file))
        assert (code, err) == (1, "")
        assert out.startswith(f"FAIL: {prime} in 1+3Z")
        assert "  - primality: " in out
        code, out, err = _run(capsys, "verify", str(cert_file), "--json")
        assert (code, err) == (1, "")
        assert json.loads(out)["prime"] == prime


def test_verify_reports_a_and_d_past_the_digit_limit(tmp_path, capsys):
    # a and d print in full; --json writes each as a number up to the
    # digit limit and as a decimal string past it, where json.loads could
    # not read it back as a number
    code, out, _ = _run(capsys, "find-prime", "1", "76")
    base = json.loads(out)
    cert_file = tmp_path / "cert.json"
    for field, value in (("a", "1" * 5000), ("d", "7" * 4301),
                         ("a", "1" * 4300)):
        payload = dict(base, **{field: value})
        cert_file.write_text(json.dumps(payload))
        code, out, err = _run(capsys, "verify", str(cert_file))
        assert (code, err) == (1, "")
        assert out.startswith(f"FAIL: 1597 in {payload['a']}+{payload['d']}Z "
                              "(mode unconditional)\n  - ")
        code, out, err = _run(capsys, "verify", str(cert_file), "--json")
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["ok"] is False and report["failures"]
        expected = value if len(value) > 4300 else int(value)
        assert (report[field], report["prime"]) == (expected, "1597")


_LONG = "1" * 5000
# the product of the first 2000 primes: 7483 digits
_P_2000 = int_to_decimal(primorial(2000))


@pytest.mark.parametrize("argv, code", [
    (["g", _LONG], 3),
    (["h", _LONG, "--compute"], 3),
    (["h-search", "3", "--primes", _LONG], 3),
    (["witness-lower", _LONG], 3),
    (["iso", "1", "7", "--k", _LONG], 3),
    (["h", _LONG], 1),
    (["find-prime", "1", _LONG], 1),
    (["primes", "1", _LONG, "--count", "1"], 1),
    (["find-prime", "3", "3" + "0" * 5000], 1),
    (["g", _P_2000], 3),
    (["bound-table", "--mode", "cw", "--ks", "1" * 4000], 1),
    (["bound-table", "--ks", _LONG], 1),
    (["bound-table", "--mode", "cw", "--ks", _LONG], 1),
], ids=["g", "h-compute", "h-search-primes", "witness-lower", "iso-k", "h",
        "find-prime", "primes", "find-prime-ineligible", "g-primorial",
        "bound-table-cw-4000", "bound-table", "bound-table-cw"])
def test_arguments_past_the_digit_limit_get_their_exit_code(capsys, argv,
                                                            code):
    # every message names a number of any size by at most 40 digits
    got, out, err = _run(capsys, *argv)
    assert (got, out) == (code, "")
    assert len(err) < 1000 and "Exceeds the limit" not in err


def test_g_names_the_number_it_cannot_factor(capsys):
    code, out, err = _run(capsys, "g", _LONG)
    assert (code, out) == (3, "")
    assert err == ("budget exhausted: cannot factor " + "1" * 40
                   + "... (5000 digits): a 4928-digit cofactor is past the "
                   "deterministic primality range\n")


def test_g_of_a_composite_past_the_primality_range(capsys):
    # 10000019 * (10**18 + 3): rho splits what the primality test cannot
    code, out, _ = _run(capsys, "g", "10000019000000000030000057")
    assert code == 0
    assert out.splitlines()[0] == "g(10000019000000000030000057) = 3"


@pytest.mark.parametrize("length", ["100000000000", _LONG],
                         ids=["11-digit", "5000-digit"])
def test_h_search_refuses_a_search_too_large_to_hold(monkeypatch, capsys,
                                                     length):
    # refused before the search is built: the stand-in fails if it is
    class Unbuilt:
        def __init__(self, *args):
            raise AssertionError("built an oversized search")

    monkeypatch.setattr(cover, "_Search", Unbuilt)
    code, out, err = _run(capsys, "h-search", length, "--primes", "3")
    assert (code, out) == (3, "")
    assert err.startswith("budget exhausted: a cover search over ")
    assert len(err) < 1000


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


@pytest.mark.parametrize("array", [False, True], ids=["object", "array-item"])
def test_verify_rejects_a_repeated_field(tmp_path, capsys, array):
    # json keeps the last of two equal keys, but a reader sees 1601 first
    _, out, _ = _run(capsys, "find-prime", "1", "76")
    text = out.replace("{\n", '{\n  "prime": "1601",\n', 1)
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(f"[{text}]" if array else text)
    code, out, err = _run(capsys, "verify", str(cert_file))
    assert (code, out) == (1, "")
    assert err == "error: certificate repeats the field 'prime'\n"


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


def test_primes_prints_what_it_certified_before_it_stopped(capsys):
    # d = 96 passes every bound after four primes: the four are printed,
    # their stderr lines come before the error, and the exit code is 1
    code, out, err = _run(capsys, "primes", "1", "3", "--count", "50")
    assert (code, out) == (1, "7\n97\n61\n229\n")
    notes = err.splitlines()
    assert [line.split()[2] for line in notes[:4]] == ["7", "97", "61", "229"]
    assert all(line.startswith("certified prime ") for line in notes[:4])
    assert notes[4].startswith("error: stream stopped after 4 of 50: ")
    assert len(notes) == 5
    # with nothing certified, stdout stays empty
    code, out, err = _run(capsys, "primes", "1", "77", "--count", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: stream stopped after 0 of 1: ")


def test_primes_json_prints_what_it_certified_before_it_stopped(capsys):
    code, out, err = _run(capsys, "primes", "1", "3", "--count", "50",
                          "--json")
    assert code == 1
    assert err.splitlines()[-1].startswith(
        "error: stream stopped after 4 of 50: ")
    # the same certificates a stream of four prints
    assert out == _run(capsys, "primes", "1", "3", "--count", "4",
                       "--json")[1]
    certs = [certificate_from_json(json.dumps(item))
             for item in json.loads(out)]
    assert [cert.prime for cert in certs] == [7, 97, 61, 229]
    code, out, _ = _run(capsys, "primes", "1", "77", "--count", "1", "--json")
    assert (code, out) == (1, "")


def test_find_prime_computes_the_rows_a_table_lacks(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text("1,2,computed\n2,4,computed\n")
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


@pytest.mark.parametrize("mode, ks, last", [
    ("unconditional", [5, 10, 15, 20, 25, 30, 35, 40, 45, 50], "71.149"),
    ("cw", [50, 100, 200, 500, 1000, 2000, 5000, 10000], "42.926"),
])
def test_bound_table_default_indices_per_mode(capsys, mode, ks, last):
    # without --ks each mode tabulates indices it has a bound for: cw mode's
    # lie in its range 50..10000
    code, out, err = _run(capsys, "bound-table", "--mode", mode, "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert [row["k"] for row in payload] == ks
    assert payload[-1]["value"] == last
    assert {row["h_source"] for row in payload} == (
        {"cw"} if mode == "cw" else {"paper"})


def test_max_d(capsys):
    code, out, _ = _run(capsys, "max-d")
    assert code == 0
    assert "max certifiable modulus: 76 (k = 54" in out


def test_max_d_cw_json(capsys):
    code, out, _ = _run(capsys, "max-d", "--mode", "cw", "--json")
    payload = json.loads(out)
    assert payload == {"mode": "cw", "max_d": 42, "k": 8119}


def test_max_d_of_an_empty_table(tmp_path, capsys):
    # the walk computes h(1..12), as find-prime's does
    table = tmp_path / "table.txt"
    table.write_text("# no rows\n")
    code, out, _ = _run(capsys, "max-d", "--table", str(table))
    assert (code, out) == (
        0, "max certifiable modulus: 25 (k = 12, mode unconditional)\n")
    code, out, _ = _run(capsys, "max-d", "--table", str(table), "--json")
    assert code == 0
    assert json.loads(out) == {"k": 12, "max_d": 25,
                               "mode": "unconditional"}


def test_max_d_is_the_largest_d_find_prime_names(tmp_path, capsys):
    # with rows k = 1, 2 only, max-d and find-prime walk the same bounds:
    # max-d prints the d that find-prime's refusal of the next d names
    table = tmp_path / "table.txt"
    table.write_text("1,2,computed\n2,4,computed\n")
    code, out, _ = _run(capsys, "max-d", "--table", str(table))
    assert (code, out) == (
        0, "max certifiable modulus: 25 (k = 12, mode unconditional)\n")
    code, out, _ = _run(capsys, "find-prime", "1", "25", "--table",
                        str(table))
    assert (code, certificate_from_json(out).k) == (0, 12)
    code, out, err = _run(capsys, "find-prime", "1", "26", "--table",
                          str(table))
    assert (code, out, err) == (1, "", "error: no available bound reaches "
                                "d = 26 (largest provable: 25)\n")


@pytest.mark.parametrize("argv", [
    ("g",),                          # missing argument
    ("g", "0"),                      # domain of n
    ("g", "10", "--max-seconds", "0"),  # invalid time budget
    ("frobnicate",),                 # unknown subcommand
    ("bound-table", "--ks", "5,x"),  # malformed list
    ("h", "5", "--table-only"),      # removed: a miss at k <= 12 is computed
    ("find-prime", "1", "3", "--mode", "hopeful"),  # unknown mode
    ("h-search", "13", "--primes", "5", "--max-nodes", "0"),  # node budget
    ("find-prime", "1", "3", "--json"),  # removed: stdout is always JSON
    ("max-d", "--max-compute-k", "8"),   # removed: max-d never computes
    # removed: certify commands compute under the default cap, no budget
    ("find-prime", "1", "3", "--max-compute-k", "0"),
    ("verify", os.devnull, "--max-nodes", "5"),  # not read: exit 2, not 1
    ("primes", "1", "3", "--count", "1", "--max-seconds", "1"),
    ("bound-table", "--max-compute-k", "0"),
    ("h", "5", "--max-compute-k", "0"),  # removed: h K --compute says it
    ("bound-table", "--ks", "5,0"),  # index below 1
    ("bound-table", "--ks", ""),     # empty list
])
def test_usage_errors(capsys, argv):
    code, _, _ = _run(capsys, *argv)
    assert code == 2


def test_only_h_takes_the_engine_flags(capsys):
    # the budget of a computed h(k) is h's to set; find-prime, verify,
    # primes and bound-table neither accept nor list it, and no command
    # takes a compute cap
    flags = ("--max-compute-k", "--max-nodes", "--max-seconds")
    listed = {}
    for command in ("h", "find-prime", "verify", "primes", "bound-table"):
        code, out, _ = _run(capsys, command, "--help")
        assert code == 0
        listed[command] = [flag for flag in flags if flag in out]
    assert listed == {"h": ["--max-nodes", "--max-seconds"], "find-prime": [],
                      "verify": [], "primes": [], "bound-table": []}


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


def test_subprocess_starts_without_pythonpath(monkeypatch):
    # a plain pytest from a checkout sets no PYTHONPATH: the child still
    # imports the package under test
    monkeypatch.delenv("PYTHONPATH", raising=False)
    proc = run_python("-m", "jacobsthal", "g", "10")
    assert (proc.returncode, proc.stderr) == (0, "")
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


def test_subprocess_outputs_hold_under_python_O(tmp_path):
    # -O drops assert statements: each self-check is a typed error instead,
    # so every command prints the same and exits the same either way
    def same_either_way(*argv):
        plain, optimized = (_spawn(*argv, flags=flags)
                            for flags in ((), ("-O",)))
        assert plain.returncode == 0 and plain.stdout, argv
        assert (optimized.returncode, optimized.stdout) == (
            plain.returncode, plain.stdout), argv
        return plain.stdout

    same_either_way("h", "12", "--compute")
    for argv in (("1", "76"), ("1", "42", "--mode", "cw")):
        path = tmp_path / "cert.json"
        path.write_text(same_either_way("find-prime", *argv))
        same_either_way("verify", str(path))


def test_subprocess_reads_no_table_from_the_environment(tmp_path,
                                                        monkeypatch):
    # --table is the one way to pick a table: JACOBSTHAL_H_TABLE in the
    # environment is ignored, even when it names a missing file
    monkeypatch.setenv("JACOBSTHAL_H_TABLE", str(tmp_path / "missing.txt"))
    proc = _spawn("max-d", "--json")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"mode": "unconditional",
                                       "max_d": 76, "k": 54}
