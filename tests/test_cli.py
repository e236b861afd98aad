"""CLI: subcommands, exit codes, JSON mirroring, stdin/file input."""

import io
import json
import sys
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR
from weilmot.cli import main

ELLIPTIC_DOC = (
    '{"q": 2, "p": 2, "n": 1, "l_polynomials": [[1, -1], [1, -1, 2], [1, -2]]}'
)


def run_cli(argv, stdin_text, capsys, monkeypatch):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass(capsys, monkeypatch):
    code, out, _ = run_cli(["verify"], ELLIPTIC_DOC, capsys, monkeypatch)
    assert code == 0
    assert "all checks pass" in out
    assert "weight 1" in out


def test_verify_weight_failure_exit_1(capsys, monkeypatch):
    doc = '{"q": 2, "p": 2, "n": 1, "l_polynomials": [[1, -1], [1, -3], [1, -2]]}'
    code, out, err = run_cli(["verify"], doc, capsys, monkeypatch)
    assert code == 1
    assert "FAIL" in err or "FAIL" in out


def test_verify_empty_input_exit_2(capsys, monkeypatch):
    code, _, err = run_cli(["verify"], "", capsys, monkeypatch)
    assert code == 2
    assert "parse error" in err


def test_verify_json_contains_everything(capsys, monkeypatch):
    code, out, _ = run_cli(["verify", "--json"], ELLIPTIC_DOC, capsys, monkeypatch)
    assert code == 0
    obj = json.loads(out)
    assert obj["schema_version"] == 1
    assert obj["all_pass"] is True
    weights = [f["weight"] for d in obj["degrees"] for f in d["factors"]]
    assert weights == [0, 1, 2]


def test_verify_isogeny_batch(capsys, monkeypatch):
    text = (DATA_DIR / "isogeny_sample_bad.jsonl").read_text()
    code, out, err = run_cli(
        ["verify", "--isogeny", "--json"], text, capsys, monkeypatch
    )
    assert code == 0  # malformed lines are warnings, valid records all pass
    obj = json.loads(out)
    assert len(obj["records"]) == 3
    assert len(obj["diagnostics"]) == 3
    assert all(r["ok"] for r in obj["records"])


def test_aqalg_ordinary(capsys, monkeypatch):
    code, out, _ = run_cli(["aqalg"], ELLIPTIC_DOC, capsys, monkeypatch)
    assert code == 0
    assert "dim_Q A = 2, rank = 2" in out


def test_aqalg_point(capsys, monkeypatch):
    doc = '{"q": 2, "p": 2, "n": 0, "l_polynomials": [[1, -1]]}'
    code, out, _ = run_cli(["aqalg", "--json"], doc, capsys, monkeypatch)
    assert code == 0
    obj = json.loads(out)
    assert obj["dimension"] == 1 and obj["rank"] == 1
    assert obj["blocks"][0]["center_degree"] == 1


def test_aqalg_zero_algebra(capsys, monkeypatch):
    # supersingular square over F_4 via zeta-product, then aqalg
    e_doc = '{"q": 4, "p": 2, "n": 1, "l_polynomials": [[1, -1], [1, -4, 4], [1, -4]]}'
    code, out, _ = run_cli(
        ["zeta-product"], f"[{e_doc}, {e_doc}]", capsys, monkeypatch
    )
    assert code == 0
    code2, out2, _ = run_cli(["aqalg"], out, capsys, monkeypatch)
    assert code2 == 0
    assert "A(X) = 0" in out2


def test_aqalg_json_matches_human(capsys, monkeypatch):
    code, out, _ = run_cli(["aqalg", "--json"], ELLIPTIC_DOC, capsys, monkeypatch)
    obj = json.loads(out)
    assert obj["dimension"] == 2 and obj["rank"] == 2
    assert obj["blocks"][0]["e"] == 1


def test_filtration(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["filtration", "--r", "1", "--json"], ELLIPTIC_DOC, capsys, monkeypatch
    )
    assert code == 0
    obj = json.loads(out)
    # ordinary E at r = 1: dims [0, 0, 1] across H^0, H^1, H^2
    assert [e["dim_coniveau"] for e in obj["per_degree"]] == [0, 0, 1]
    code2, out2, _ = run_cli(
        ["filtration", "--r", "1/2", "--json"], ELLIPTIC_DOC, capsys, monkeypatch
    )
    obj2 = json.loads(out2)
    assert obj2["per_degree"][1]["dim_slope_ge_r"] == 1
    assert obj2["per_degree"][1]["dim_coniveau"] is None


def test_filtration_product_counts_algebraic_classes(capsys, monkeypatch):
    # E x E at r = 1: the weight-2 coniveau part is spanned by the 4
    # algebraic classes (cross-check with the pole order).
    code, out, _ = run_cli(
        ["zeta-product"], f"[{ELLIPTIC_DOC}, {ELLIPTIC_DOC}]", capsys, monkeypatch
    )
    assert code == 0
    code2, out2, _ = run_cli(
        ["filtration", "--r", "1", "--json"], out, capsys, monkeypatch
    )
    obj = json.loads(out2)
    assert obj["per_degree"][2]["dim_coniveau"] == 4


def test_honda(capsys, monkeypatch):
    code, out, _ = run_cli(["honda"], '{"q": 2, "coeffs": [1, -1, 2]}', capsys, monkeypatch)
    assert code == 0
    assert "weight 1, g = 1" in out


def test_honda_m_roots(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["honda", "--m", "2", "--json"], '{"q": 4, "coeffs": [1, -4]}',
        capsys, monkeypatch,
    )
    obj = json.loads(out)
    assert obj["factors"][0]["weight"] == 2
    w1 = sorted(tuple(f["poly"]) for f in obj["weight1_factors"])
    assert w1 == [(-2, 1), (2, 1)]
    assert obj["restricted_base_q"] == 2
    assert obj["restricted"] == [-4, 0, 1]


def test_honda_not_weil_exit_1(capsys, monkeypatch):
    code, _, err = run_cli(["honda"], '{"q": 5, "coeffs": [1, -3]}', capsys, monkeypatch)
    assert code == 1
    assert "NotWeil" in err


def test_honda_monic_flag(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["honda", "--monic"], '{"q": 2, "coeffs": [2, -1, 1]}', capsys, monkeypatch
    )
    assert code == 0
    assert "weight 1" in out


def test_idempotents(capsys, monkeypatch):
    code, out, _ = run_cli(["idempotents", "--json"], ELLIPTIC_DOC, capsys, monkeypatch)
    obj = json.loads(out)
    assert len(obj["idempotents"]) == 3


def test_zeta_product_output_reparses(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["zeta-product"], f"[{ELLIPTIC_DOC}, {ELLIPTIC_DOC}]", capsys, monkeypatch
    )
    assert code == 0
    # idempotence: feed the product back through verify and zeta-product
    code2, out2, _ = run_cli(["verify"], out, capsys, monkeypatch)
    assert code2 == 0
    code3, out3, _ = run_cli(["verify", "--json"], out, capsys, monkeypatch)
    obj = json.loads(out3)
    assert obj["n"] == 2 and obj["all_pass"]


def test_input_flag_reads_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text(ELLIPTIC_DOC)
    code, out, _ = run_cli(["verify", "--input", str(path)], "", capsys, monkeypatch)
    assert code == 0


def test_missing_file_exit_2(capsys, monkeypatch):
    code, _, err = run_cli(
        ["verify", "--input", "/nonexistent/x.json"], "", capsys, monkeypatch
    )
    assert code == 2
    assert "io error" in err


def test_json_error_object_on_domain_failure(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["honda", "--json"], '{"q": 5, "coeffs": [1, -3]}', capsys, monkeypatch
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["ok"] is False and obj["error_kind"] == "domain"


def test_honda_non_integer_q_is_parse_error(capsys, monkeypatch):
    for q in ('"4"', "4.0"):
        code, out, _ = run_cli(
            ["honda", "--json"], f'{{"q": {q}, "coeffs": [1, -4]}}', capsys, monkeypatch
        )
        assert code == 2, q
        obj = json.loads(out)
        assert obj["error_kind"] == "parse"
        assert obj["error"].startswith("field 'q' must be an integer")


def test_internal_error_is_one_report_without_traceback(capsys, monkeypatch):
    import weilmot.cli as cli

    def broken(args):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli, "cmd_verify", broken)
    code, out, _ = run_cli(["verify", "--json"], ELLIPTIC_DOC, capsys, monkeypatch)
    assert code == 1
    obj = json.loads(out)
    assert obj["ok"] is False and obj["error_kind"] == "internal"
    assert obj["error"] == "internal error: ZeroDivisionError: boom"
    code, out, err = run_cli(["verify"], ELLIPTIC_DOC, capsys, monkeypatch)
    assert code == 1
    assert out == "" and err == "internal error: ZeroDivisionError: boom\n"


def test_isogeny_diagnostics_printed_once(capsys, monkeypatch):
    text = (DATA_DIR / "isogeny_sample_bad.jsonl").read_text()
    code, out, err = run_cli(["verify", "--isogeny"], text, capsys, monkeypatch)
    assert code == 0
    for line in (2, 4, 5):
        assert (out + err).count(f"line {line}:") == 1


_coeff = st.integers(-10 ** 6, 10 ** 6)
_record = st.fixed_dictionaries({
    "label": st.text(max_size=4),
    "q": st.integers(2, 64),
    "g": st.integers(0, 4),
    "coeffs": st.lists(_coeff, max_size=8),
}).map(lambda r: {**r, "coeffs": [1] + r["coeffs"]})
# non-Weil in general: the right length for g, random coefficients
_sized = st.integers(0, 4).flatmap(lambda g: st.fixed_dictionaries({
    "label": st.just(f"g{g}"),
    "q": st.sampled_from((2, 3, 4, 5, 7, 8, 9, 49)),
    "g": st.just(g),
    "coeffs": st.lists(_coeff, min_size=2 * g, max_size=2 * g).map(lambda c: [1] + c),
}))
# q not a prime power, and fields of the wrong type
_bad_q = _sized.flatmap(lambda r: st.sampled_from((0, 1, -4, 6, 12, 100, "9", None, 2.5))
                        .map(lambda q: {**r, "q": q}))
_lines = st.one_of(
    st.one_of(_record, _sized, _bad_q).map(json.dumps),
    st.text(max_size=30),
    st.one_of(st.integers(), st.lists(st.integers(), max_size=3)).map(json.dumps),
)


@settings(max_examples=80, deadline=timedelta(seconds=10))
@given(st.lists(_lines, max_size=4))
def test_verify_isogeny_json_fuzz(lines):
    # malformed lines, non-Weil records, wrong degrees, q not a prime power:
    # every batch ends in exit 0/1/2 with exactly one JSON object on stdout
    saved = sys.stdin, sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO("\n".join(lines)), out, io.StringIO()
    try:
        code = main(["verify", "--isogeny", "--json"])
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    assert code in (0, 1, 2)
    assert isinstance(json.loads(out.getvalue()), dict)
