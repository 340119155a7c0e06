"""Command line round trips, exit codes, and parse diagnostics."""
import json
from pathlib import Path

import pytest

from blca.cli import (DatumFormatError, build_parser, datum_document,
                      dump_datum, load_datum, load_document, main)
from blca.structure import bl_constant

DATA = Path(__file__).resolve().parent.parent / "data"


def write(tmp_path, doc, name="d.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def klein_doc():
    return {
        "domain": {"a": 0, "b": 0, "c": 0, "torsion": [2, 2]},
        "targets": [{"torsion": [2]}, {"torsion": [2]}],
        "homs": [{"FF": [[1, 0]]}, {"FF": [[0, 1]]}],
        "exponents": [2, 2],
    }


def big_elementary_doc():
    # (Z/2)^17 has order 131072, past the finite search's fixed bound
    ident = [[int(r == i) for i in range(17)] for r in range(17)]
    return {
        "domain": {"torsion": [2] * 17},
        "targets": [{"torsion": [2] * 17}, {"torsion": [2]}],
        "homs": [{"FF": ident}, {"FF": [[1] * 17]}],
        "exponents": [2, 3],
    }


def axes_doc():
    return {
        "domain": {"c": 2},
        "targets": [{"c": 1}, {"c": 1}],
        "homs": [{"ZZ": [[1, 0]]}, {"ZZ": [[0, 1]]}],
        "exponents": [2, 2],
    }


# -- parsing ----------------------------------------------------------------

def test_roundtrip_is_byte_stable(tmp_path):
    for name in sorted(DATA.glob("*.json")):
        text = name.read_text(encoding="utf-8")
        doc = load_document(str(name))
        if "tower" in doc:
            continue
        d = load_datum(str(name))
        assert dump_datum(d) == text


def test_unknown_key_rejected(tmp_path):
    doc = klein_doc()
    doc["extra"] = 1
    with pytest.raises(DatumFormatError) as err:
        load_datum(write(tmp_path, doc))
    assert "extra" in str(err.value)


def test_unknown_nested_key_has_path(tmp_path):
    doc = klein_doc()
    doc["homs"][1]["QQ"] = [[1]]
    with pytest.raises(DatumFormatError) as err:
        load_datum(write(tmp_path, doc))
    assert "homs[1]" in str(err.value)


def test_float_entries_rejected(tmp_path):
    doc = klein_doc()
    doc["exponents"][0] = 2.0
    with pytest.raises(DatumFormatError) as err:
        load_datum(write(tmp_path, doc))
    assert "n/d" in str(err.value)


def test_fraction_strings_parsed(tmp_path):
    doc = klein_doc()
    doc["exponents"] = ["3/2", "inf"]
    d = load_datum(write(tmp_path, doc))
    assert d.exponents[1] is None


def test_bad_json_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{", encoding="utf-8")
    with pytest.raises(DatumFormatError) as err:
        load_document(str(p))
    assert "line" in str(err.value)


def test_missing_file_is_format_error():
    with pytest.raises(DatumFormatError):
        load_document("/nonexistent/nope.json")


def test_mismatched_lengths_rejected(tmp_path):
    doc = klein_doc()
    doc["exponents"] = [2]
    with pytest.raises(DatumFormatError):
        load_datum(write(tmp_path, doc))


def test_document_roundtrip_through_memory(tmp_path):
    d = load_datum(write(tmp_path, klein_doc()))
    doc = datum_document(d)
    d2 = load_datum(write(tmp_path, doc, "copy.json"))
    assert d2.domain == d.domain
    assert d2.exponents == d.exponents
    assert d2.homs == list(d.homs) or tuple(d2.homs) == tuple(d.homs)


# -- commands and exit codes ------------------------------------------------

def test_constant_finite_exit_zero(tmp_path, capsys):
    code = main(["constant", write(tmp_path, klein_doc())])
    out = capsys.readouterr()
    assert code == 0
    assert "2" in out.out
    assert "FINITE" in out.out


def test_constant_infinite_exit_one(tmp_path, capsys):
    code = main(["constant", write(tmp_path, axes_doc())])
    out = capsys.readouterr()
    assert code == 1
    assert "INFINITE" in out.out


def test_constant_json_schema(tmp_path, capsys):
    code = main(["constant", "--json", write(tmp_path, klein_doc())])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["command"] == "constant"
    assert doc["report"]["kind"] == "FINITE"
    assert abs(doc["report"]["value"] - 2.0) < 1e-12


def test_analyze_runs(tmp_path, capsys):
    code = main(["analyze", write(tmp_path, klein_doc())])
    out = capsys.readouterr().out
    assert code == 0
    assert "proper" in out.lower() or "factor" in out.lower()


def test_analyze_json(tmp_path, capsys):
    code = main(["analyze", "--json", write(tmp_path, axes_doc())])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["command"] == "analyze"


def test_analyze_improper_exit_one(tmp_path, capsys):
    improper = write(tmp_path, {"domain": {"a": 2}, "targets": [{"a": 1}],
                                "homs": [{"RR": [[1, 0]]}], "exponents": [2]})
    assert main(["analyze", improper]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "proper: no", "  joint kernel has noncompact rank 1",
        "the constant is infinite for improper data"]
    assert main(["analyze", "--json", improper]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["proper"], doc["reason"]) == (False, "joint kernel has noncompact rank 1")


def test_dual_pipes_datum_to_stdout(tmp_path, capsys):
    src = write(tmp_path, klein_doc())
    code = main(["dual", src])
    out = capsys.readouterr()
    assert code in (0, 2)
    piped = json.loads(out.out)
    assert set(piped) >= {"domain", "targets", "homs", "exponents"}
    # the printed dual must itself load cleanly
    back = write(tmp_path, piped, "dual.json")
    assert main(["analyze", back]) in (0, 1, 2)


def test_dual_json_mode(tmp_path, capsys):
    code = main(["dual", "--json", write(tmp_path, klein_doc())])
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "dual"
    assert set(doc["dual"]) >= {"domain", "targets", "homs", "exponents"}
    assert doc["duality"]["pass"] is True
    assert doc["duality"]["ratio"] == 1.0
    assert code == 0


@pytest.mark.parametrize("doc, reason", [
    # improper: the joint kernel is the line x = 0
    ({"domain": {"a": 2}, "targets": [{"a": 1}], "homs": [{"RR": [[1, 0]]}],
      "exponents": [2]}, "joint kernel has noncompact rank 1"),
    # the image of R in R^2 is a line, which is not open
    ({"domain": {"a": 1}, "targets": [{"a": 2}], "homs": [{"RR": [[1], [0]]}],
      "exponents": [2]},
     "map 0 is not surjective; the dual form needs a nondegenerate datum"),
], ids=["improper", "image_not_open"])
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_dual_without_a_dual_form_exit_three(tmp_path, capsys, doc, reason, flags):
    src = write(tmp_path, doc)
    assert main(["dual", src] + flags) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {src}: no dual form: {reason}\n"


def test_reduce_drops_infinite_and_unit_exponents(tmp_path, capsys):
    doc = klein_doc()
    doc["exponents"] = [1, 2]
    code = main(["reduce", write(tmp_path, doc)])
    out = capsys.readouterr()
    assert code == 0
    reduced = json.loads(out.out)
    assert reduced["exponents"] == [2]


def test_verify_klein(tmp_path, capsys):
    code = main(["verify", write(tmp_path, klein_doc())])
    out = capsys.readouterr().out
    assert code == 0
    assert "ok" in out.lower() or "pass" in out.lower()


def test_free_to_finite_block_runs_every_command(tmp_path, capsys):
    # a ZF block whose adjoint feeds the kernel quotient: every command
    # prints its report instead of stopping on a malformed adjoint
    src = write(tmp_path, {
        "domain": {"c": 1, "torsion": [2]},
        "targets": [{"c": 1}, {"torsion": [2, 2]}],
        "homs": [{"ZZ": [[1]]}, {"ZF": [[1], [0]]}], "exponents": [2, 2]})
    codes = {cmd: main([cmd, src])
             for cmd in ("analyze", "constant", "verify", "dual", "reduce")}
    out = capsys.readouterr()
    assert codes == {"analyze": 0, "constant": 1, "verify": 1, "dual": 0,
                     "reduce": 0}
    assert "error" not in out.err
    assert "witness: ((1,),)" in out.out


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_bad_tolerance_exit_three(tmp_path, capsys, tol):
    src = write(tmp_path, klein_doc())
    for command in ("verify", "dual", "constant"):
        assert main([command, src, "--tol", tol]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol must be a positive finite number" in captured.err


def test_verify_infinite_exit_one(tmp_path, capsys):
    code = main(["verify", write(tmp_path, axes_doc())])
    assert code == 1


def test_tower_file(tmp_path, capsys):
    tower = json.loads((DATA / "tower_young.json").read_text(encoding="utf-8"))
    code = main(["constant", write(tmp_path, tower, "tower.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "level 2" in out
    assert "nondecreasing" in out


def test_finite_part_past_the_bound(tmp_path, capsys):
    code = main(["constant", write(tmp_path, big_elementary_doc())])
    out = capsys.readouterr().out
    assert code == 2
    assert "group order 131072 exceeds the bound 100000" in out
    # a tower prices its levels up to the first one past the bound
    levels = [klein_doc(), big_elementary_doc(), klein_doc()]
    tower = write(tmp_path, {"tower": levels}, "tower.json")
    code = main(["constant", tower])
    out = capsys.readouterr().out
    assert code == 2
    assert out.splitlines()[1:] == [
        "level 0: 2",
        "level 1: UNKNOWN (group order 131072 exceeds the bound 100000)",
        "level 2: UNKNOWN (level 1 is UNKNOWN)",
        "nondecreasing; best lower bound 2",
    ]
    code = main(["constant", tower, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["tower"] == {"values": ["2", None, None], "floats": [2.0, None, None],
                            "monotone": True, "first_violation": None}


def test_parse_error_exit_three(tmp_path, capsys):
    doc = klein_doc()
    doc["homs"][0]["FF"] = [[1]]
    code = main(["constant", write(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == 3
    assert "error" in err.lower()


def test_options_are_json_tol_and_seed(tmp_path, capsys):
    options = {s for a in build_parser()._actions for s in a.option_strings}
    assert options == {"-h", "--help", "--json", "--tol", "--seed"}
    src = write(tmp_path, klein_doc())
    for flag in ("--budget", "--depth", "--max-finite"):
        with pytest.raises(SystemExit) as exc:
            main(["constant", src, flag, "3"])
        assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_seed_is_reported(tmp_path, capsys):
    main(["constant", "--seed", "7", write(tmp_path, klein_doc())])
    out = capsys.readouterr().out
    assert "seed 7" in out


def test_deterministic_output(tmp_path, capsys):
    src = write(tmp_path, klein_doc())
    main(["constant", "--json", src])
    first = capsys.readouterr().out
    main(["constant", "--json", src])
    second = capsys.readouterr().out
    assert first == second


# -- unit exponents ---------------------------------------------------------

def rank_one_doc(rows, exponents):
    n = len(rows[0])
    return {"domain": {"a": n}, "targets": [{"a": 1}] * len(rows),
            "homs": [{"RR": [row]} for row in rows], "exponents": exponents}


FOLD = "removed unit-exponent index 0 by restricting to its kernel"
LAST = "removed the last unit-exponent index; the value is the mass of its kernel"
PROPER = ("a map onto a proper (hence non-open) subspace forces an infinite "
          "constant at finite exponents")


@pytest.mark.parametrize("rows, exponents, kind, exact, notes, witness", [
    # three independent rank-one maps at p = 1 on R^3: 1/|det B|
    ([[1, 2, 0], [0, -1, 3], [2, 0, 1]], [1, 1, 1], "FINITE",
     "11^(-1)", [FOLD, FOLD, LAST], None),
    ([[1, 0], [0, 1]], [1, 1], "FINITE", "1", [FOLD, LAST], None),
    ([[1, 0], [0, 1], [1, 1]], [1, 2, 2], "FINITE", None,
     [FOLD, "gaussian ascent converged after 1 sweeps"], None),
    ([[1, 0], [1, 0], [0, 1]], [1, 2, 2], "INFINITE", None, [FOLD, PROPER],
     "map 0 has image a proper subspace"),
])
def test_unit_exponent_vector_reports(tmp_path, capsys, rows, exponents, kind,
                                      exact, notes, witness):
    src = write(tmp_path, rank_one_doc(rows, exponents))
    code = main(["constant", "--json", src])
    report = json.loads(capsys.readouterr().out)["report"]
    assert code == (0 if kind == "FINITE" else 1)
    assert report["kind"] == kind
    vector = {f["name"]: f for f in report["factors"]}["vector"]
    assert (vector["kind"], vector["notes"]) == (kind, notes)
    assert vector["witness"] == (None if witness is None else repr(witness))
    assert report["witnesses"] == ([] if witness is None else [repr(witness)])
    if exact is not None:
        assert (report["exact"], vector["exact"]) == (exact, exact)


@pytest.mark.parametrize("doc, folds", [
    # map 0 has the finite image {0, 1/2} in T, which is not open
    ({"domain": {"a": 1, "torsion": [2]},
      "targets": [{"b": 1}, {"a": 1}, {"torsion": [2]}],
      "homs": [{"FT": [["1/2"]]}, {"RR": [[1]]}, {"FF": [[1]]}],
      "exponents": [1, 2, 2]}, False),
    # map 0 mixes the torus and finite sectors; its kernel has a model, so
    # the index folds and nothing is left blocked
    ({"domain": {"b": 1, "torsion": [2]},
      "targets": [{"b": 1}, {"b": 1}, {"torsion": [2]}],
      "homs": [{"TT": [[1]], "FT": [["1/2"]]}, {"TT": [[1]]}, {"FF": [[1]]}],
      "exponents": [1, 2, 2]}, True),
], ids=["non_open_image", "sector_mixing"])
def test_reduce_leaves_a_blocked_fold_in_place(tmp_path, capsys, doc, folds):
    src = write(tmp_path, doc)
    assert main(["reduce", "--json", src]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"schema_version", "command", "seed", "ledger", "datum"}
    if folds:
        assert out["ledger"] == [FOLD]
        want = bl_constant(load_datum(src))
        got = bl_constant(load_datum(write(tmp_path, out["datum"], "reduced.json")))
        assert (got.kind, got.exact) == (want.kind, want.exact)
        return
    assert out["datum"]["exponents"] == [1, 2, 2]
    assert len(out["ledger"]) == 1
    assert out["ledger"][0].startswith("left index 0 in place: ")


@pytest.mark.parametrize("rows, code, text, resolved, exact", [
    # the kernel mass is 1/|det| = 1/11, as `constant` reports it
    ([[1, 2, 0], [0, -1, 3], [2, 0, 1]], 0, "0.0909090909091 (exact: 11^(-1))",
     1 / 11, "11^(-1)"),
    # the kernel of the one map is a line, of infinite mass
    ([[1, 0]], 1, "infinite", "inf", None),
])
def test_reduce_prints_a_resolved_constant_exactly(tmp_path, capsys, rows, code,
                                                   text, resolved, exact):
    src = write(tmp_path, rank_one_doc(rows, [1] * len(rows)))
    assert main(["reduce", src]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"  nothing left; the constant is {text}"
    assert main(["reduce", "--json", src]) == code
    out = json.loads(capsys.readouterr().out)
    assert (out["resolved"], out["exact"]) == (resolved, exact)


@pytest.mark.parametrize("domain, message", [
    ({"torsion": [1, 2]}, ".domain: invariant factors must be >= 2"),
    ({"torsion": [2, 2], "haar": {"f_point": 0}},
     ".domain.haar: f_point must be positive"),
])
def test_bad_group_record_exit_three(tmp_path, capsys, domain, message):
    doc = klein_doc()
    doc["domain"] = domain
    src = write(tmp_path, doc)
    with pytest.raises(DatumFormatError) as err:
        load_datum(src)
    assert str(err.value) == src + message
    assert main(["constant", src]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {src}{message}\n"


def test_exponent_below_one_is_located(tmp_path, capsys):
    doc = klein_doc()
    doc["exponents"] = [2, "1/2"]
    src = write(tmp_path, doc)
    message = f"{src}.exponents[1]: exponent 1/2 is below 1"
    with pytest.raises(DatumFormatError) as err:
        load_datum(src)
    assert str(err.value) == message
    assert main(["constant", src]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
