import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from tablink.cli import run
from tablink.closure import read_closure


def quiet_run(argv):
    """run() with captured streams, for fixture plumbing."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A full corpus processed end to end through the command line."""
    root = tmp_path_factory.mktemp("cli")
    kb = root / "kb"
    code, out, _ = quiet_run(["gen-kb", "--out", str(kb), "--seed", "11",
                              "--items", "800", "--types", "60",
                              "--tables", "4"])
    assert code == 0
    gen = json.loads(out)

    records = root / "records.jsonl"
    edges = root / "edges.jsonl"
    code, out, _ = quiet_run([
        "ingest", "--dump", str(kb / "dump.jsonl"),
        "--out-records", str(records), "--out-edges", str(edges),
        "--watchlist", "P50001,P50002", "--jobs", "2"])
    assert code == 0
    stats = json.loads(out)
    assert stats["records_emitted"] == gen["labeled"]

    closure = root / "closure.txt"
    code, out, _ = quiet_run(["closure", "--edges", str(edges),
                              "--records", str(records),
                              "--out", str(closure)])
    assert code == 0

    index_dir = root / "index"
    code, out, _ = quiet_run(["build-index", "--records", str(records),
                              "--out", str(index_dir)])
    assert code == 0
    build = json.loads(out)

    return SimpleNamespace(root=root, kb=kb, records=records, edges=edges,
                           closure=closure, index=index_dir,
                           config=kb / "config.json",
                           build_id=build["build_id"])


def common(p):
    return ["--index", str(p.index), "--closure", str(p.closure),
            "--config", str(p.config)]


def test_version_and_help():
    code, out, _ = quiet_run(["--version"])
    assert code == 0
    assert out.strip() == "tablink 0.1.0 (format 4)"
    code, out, _ = quiet_run(["--help"])
    assert code == 0
    assert "SUBCOMMAND" in out
    # ingest's --jobs and link-table's --jobs and --cache are still accepted
    # (the pipeline fixture and the benchmark pass them) but hidden.
    for command in ("ingest", "link-table"):
        code, out, _ = quiet_run([command, "--help"])
        assert code == 0
        assert "--jobs" not in out
        assert "--cache" not in out


@pytest.mark.parametrize("argv", [["--bogus", "--version"],
                                  ["--version", "--bogus"]])
def test_version_does_not_swallow_an_unknown_option(argv):
    code, out, err = quiet_run(argv)
    assert code == 1
    assert out == ""
    assert "error: unrecognized arguments: --bogus" in err


def test_cache_flag_changes_no_output_and_touches_no_file(pipeline, tmp_path):
    # link-table's --cache is ignored: a directory path is never created, and
    # a path that is a regular file (never a usable cache) is neither refused
    # nor changed.
    truth = json.loads((pipeline.kb / "truth.json").read_text(encoding="utf-8"))
    argv = ["link-table", "--table",
            str(pipeline.kb / "tables" / truth["tables"][0]["file"]),
            *common(pipeline)]
    code, plain, _ = quiet_run(argv)
    assert code == 0
    not_a_dir = tmp_path / "file"
    not_a_dir.write_bytes(b"not a cache\n")
    for cache in (tmp_path / "cache", not_a_dir):
        code, out, err = quiet_run([*argv, "--cache", str(cache)])
        assert code == 0, err
        assert out == plain
    assert not (tmp_path / "cache").exists()
    assert not_a_dir.read_bytes() == b"not a cache\n"


def test_link_has_no_cache_flag(pipeline, tmp_path):
    code, out, err = quiet_run(["link", "--mention", "x", *common(pipeline),
                                "--cache", str(tmp_path / "cache")])
    assert code == 1
    assert out == ""
    assert "error: unrecognized arguments: --cache" in err
    assert not (tmp_path / "cache").exists()


def test_there_is_no_verbose_flag(pipeline):
    code, out, err = quiet_run(["--verbose", "link", "--mention", "x",
                                *common(pipeline)])
    assert code == 1
    assert out == ""
    assert "error: unrecognized arguments: --verbose" in err


def test_link_refuses_an_unknown_expected_type_name(pipeline):
    truth = json.loads((pipeline.kb / "truth.json").read_text(encoding="utf-8"))
    argv = ["link", "--mention", truth["plants"][0]["label"], *common(pipeline)]
    code, _, err = quiet_run([*argv, "--expect", "location"])
    assert code == 0, err
    code, out, err = quiet_run([*argv, "--expect", "location,locaton"])
    assert code == 1
    assert out == ""
    assert err == "error: --expect: unknown type name(s): locaton\n"


def test_usage_errors_exit_1(tmp_path):
    out = str(tmp_path / "kb")
    for argv in ([], ["no-such-command"], ["ingest"],
                 ["link", "--mention", "x"],  # missing required inputs
                 ["link", "--mode", "bogus", "--mention", "x",
                  "--index", "i", "--closure", "c", "--config", "g"],
                 ["gen-kb", "--out", out, "--items", "-5"],
                 ["gen-kb", "--out", out, "--tables", "-1"],
                 ["gen-kb", "--out", out, "--types", "-3"],
                 ["gen-kb", "--out", out, "--types", "0"],
                 ["gen-kb", "--out", out, "--types", "59"]):
        code, _, err = quiet_run(argv)
        assert code == 1, argv
        assert "error:" in err
        assert "Traceback" not in err
    assert not (tmp_path / "kb").exists()


def test_missing_input_file_exits_2(tmp_path):
    code, _, err = quiet_run([
        "ingest", "--dump", str(tmp_path / "nope.jsonl"),
        "--out-records", str(tmp_path / "r"), "--out-edges", str(tmp_path / "e")])
    assert code == 2
    assert "error:" in err


def test_domain_errors_exit_1(pipeline, tmp_path):
    # Not an index directory -> IndexUnavailable.
    code, _, err = quiet_run(["link", "--mention", "x",
                              "--index", str(tmp_path),
                              "--closure", str(pipeline.closure),
                              "--config", str(pipeline.config)])
    assert code == 1 and "error:" in err
    # Whitespace mention -> EmptyMention.
    code, _, err = quiet_run(["link", "--mention", "   ", *common(pipeline)])
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("text", [
    pytest.param("[1,2]", id="array"),
    pytest.param("{not json", id="not-json"),
    pytest.param('"index"', id="string"),
    pytest.param("\xff", id="not-utf8"),
])
def test_link_refuses_a_bad_index_manifest(pipeline, tmp_path, text):
    index = tmp_path / "index"
    index.mkdir()
    for item in pipeline.index.iterdir():
        (index / item.name).write_bytes(item.read_bytes())
    (index / "manifest.json").write_bytes(text.encode("latin-1"))
    code, out, err = quiet_run(["link", "--mention", "x", "--index", str(index),
                                "--closure", str(pipeline.closure),
                                "--config", str(pipeline.config)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: index {index}: manifest.json is not")
    assert "Traceback" not in err


def test_link_stdout_is_pure_json(pipeline, capsys):
    truth = json.loads((pipeline.kb / "truth.json").read_text(encoding="utf-8"))
    plant = next(p for p in truth["plants"] if p["pattern"] == "bad_twin")
    code = run(["link", "--mention", plant["label"], *common(pipeline)])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)  # would fail on any stray output
    assert payload["chosen"]["record"]["id"] == plant["gold"]
    manifest = json.loads(captured.err.strip().splitlines()[-1])
    assert manifest["subcommand"] == "link"
    assert manifest["index_build_id"] == pipeline.build_id


def test_link_out_file_keeps_stdout_empty(pipeline, tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code = run(["link", "--mention", "anything here", *common(pipeline),
                "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    json.loads(out_path.read_text(encoding="utf-8"))


def test_link_table_stdout_is_the_out_file(pipeline, tmp_path, capsys):
    table = pipeline.kb / "tables" / "t000.json"
    out_path = tmp_path / "t000.json"
    assert run(["link-table", "--table", str(table), *common(pipeline),
                "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert run(["link-table", "--table", str(table), *common(pipeline)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out_path.read_bytes()


def test_manifest_file_and_reproducibility(pipeline, tmp_path):
    manifests = []
    for i in range(2):
        path = tmp_path / f"m{i}.json"
        code, out, err = quiet_run(["--manifest", str(path),
                                    "link", "--mention", "zzz unlinkable",
                                    *common(pipeline)])
        assert code == 0
        assert err == ""  # manifest redirected away from stderr
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(obj.pop("wall_time_s"), float)
        manifests.append(obj)
    assert manifests[0] == manifests[1]
    assert manifests[0]["config_hash"]
    assert manifests[0]["closure_hash"]
    assert manifests[0]["format_version"] == 4


def test_an_unwritable_manifest_path_is_an_io_error(pipeline, tmp_path):
    manifest = tmp_path / "missing" / "m.json"
    code, out, err = quiet_run(["--manifest", str(manifest), "link",
                                "--mention", "zzz unlinkable", *common(pipeline)])
    assert code == 2
    json.loads(out)
    assert err.startswith("error: ") and str(manifest) in err
    assert "Traceback" not in err


def test_a_closure_file_out_of_canonical_order_is_identified_by_its_bytes(
        pipeline, tmp_path):
    """Its digest, and the manifest's closure_hash, is the file's own hash,
    and it links as the canonical file does."""
    def sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    lines = pipeline.closure.read_bytes().splitlines(keepends=True)
    reordered = tmp_path / "closure.txt"
    reordered.write_bytes(b"".join(reversed(lines)))
    assert read_closure(reordered).digest == sha256(reordered)
    assert sha256(reordered) != sha256(pipeline.closure)

    annotations = []
    for closure in (pipeline.closure, reordered):
        manifest_path = tmp_path / "manifest.json"
        code, out, _ = quiet_run([
            "--manifest", str(manifest_path), "link-table",
            "--table", str(pipeline.kb / "tables" / "t000.json"),
            "--index", str(pipeline.index), "--closure", str(closure),
            "--config", str(pipeline.config)])
        assert code == 0
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["closure_hash"] == sha256(closure)
        annotations.append(out)
    assert annotations[0] == annotations[1]

    # The closure command's closure_hash is the hash of the file it wrote.
    written = tmp_path / "written.txt"
    code, _, err = quiet_run(["closure", "--edges", str(pipeline.edges),
                              "--records", str(pipeline.records),
                              "--out", str(written)])
    assert code == 0
    assert json.loads(err)["closure_hash"] == sha256(written)


def test_link_table_eval_bench_flow(pipeline, tmp_path, capsys):
    truth = json.loads((pipeline.kb / "truth.json").read_text(encoding="utf-8"))
    ann_dir = tmp_path / "annotations"
    ann_dir.mkdir()
    for meta in truth["tables"]:
        code = run(["link-table",
                    "--table", str(pipeline.kb / "tables" / meta["file"]),
                    *common(pipeline), "--jobs", "2",
                    "--cache", str(tmp_path / "cache"),
                    "--out", str(ann_dir / (meta["table_id"] + ".json"))])
        capsys.readouterr()
        assert code == 0

    code = run(["eval", "--annotations", str(ann_dir),
                "--gold", str(pipeline.kb / "gold.jsonl")])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["precision"] == 1.0
    assert report["candidate_recall"] == 1.0
    assert not report["degenerate"]

    mentions = tmp_path / "mentions.txt"
    all_lines = (pipeline.kb / "mentions.txt").read_text(
        encoding="utf-8").splitlines()
    mentions.write_text("\n".join(all_lines[:40]) + "\n", encoding="utf-8")
    code = run(["bench", "--mentions", str(mentions), *common(pipeline),
                "--projection", "120000,10"])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["mentions_timed"] + report["skipped"] == 40
    assert report["speedup"] > 3
    assert report["online"]["projected_days"] == pytest.approx(416.6667,
                                                               abs=1e-2)
    assert report["offline"]["projected_days"] < 1.0


def test_bench_rejects_bad_latency_argument(pipeline, tmp_path):
    mentions = tmp_path / "m.txt"
    mentions.write_text("whatever\n", encoding="utf-8")
    code, _, err = quiet_run(["bench", "--mentions", str(mentions),
                              *common(pipeline), "--online-latency", "12"])
    assert code == 1
    assert "online-latency" in err


@pytest.mark.parametrize("flag, value", [("--online-latency", "12,x"),
                                         ("--online-latency", "0,-1"),
                                         ("--projection", "1,x"),
                                         ("--projection", "1.5,2"),
                                         ("--projection", "0,10"),
                                         ("--projection", "-120000,10"),
                                         ("--projection", "120000,-1")])
def test_bench_rejects_non_numeric_arguments(pipeline, tmp_path, flag, value):
    mentions = tmp_path / "m.txt"
    mentions.write_text("whatever\n", encoding="utf-8")
    code, _, err = quiet_run(["bench", "--mentions", str(mentions),
                              *common(pipeline), f"{flag}={value}"])
    assert code == 1
    assert f"error: {flag}" in err


GOOD_LINES = {
    "records": '{"id": "Q1", "label": "alpha"}',
    "edges": '{"child": "Q1", "parent": "Q2", "relation": "subclass_of"}',
    "gold": '{"table_id": "t", "row": 0, "col": 0, "expected": "Q1"}',
}


@pytest.mark.parametrize("kind, bad_line", [
    ("records", '{"id": "Q2", "aliases": ["beta"]}'),
    ("records", '{"id": "Q2", "label": "   "}'),
    ("records", '{"id": "Q2", "label": "beta", "direct_types": ["P31"]}'),
    ("records", '{"id": "X2", "label": "beta"}'),
    ("records", '["Q2", "beta"]'),
    ("records", '{"id": "Q2", "label": "beta"'),
    ("edges", '{"child": "Q2", "parent": "Q3"}'),
    ("edges", '{"child": 2, "parent": "Q3", "relation": "subclass_of"}'),
    ("edges", '{"child": "Q1", "parent": "Q2", "relation": 5}'),
    ("gold", '{"table_id": "t", "row": "x", "col": 0, "expected": null}'),
    ("gold", '{"table_id": "t", "row": 1, "expected": null}'),
    ("records", '{"id": "Q2", "label": "beta", "aliases": "rubeola"}'),
    ("records", '{"id": "Q2", "label": "beta", "sitelinks_count": "7"}'),
    ("records", '{"id": "Q2", "label": "beta", "sitelinks_count": 7.9}'),
    ("records", '{"id": "Q2", "label": "beta", "sitelinks_count": true}'),
    ("records", '{"id": "Q2", "label": "beta", "description": 5}'),
    ("records", '{"id": "Q2", "label": "beta", "direct_types": {"Q5": 1}}'),
    ("gold", '{"table_id": 7, "row": 1, "col": 0, "expected": null}'),
    ("gold", '{"table_id": "t", "row": 1.7, "col": 0, "expected": null}'),
    ("gold", '{"table_id": "t", "row": 1, "col": true, "expected": null}'),
    ("gold", '{"table_id": "t", "row": 1, "col": 0, "entity": "Q1"}'),
    ("gold", '{"table_id": "t", "row": 0, "col": 0, "expected": null, "row": 1}'),
])
def test_malformed_jsonl_line_is_an_error_naming_file_and_line(
        tmp_path, kind, bad_line):
    path = tmp_path / f"{kind}.jsonl"
    path.write_text(GOOD_LINES[kind] + "\n" + bad_line + "\n", encoding="utf-8")
    argv = {
        "records": ["build-index", "--records", str(path),
                    "--out", str(tmp_path / "index")],
        "edges": ["closure", "--edges", str(path),
                  "--out", str(tmp_path / "closure.txt")],
        "gold": ["eval", "--annotations", str(tmp_path), "--gold", str(path)],
    }[kind]
    code, _, err = quiet_run(argv)
    assert code == 1
    assert f"error: {path}:2: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bad_line", [
    b'{"id": "Q2", "label": "beta", "direct_types": ["Q5"]',
    b'["Q2", "beta"]',
    b'"Q2"',
    b'null',
    b'{"id": "Q2", "label": "beta", "direct_types": {"Q5": 1}}',
    b'{"id": "Q2", "label": "beta", "direct_types": ["Q5", "P31"]}',
    b'{"id": "Q2", "label": "b\xfe", "direct_types": ["Q5"]}',
])
def test_closure_refuses_a_malformed_records_line(tmp_path, bad_line):
    # closure --records reads only direct_types, but it still refuses a line
    # that is not a UTF-8 JSON object or whose direct_types are not Q ids.
    records, edges = tmp_path / "records.jsonl", tmp_path / "edges.jsonl"
    records.write_bytes(GOOD_LINES["records"].encode() + b"\n" + bad_line
                        + b"\n")
    edges.write_text(GOOD_LINES["edges"] + "\n", encoding="utf-8")
    code, out, err = quiet_run(["closure", "--edges", str(edges),
                                "--records", str(records),
                                "--out", str(tmp_path / "closure.txt")])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {records}:2: ")
    assert "Traceback" not in err


GOOD_CELL = {"row": 0, "col": 0, "mention": "alpha", "candidates": ["Q1"],
             "outcome": {"kind": "entity", "id": "Q1", "label": "alpha",
                         "final_score": 0.9}}
GOOD_ANNOTATION = {"table_id": "t", "orientation": "horizontal",
                   "dominant_types": {"0": None}, "headers": [],
                   "cells": [GOOD_CELL]}


def _without(obj: dict, key: str) -> dict:
    return {k: v for k, v in obj.items() if k != key}


@pytest.mark.parametrize("cell, doc", [
    (_without(GOOD_CELL, "outcome"), {}),
    ({**GOOD_CELL, "outcome": _without(GOOD_CELL["outcome"], "id")}, {}),
    ({**GOOD_CELL, "row": 1.7}, {}),
    ({**GOOD_CELL, "col": True}, {}),
    ({**GOOD_CELL, "mention": None}, {}),
    ({**GOOD_CELL, "candidates": "Q1"}, {}),
    ({**GOOD_CELL, "note": 3}, {}),
    ({**GOOD_CELL, "outcome": "entity"}, {}),
    ({**GOOD_CELL, "outcome": {"kind": "linked"}}, {}),
    ({**GOOD_CELL, "outcome": {"kind": "literal", "literal": 5}}, {}),
    ({**GOOD_CELL, "outcome": {**GOOD_CELL["outcome"], "final_score": "0.9"}},
     {}),
    (GOOD_CELL, {"table_id": 7}),
    (GOOD_CELL, {"orientation": "diagonal"}),
    (GOOD_CELL, {"dominant_types": {"x": None}}),
    (GOOD_CELL, {"dominant_types": {"1_0": None}}),
    (GOOD_CELL, {"dominant_types": {"01": "Q1", "1": None}}),
    (GOOD_CELL, {"dominant_types": {" 1": None}}),
    (GOOD_CELL, {"dominant_types": {"-1": None}}),
    (GOOD_CELL, {"headers": None}),
], ids=["no-outcome", "no-id", "float-row", "bool-col", "null-mention",
        "string-candidates", "numeric-note", "string-outcome", "unknown-kind",
        "numeric-literal", "string-score", "numeric-table-id",
        "unknown-orientation", "bad-column-key", "underscored-column-key",
        "padded-column-key", "spaced-column-key", "negative-column-key",
        "null-headers"])
def test_eval_refuses_a_malformed_annotation(tmp_path, cell, doc):
    gold = tmp_path / "gold.jsonl"
    gold.write_text('{"table_id": "t", "row": 0, "col": 0, "expected": "Q1"}\n',
                    encoding="utf-8")
    path = tmp_path / "t.json"
    argv = ["eval", "--annotations", str(path), "--gold", str(gold)]
    path.write_text(json.dumps(GOOD_ANNOTATION), encoding="utf-8")
    assert quiet_run(argv)[0] == 0

    path.write_text(json.dumps({**GOOD_ANNOTATION, "cells": [cell], **doc}),
                    encoding="utf-8")
    code, out, err = quiet_run(argv)
    assert code == 1
    assert out == ""
    assert f"error: {path}: bad document (" in err
    assert "Traceback" not in err


def test_link_table_refuses_a_numeric_cell(pipeline, tmp_path):
    table = tmp_path / "numeric.json"
    table.write_text('{"table_id": "t", "headers": ["Name", "Count"], '
                     '"rows": [["alpha", 5]]}', encoding="utf-8")
    code, out, err = quiet_run(["link-table", "--table", str(table),
                                *common(pipeline)])
    assert code == 1
    assert out == ""
    assert (f"error: {table}: bad document (TypeError: row 0 must be a list "
            "of strings)") in err
    assert "Traceback" not in err


# One input of each kind whose second line (or, for a whole document, some
# string) holds a byte that is not UTF-8; None marks a whole-document file.
NOT_UTF8 = {
    "records": ("records.jsonl", 2,
                b'{"id": "Q1", "label": "alpha"}\n{"id": "Q2", "label": "b\xfe"}\n'),
    "edges": ("edges.jsonl", 2,
              GOOD_LINES["edges"].encode() + b'\n{"child": "Q\xff"}\n'),
    "closure": ("closure.txt", 2, b"Q1 Q2\nQ3 \xff\n"),
    "config": ("config.json", None, b'{"tiers": {"good": ["\xe9"]}}'),
    "table": ("table.json", None,
              b'{"table_id": "t", "headers": ["\xff"], "rows": []}'),
    "csv": ("table.csv", None, b"Name,Count\nalpha,\xff\n"),
    "gold": ("gold.jsonl", 2,
             GOOD_LINES["gold"].encode() + b'\n{"table_id": "\xff"}\n'),
    "annotation": ("t.json", None, b'{"table_id": "\xff"}'),
    "mentions": ("mentions.txt", 2, b"alpha\nbe\xfft\n"),
}


@pytest.mark.parametrize("kind", sorted(NOT_UTF8))
def test_an_input_that_is_not_utf8_is_an_error_naming_the_file(
        pipeline, tmp_path, kind):
    name, line, data = NOT_UTF8[kind]
    path = tmp_path / name
    path.write_bytes(data)
    annotation, gold = tmp_path / "good.json", tmp_path / "good.jsonl"
    annotation.write_text(json.dumps(GOOD_ANNOTATION), encoding="utf-8")
    gold.write_text(GOOD_LINES["gold"] + "\n", encoding="utf-8")
    kb = {"index": pipeline.index, "closure": pipeline.closure,
          "config": pipeline.config}
    if kind in kb:
        kb[kind] = path
    kb_args = [arg for key in ("index", "closure", "config")
               for arg in (f"--{key}", str(kb[key]))]
    argv = {
        "records": ["build-index", "--records", str(path),
                    "--out", str(tmp_path / "index")],
        "edges": ["closure", "--edges", str(path),
                  "--out", str(tmp_path / "closure.out")],
        "closure": ["link", "--mention", "x", *kb_args],
        "config": ["link", "--mention", "x", *kb_args],
        "table": ["link-table", "--table", str(path), *kb_args],
        "csv": ["link-table", "--table", str(path), "--has-header", *kb_args],
        "gold": ["eval", "--annotations", str(annotation), "--gold", str(path)],
        "annotation": ["eval", "--annotations", str(path), "--gold", str(gold)],
        "mentions": ["bench", "--mentions", str(path), *kb_args],
    }[kind]
    code, out, err = quiet_run(argv)
    assert code == 1
    assert out == ""
    where = f"{path}:{line}: bad line" if line else f"{path}: bad document"
    assert err.startswith(f"error: {where} (UnicodeDecodeError: ")
    assert "Traceback" not in err


def test_link_table_refuses_a_blank_csv_header_before_loading_the_index(
        pipeline, tmp_path):
    table = tmp_path / "e.csv"
    table.write_text("\nalpha,1\n", encoding="utf-8")
    code, out, err = quiet_run([
        "link-table", "--table", str(table), "--has-header",
        "--index", str(tmp_path / "no-index"), "--closure",
        str(pipeline.closure), "--config", str(pipeline.config)])
    assert code == 1
    assert out == ""
    assert err == (f"error: {table}: bad document (ValueError: the header "
                   "row is blank)\n")


def test_link_table_csv_input(pipeline, tmp_path, capsys):
    csv_path = tmp_path / "mini.csv"
    csv_path.write_text("Name,Count\nsomething,5\n", encoding="utf-8")
    code = run(["link-table", "--table", str(csv_path), "--has-header",
                *common(pipeline)])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["table_id"] == "mini"
    kinds = {(c["row"], c["col"]): c["outcome"]["kind"]
             for c in payload["cells"]}
    assert kinds[(0, 1)] == "literal"


def test_gen_kb_cli_is_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        code, out, _ = quiet_run(["gen-kb", "--out", str(tmp_path / name),
                                  "--seed", "3", "--items", "800",
                                  "--types", "60", "--tables", "4"])
        assert code == 0
        payload = json.loads(out)
        payload.pop("out_dir")
        outs.append(payload)
    assert outs[0] == outs[1]
    a = (tmp_path / "a" / "records.jsonl").read_bytes()
    b = (tmp_path / "b" / "records.jsonl").read_bytes()
    assert a == b


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "tablink.cli", "--version"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "tablink 0.1.0 (format 4)"
