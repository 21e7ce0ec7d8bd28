"""The package namespace: every public name resolves lazily to its
submodule's attribute, and a command imports only the modules it runs."""

import json
import subprocess
import sys
from importlib import import_module

import pytest

import tablink

# The public API, in sorted order.
PUBLIC = """
    BadWeights CellAnnotation ConfigError EmptyMention EntityId EvalReport
    FORMAT_VERSION GoldMismatch GoldRecord Index IndexUnavailable
    InferenceRule IngestStats InvalidEntityId ItemRecord LatencyReport
    LinkCache LinkResult Params ParseError RawCandidate ScoredCandidate
    SynthResult Table TableAnnotation TablinkError TierConflict TypeClosure
    TypeEdge UnresolvedTypeName ValidatedConfig Weights __version__ bench
    build_closure cached_link classify_orientation classify_type_tier
    column_type_vote context_similarity detect_literal evaluate
    generate_synthetic_kb has_type infer_domain_types ingest_dump link
    link_from_candidates link_table load_config load_index normalize
    parse_config_obj parse_entity_doc project_corpus_days read_annotation
    read_closure read_edges read_gold read_records read_table read_table_csv
    save_config save_index search tf_cosine tokenize write_annotation
    write_closure write_gold write_records
""".split()


def _loaded_after(statement: str) -> list[str]:
    """The tablink submodules a fresh interpreter holds after statement."""
    code = (f"import sys, json\n{statement}\n"
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('tablink.'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import tablink") == []
    assert _loaded_after("from tablink import normalize") == ["tablink.text"]


def test_linking_commands_do_not_load_the_generator_or_evaluator():
    loaded = _loaded_after("import tablink.cli")
    assert "tablink.cli" in loaded
    assert "tablink.synth" not in loaded
    assert "tablink.evalbench" not in loaded
    assert "tablink.ingest" not in loaded


def test_public_names_are_sorted_and_complete():
    assert PUBLIC == sorted(PUBLIC)
    assert tablink.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(tablink))


def test_each_name_is_its_submodules_attribute():
    for name, module in tablink._MODULE_OF.items():
        assert getattr(tablink, name) is getattr(
            import_module(f"tablink.{module}"), name), name


def test_a_name_is_looked_up_on_every_access(monkeypatch):
    # Nothing is cached in the package, so a replaced submodule attribute
    # (a test double, a timing wrapper) is what the package name returns,
    # and the original again once it is put back.
    original = tablink.link_table
    monkeypatch.setattr(import_module("tablink.tables"), "link_table", print)
    assert tablink.link_table is print
    monkeypatch.undo()
    assert tablink.link_table is original
    assert "link_table" not in vars(tablink)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from tablink import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tablink.no_such_name
    assert not hasattr(tablink, "MIN_TYPES")
    with pytest.raises(ImportError):
        exec("from tablink import no_such_name", {})
