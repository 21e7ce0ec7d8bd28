"""tablink: offline entity linking for scientific tables.

Maps mention strings (table cells, column headers, free text) to items in a
local knowledge-base snapshot. Everything runs from three local files: a
records file, a type-edge file, and a domain config. No network access.

Importing the package loads no submodule. Each public name below is looked
up in its submodule on every access (PEP 562), so a command imports only
what it runs and a name always reads the submodule's current attribute.
"""

from importlib import import_module

_PUBLIC = {
    "closure": "TypeClosure build_closure has_type read_closure write_closure",
    "errors": "BadWeights ConfigError EmptyMention GoldMismatch IndexUnavailable "
              "InvalidEntityId ParseError TablinkError TierConflict "
              "UnresolvedTypeName",
    "evalbench": "EvalReport GoldRecord LatencyReport bench evaluate "
                 "project_corpus_days read_gold write_gold",
    "index": "Index RawCandidate load_index save_index search",
    "ingest": "IngestStats ingest_dump parse_entity_doc",
    "kb": "DomainConfig EntityId InferenceRule ItemRecord Params TypeEdge "
          "ValidatedConfig Weights load_config parse_config_obj read_edges "
          "read_records save_config validate_config write_records",
    "linker": "LinkCache LinkResult ScoredCandidate cached_link "
              "classify_type_tier context_similarity infer_domain_types link "
              "link_from_candidates",
    "synth": "SynthResult generate_synthetic_kb",
    "tables": "CellAnnotation Table TableAnnotation classify_orientation "
              "column_type_vote detect_literal link_table read_annotation "
              "read_table read_table_csv write_annotation",
    "text": "normalize tf_cosine tokenize",
    "version": "FORMAT_VERSION __version__",
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items()
              for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())
