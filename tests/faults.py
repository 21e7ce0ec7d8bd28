"""A catalogue of hand-made faults, each with the tests that must catch it.

A fault replaces one exact text of one file under src/ with another: a
mutant in the sense of DeMillo, Lipton and Sayward ("Hints on Test Data
Selection", IEEE Computer 1978), chosen by hand. tests/test_faults.py checks
in tier-1 that each `old` text occurs exactly once in its file, so an entry
cannot go stale silently: a change that moves the code updates the entry.

    python3 tests/faults.py [NAME ...]

applies each fault (or each one named) to a temporary copy of src/, runs
only the fault's tests against it and exits 1 unless every one of them
fails. A new test written to catch a fault adds an entry here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Fault(NamedTuple):
    name: str
    path: str                # under src/
    old: str                 # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]   # pytest node ids, each of which must fail


LINKER, INDEX, TABLES = "tablink/linker.py", "tablink/index.py", "tablink/tables.py"
LINKER_TESTS = "tests/test_linker.py::"
INDEX_TESTS = "tests/test_index.py::"
STREAM = "tests/test_stream.py::test_stream_through_shared_caches_equals_cold_runs"
KEY_TEST = "tests/test_cache.py::test_key_separates_every_input"

# link()'s ranked-memo lookup and store, which the key faults rewrite.
_RANKED = """\
            kept := tables[3].get((id(rows), mode))):
        return kept[1]
    raw = search(index, mention, config.params.k, normalized=norm)
    result = link_from_candidates(mention, raw, mode, context, expected,
                                  closure, config, normalized=norm)
    if not context and (rows := index.found(norm)) is not None:
        _tables(closure, config, expected)[3][id(rows), mode] = (rows, result)
"""

_SCORED = """\
    elif (memo := scored.get((s_max, mode))) is None:
        memo = scored[s_max, mode] = {}
"""

_TERMS = """\
                if (kept := terms.get(id(record))) is None:
                    kept = terms[id(record)] = (record_terms(record), record)
"""

FAULTS = (
    Fault("ranked-memo-key-drops-the-mode", LINKER, _RANKED,
          _RANKED.replace("(id(rows), mode)", "id(rows)")
          .replace("[id(rows), mode]", "[id(rows)]"),
          (LINKER_TESTS + "test_ranked_memo_serves_each_repeat_equal_to_a_fresh_link[False]",
           LINKER_TESTS + "test_ranked_memo_serves_each_repeat_equal_to_a_fresh_link[True]",
           LINKER_TESTS + "test_ranked_memo_holds_only_found_keys_linked_without_a_context",
           LINKER_TESTS + "test_scored_memo_keeps_cell_and_header_mode_apart",
           LINKER_TESTS + "test_header_property_boost_mode_and_kind_gated",
           LINKER_TESTS + "test_prevalence_header_vs_cell",
           STREAM)),
    Fault("ranked-memo-reads-expected-types-twice", LINKER,
          "result = link_from_candidates(mention, raw, mode, context, expected,",
          "result = link_from_candidates(mention, raw, mode, context, expected_types,",
          (LINKER_TESTS + "test_link_reads_one_shot_expected_types_once",)),
    Fault("ranked-memo-keyed-by-the-normalized-string", LINKER, _RANKED,
          _RANKED.replace("(id(rows), mode)", "(norm, mode)")
          .replace("[id(rows), mode]", "[norm, mode]"),
          (LINKER_TESTS + "test_ranked_memo_keeps_the_results_of_each_index_apart",
           LINKER_TESTS + "test_ranked_memo_holds_only_found_keys_linked_without_a_context",
           LINKER_TESTS + "test_ranked_memo_serves_each_repeat_equal_to_a_fresh_link[False]",
           LINKER_TESTS + "test_ranked_memo_serves_each_repeat_equal_to_a_fresh_link[True]")),
    Fault("terms-memo-keyed-by-record-value", LINKER, _TERMS,
          _TERMS.replace("id(record)", "record"),
          (LINKER_TESTS + "test_terms_memo_keeps_the_records_of_each_index_apart",
           LINKER_TESTS + "test_memoized_context_scores_equal_a_fresh_cosine")),
    Fault("settled-prefix-one-list-shorter", INDEX,
          "for rows in lists[:len(lists) // 2 + 1])",
          "for rows in lists[:len(lists) // 2])",
          (INDEX_TESTS + "test_the_partial_tier_is_proved_empty_only_when_it_is",
           INDEX_TESTS + "test_partial_needs_half_of_distinct_tokens_rounded_up",
           INDEX_TESTS + "test_search_matches_linear_scan_oracle")),
    Fault("found-rows-unchecked-for-order", INDEX,
          """\
            if not all(map(_ascends, rows)):
                raise _malformed(f"column entry {at}")
""", "",
          (INDEX_TESTS + "test_an_entry_out_of_order_is_refused_when_a_search_first_reads_it",)),
    Fault("cache-key-drops-the-closure-digest", LINKER,
          """\
                _expected_key(expected_types), config.content_hash, build_id,
                closure.digest)
""", """\
                _expected_key(expected_types), config.content_hash, build_id)
""",
          (KEY_TEST,
           "tests/test_cache.py::test_shared_cache_is_transparent_across_random_changes",
           "tests/test_cache.py::test_shared_cache_sees_a_changed_closure",
           STREAM)),
    Fault("vote-winner-takes-the-highest-id", TABLES,
          "winner = min(compress(weights, map(top.__eq__, weights.values())))",
          "winner = max(compress(weights, map(top.__eq__, weights.values())))",
          ("tests/test_tables.py::test_column_type_vote_tie_goes_to_lowest_id",
           "tests/test_tables.py::test_column_type_vote_and_boost_equal_their_reference_rules")),
    Fault("cache-key-ignores-the-mode", LINKER,
          "(norm(mention), mode, norm(context)", "(norm(mention), CELL, norm(context)",
          (KEY_TEST, "tests/test_cache.py::test_shared_cache_is_transparent_across_random_changes",
           STREAM)),
    Fault("cache-key-drops-the-context", LINKER,
          'norm(context) if context else "",', '"",',
          (KEY_TEST, "tests/test_link_cache.py::test_keys_are_link_cache_key_of_the_raw_inputs",
           STREAM)),
    Fault("cache-key-drops-the-config-hash", LINKER,
          "_expected_key(expected_types), config.content_hash, build_id,",
          '_expected_key(expected_types), "", build_id,',
          (KEY_TEST, LINKER_TESTS + "test_a_config_copy_gets_its_own_hash_and_cached_links",
           STREAM)),
    Fault("cache-key-drops-the-build-id", LINKER,
          "_expected_key(expected_types), config.content_hash, build_id,",
          '_expected_key(expected_types), config.content_hash, "",',
          (KEY_TEST, "tests/test_cache.py::test_stale_entries_are_keyed_away_not_returned",
           STREAM)),
    Fault("scored-memo-drops-the-pool-maximum", LINKER, _SCORED,
          _SCORED.replace("(s_max, mode)", "mode").replace("[s_max, mode]", "[mode]"),
          (LINKER_TESTS + "test_scored_memo_keys_hand_built_candidates_by_every_field",
           STREAM)),
    Fault("scored-memo-drops-the-mode", LINKER, _SCORED,
          _SCORED.replace("(s_max, mode)", "s_max").replace("[s_max, mode]", "[s_max]"),
          (LINKER_TESTS + "test_scored_memo_keeps_cell_and_header_mode_apart",
           LINKER_TESTS + "test_link_from_candidates_matches_the_oracle_twice_on_a_tie_heavy_kb",
           STREAM)),
    Fault("linker-tables-ignore-the-config", LINKER,
          "closure.memo.get(key := (config.content_hash, expected))",
          "closure.memo.get(key := expected)",
          (LINKER_TESTS + "test_tier_memo_keeps_configs_expected_types_and_closures_apart",
           LINKER_TESTS + "test_scored_memo_keeps_configs_differing_in_one_weight_or_boost_apart")),
    Fault("linker-tables-ignore-the-expected-types", LINKER,
          "closure.memo.get(key := (config.content_hash, expected))",
          "closure.memo.get(key := config.content_hash)",
          (LINKER_TESTS + "test_tier_memo_keeps_configs_expected_types_and_closures_apart",)),
    Fault("scored-memo-drops-the-match-tier", LINKER,
          "key := (id(record), match_tier, overlap)", "key := (id(record), overlap)",
          (LINKER_TESTS + "test_scored_memo_keys_hand_built_candidates_by_every_field",
           LINKER_TESTS + "test_link_from_candidates_matches_the_oracle_twice_on_a_tie_heavy_kb")),
    Fault("scored-memo-drops-the-overlap", LINKER,
          "key := (id(record), match_tier, overlap)", "key := (id(record), match_tier)",
          (LINKER_TESTS + "test_scored_memo_keys_hand_built_candidates_by_every_field",
           LINKER_TESTS + "test_link_from_candidates_matches_the_oracle_twice_on_a_tie_heavy_kb")),
    Fault("sort-key-sitelinks-flipped", LINKER,
          "return (-c.final_score, -c.record.sitelinks_count, c.record.id)",
          "return (-c.final_score, c.record.sitelinks_count, c.record.id)",
          (LINKER_TESTS + "test_sort_key_tie_breaks",
           LINKER_TESTS + "test_boost_keeps_exact_ties_in_sort_key_order")),
    Fault("nil-threshold-inclusive", LINKER,
          "return scored_sort_key(c), c.final_score < min_link_score, c",
          "return scored_sort_key(c), c.final_score <= min_link_score, c",
          ("tests/test_tables.py::test_column_type_vote_and_boost_equal_their_reference_rules",)),
    Fault("link-searches-through-another-module", LINKER,
          "    raw = search(index, mention, config.params.k, normalized=norm)",
          '    raw = __import__("tablink.index", fromlist=["search"]).search(\n'
          "        index, mention, config.params.k, normalized=norm)",
          ("tests/test_trace_boundaries.py::test_tracer_boundaries_cover_a_cached_table_link",)),
    Fault("vote-counts-support-twice", TABLES,
          "                support += 1\n                break\n",
          "                support += 1\n",
          ("tests/test_tables.py::test_column_type_vote_and_boost_equal_their_reference_rules",)),
    Fault("vote-sums-in-reverse", TABLES,
          "    for cands in candidate_sets:\n        for cand in cands:\n"
          "            score = cand.final_score",
          "    for cands in reversed(candidate_sets):\n        for cand in reversed(cands):\n"
          "            score = cand.final_score",
          ("tests/test_tables.py::test_column_type_vote_sums_in_candidate_order",)),
    Fault("search-drops-the-alias-tier", INDEX,
          "aliases = alias_rows[:k - len(labels)]", "aliases = alias_rows[:0]",
          (INDEX_TESTS + "test_alias_tier_and_best_tier_wins",
           INDEX_TESTS + "test_search_matches_linear_scan_oracle")),
    Fault("partial-needs-one-token-fewer", INDEX,
          "needed = math.ceil(len(lists) / 2)", "needed = math.ceil(len(lists) / 2) - 1",
          (INDEX_TESTS + "test_partial_needs_half_of_distinct_tokens_rounded_up",
           INDEX_TESTS + "test_search_cuts_large_pools_at_k_like_the_oracle")),
    Fault("partial-prefix-one-list-short", INDEX,
          "prefix = len(lists) - needed + 1", "prefix = len(lists) - needed",
          (INDEX_TESTS + "test_partial_needs_half_of_distinct_tokens_rounded_up",
           INDEX_TESTS + "test_search_cuts_large_pools_at_k_like_the_oracle")),
    Fault("partial-union-head-cut-at-m", INDEX,
          "head = set(short[:m + len(skip)]).union(long[:m + len(skip)])",
          "head = set(short[:m]).union(long[:m])",
          (INDEX_TESTS + "test_search_cuts_large_pools_at_k_like_the_oracle",
           INDEX_TESTS + "test_search_reads_tiers_in_rank_order[flu shot-2-want10]")),
    Fault("build-ranks-fewer-sitelinks-first", INDEX,
          "key=lambda r: (-r.sitelinks_count, r.id))", "key=lambda r: (r.sitelinks_count, r.id))",
          (INDEX_TESTS + "test_k_truncates_ranked_list",
           INDEX_TESTS + "test_search_matches_linear_scan_oracle",
           LINKER_TESTS + "test_virus_disambiguation")),
)


def _failed(fault: Fault) -> set[str]:
    """The node ids of fault's tests that fail or err against a copy of
    src/ with fault applied."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / fault.path
        text = target.read_text(encoding="utf-8")
        if text.count(fault.old) != 1:
            raise SystemExit(f"{fault.name}: old text is not in {fault.path} once")
        target.write_text(text.replace(fault.old, fault.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *fault.tests], cwd=ROOT, env=env, capture_output=True, text=True)
    return {line.split(" ", 1)[1].split(" - ", 1)[0]
            for line in run.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))}


def main(names: list[str]) -> int:
    unknown = set(names) - {f.name for f in FAULTS}
    if unknown:
        raise SystemExit(f"no such fault: {', '.join(sorted(unknown))}")
    missed = 0
    for fault in FAULTS:
        if names and fault.name not in names:
            continue
        if not fault.tests:
            raise SystemExit(f"{fault.name}: names no test")
        passed = set(fault.tests) - _failed(fault)
        missed += bool(passed)
        print(f"{'MISSED' if passed else 'caught'} {fault.name}"
              + "".join(f"\n    did not fail: {t}" for t in sorted(passed)))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
