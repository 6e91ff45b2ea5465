// Join-on-codes planning: which join keys can probe on dictionary codes.
//
// A dictionary code is a dense stand-in for a wide CHAR key: the dictionary
// is sorted by raw byte order, so code equality on one table is exactly
// KeySpec::Equals on the plain values. Across two tables the code spaces
// differ, so the probe side carries a remap (probe code -> build code) and
// the join compares build-space codes on both sides. A key pair qualifies
// only when the swap is invisible everywhere else: both columns come
// straight off a base scan, both are dictionary-encoded CHARs of equal
// width, neither value is read by a filter, map, or aggregate, and each
// name keys exactly one join (a second join would need a second, conflicting
// code space).
#ifndef PJOIN_ENGINE_CODED_KEYS_H_
#define PJOIN_ENGINE_CODED_KEYS_H_

#include <string>
#include <vector>

#include "engine/plan.h"
#include "stats/column_catalog.h"

namespace pjoin {

// Probe-side codes whose value is absent from the build dictionary map to
// this sentinel. It never equals a real build code (dictionaries hold at
// most 2^20 entries), so every join kind reaches the same verdict it would
// on the plain values: no match.
constexpr uint32_t kNoCode = 0xFFFFFFFFu;

struct CodedKeyPlan {
  int join_index = 0;  // post-order join id (executor/advisor numbering)
  std::string build_name;
  std::string probe_name;
  const Table* build_table = nullptr;
  const Table* probe_table = nullptr;
  const EncodedColumn* build_enc = nullptr;
  const EncodedColumn* probe_enc = nullptr;
};

// Walks the plan and returns every key pair that can join on codes, in
// join-post-order. Deterministic for a given plan and catalog state; returns
// empty when PJOIN_ENCODING=0 (the catalog answers null for every column).
std::vector<CodedKeyPlan> CollectCodedJoinKeys(const PlanNode& root);

// probe code -> build code translation table (kNoCode where the probe value
// is not in the build dictionary). One merge over the two sorted
// dictionaries.
std::vector<uint32_t> BuildCodeRemap(const EncodedColumn& probe,
                                     const EncodedColumn& build);

}  // namespace pjoin

#endif  // PJOIN_ENGINE_CODED_KEYS_H_
