// Table-scan predicates.
//
// Umbra's table scan reads only the needed columns, filters them with
// vectorizable column-at-a-time predicates, and stitches surviving rows into
// tuples (Section 4.2). These descriptors cover every base-table predicate
// appearing in our TPC-H plans; anything more exotic becomes a generic
// FilterOp lambda later in the pipeline.
#ifndef PJOIN_ENGINE_PREDICATE_H_
#define PJOIN_ENGINE_PREDICATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/table.h"

namespace pjoin {

struct ScanPredicate {
  enum class Op {
    kEq,
    kNe,
    kLt,
    kLe,
    kGt,
    kGe,
    kBetween,      // [i0, i1] or [d0, d1] inclusive
    kInSet,        // integer membership
    kStrEq,
    kStrNe,
    kStrPrefix,    // LIKE 'foo%'
    kStrSuffix,    // LIKE '%foo'
    kStrContains,  // LIKE '%foo%'
    kStrNotContains,
    kStrIn,        // string membership
    kColLt,        // column < column2 (e.g., l_commitdate < l_receiptdate)
    kColNe,        // column <> column2
  };

  std::string column;
  Op op = Op::kEq;
  // Numeric operands (dates use day numbers in i0/i1).
  int64_t i0 = 0;
  int64_t i1 = 0;
  double d0 = 0;
  double d1 = 0;
  bool is_double = false;
  std::vector<int64_t> iset;
  std::string s0;
  std::vector<std::string> sset;
  std::string column2;  // second column for kCol* ops

  // Structural equality: two predicates are equal when they test the same
  // columns with the same operator and operands. The rewrite pass relies on
  // this both for plan equality and to drop duplicate predicates a pushdown
  // created before estimating conjunction selectivity.
  bool operator==(const ScanPredicate& other) const;

  // --- factories ----------------------------------------------------------
  static ScanPredicate EqI(std::string col, int64_t v);
  static ScanPredicate NeI(std::string col, int64_t v);
  static ScanPredicate LtI(std::string col, int64_t v);
  static ScanPredicate LeI(std::string col, int64_t v);
  static ScanPredicate GtI(std::string col, int64_t v);
  static ScanPredicate GeI(std::string col, int64_t v);
  static ScanPredicate BetweenI(std::string col, int64_t lo, int64_t hi);
  static ScanPredicate InI(std::string col, std::vector<int64_t> values);
  static ScanPredicate LtD(std::string col, double v);
  static ScanPredicate GtD(std::string col, double v);
  static ScanPredicate BetweenD(std::string col, double lo, double hi);
  static ScanPredicate StrEq(std::string col, std::string v);
  static ScanPredicate StrNe(std::string col, std::string v);
  static ScanPredicate StrPrefix(std::string col, std::string v);
  static ScanPredicate StrSuffix(std::string col, std::string v);
  static ScanPredicate StrContains(std::string col, std::string v);
  static ScanPredicate StrNotContains(std::string col, std::string v);
  static ScanPredicate StrIn(std::string col, std::vector<std::string> values);
  static ScanPredicate ColLt(std::string col, std::string col2);
  static ScanPredicate ColNe(std::string col, std::string col2);
};

// Evaluates one predicate against table row `row`. Used column-at-a-time by
// the scan; exposed for testing.
bool EvalPredicate(const ScanPredicate& pred, const Table& table,
                   uint64_t row);

// Estimated fraction of rows passing `pred`, in [0, 1]. Numeric comparisons
// answer from the column catalog's equal-height histograms and string
// equality/membership from its distinct counts; other string predicates,
// and every predicate on an empty table, use fixed heuristics.
// Deterministic for a given table, so plan estimates — and the join-advisor
// decisions built on them — are stable across runs.
double EstimateSelectivity(const ScanPredicate& pred, const Table& table);

// Combined selectivity of a predicate conjunction, in [0, 1]. Without
// statistics this is the plain product over EstimateSelectivity
// (independence assumption, the pre-statistics behavior). With statistics,
// predicates on the same column combine by their minimum, and across
// columns the distinct-count sketches arbitrate: when the product of the
// involved columns' distinct counts exceeds the row count — evidence the
// columns cannot vary independently — the per-column selectivities combine
// with exponential backoff (s0 * s1^1/2 * s2^1/4 ... over ascending
// values), which is always clamped by the most selective single column.
double EstimateConjunctionSelectivity(const std::vector<ScanPredicate>& preds,
                                      const Table& table);

}  // namespace pjoin

#endif  // PJOIN_ENGINE_PREDICATE_H_
