// Logical query plans.
//
// Plans are hand-constructed trees (the system has no SQL frontend; plans
// correspond to the optimized plans Umbra generates for the paper's
// queries). The executor lowers a plan to pipelines for a chosen join
// strategy and materialization strategy, which is exactly the experiment
// knob of the paper: every join in the tree is replaced by the join under
// testing (Section 5.3).
#ifndef PJOIN_ENGINE_PLAN_H_
#define PJOIN_ENGINE_PLAN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/hash_agg.h"
#include "engine/operators.h"
#include "engine/predicate.h"
#include "join/join_types.h"
#include "storage/table.h"

namespace pjoin {

// A Bloom filter planted by the rewrite pass (semi-join pushdown): the build
// side of join `source_join` populates a shared filter, and a distant probe
// scan checks `probe_column` against it before any intermediate join runs.
// The integer id pairs the two ends at lowering time.
struct BloomPlant {
  int id = 0;
  std::string build_column;  // key column at the planting join's build side
  std::string probe_column;  // base-scan column checked against the filter
  int source_join = -1;      // post-order join id in the rewritten tree

  bool operator==(const BloomPlant& other) const {
    return id == other.id && build_column == other.build_column &&
           probe_column == other.probe_column &&
           source_join == other.source_join;
  }
};

struct PlanNode {
  enum class Kind { kScan, kFilter, kMap, kJoin, kAgg };
  Kind kind = Kind::kScan;

  // kScan
  const Table* table = nullptr;
  std::vector<ScanPredicate> predicates;
  std::vector<BloomPlant> bloom_probes;  // filters checked after this scan

  // unary nodes (kFilter, kMap, kAgg)
  std::unique_ptr<PlanNode> child;
  FilterDef filter;             // kFilter
  std::vector<MapDef> maps;     // kMap

  // kJoin
  std::unique_ptr<PlanNode> build;
  std::unique_ptr<PlanNode> probe;
  std::vector<std::pair<std::string, std::string>> keys;  // (build, probe)
  JoinKind join_kind = JoinKind::kInner;
  std::string mark_name;  // output column of a kMark join
  std::vector<BloomPlant> bloom_builds;  // filters this build side populates

  // kAgg
  std::vector<std::string> group_by;
  std::vector<AggDef> aggs;

  // --- analysis helpers ---------------------------------------------------

  // Names and definitions of the columns this node can produce.
  struct ColumnRef {
    std::string name;
    DataType type;
    uint32_t width;
    const Table* source_table;  // base table, or null for computed columns
  };
  std::vector<ColumnRef> OutputColumns() const;

  // Cardinality estimate used to size radix partitions and feed the join
  // advisor. Scans answer from the column catalog's histograms with
  // correlation-damped conjunctions, and joins from its distinct counts;
  // joins on computed keys are estimated by their probe side.
  uint64_t EstimateRows() const;

  // Number of join nodes in this subtree.
  int CountJoins() const;

  // Deep copy. FilterDef/MapDef lambdas are shared (std::function copies),
  // which is safe: definitions are immutable once built.
  std::unique_ptr<PlanNode> Clone() const;

  // Structural equality. Filter and map definitions compare by their
  // declared identity (label/name, inputs, types), not by lambda address —
  // two filters with the same label and inputs are the same rewrite-level
  // object even after a Clone. The rewrite pass uses this to detect no-op
  // transformations and keep untouched plans byte-identical downstream.
  bool Equals(const PlanNode& other) const;
};

// Traces output column `name` of the subtree at `node` back to the base
// table column it was scanned from; sets *col and returns the table, or
// returns null for computed columns and names that never reach a scan.
// Shared by the advisor's skew estimate and the statistics-backed join
// cardinality estimate.
const Table* ResolveBaseColumn(const PlanNode& node, const std::string& name,
                               int* col);

// Estimated output cardinality of join node `join` given estimated input
// cardinalities. With statistics, inner/outer joins use the textbook
// containment estimate |B><P| ~= |B|*|P| / max(d_build, d_probe) over the
// base-column distinct counts of the first key pair; semi/anti/mark kinds
// and plans without statistics keep the probe-side (FK-join) estimate.
uint64_t EstimateJoinOutputRows(const PlanNode& join, uint64_t build_rows,
                                uint64_t probe_rows);

// --- builder functions --------------------------------------------------

std::unique_ptr<PlanNode> ScanTable(const Table* table,
                                    std::vector<ScanPredicate> predicates = {});
std::unique_ptr<PlanNode> Filter(std::unique_ptr<PlanNode> child,
                                 FilterDef filter);
std::unique_ptr<PlanNode> MapColumns(std::unique_ptr<PlanNode> child,
                                     std::vector<MapDef> maps);
std::unique_ptr<PlanNode> Join(
    std::unique_ptr<PlanNode> build, std::unique_ptr<PlanNode> probe,
    std::vector<std::pair<std::string, std::string>> keys,
    JoinKind kind = JoinKind::kInner, std::string mark_name = "");
std::unique_ptr<PlanNode> Aggregate(std::unique_ptr<PlanNode> child,
                                    std::vector<std::string> group_by,
                                    std::vector<AggDef> aggs);

}  // namespace pjoin

#endif  // PJOIN_ENGINE_PLAN_H_
