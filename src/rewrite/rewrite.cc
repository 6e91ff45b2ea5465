#include "rewrite/rewrite.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "stats/column_catalog.h"
#include "util/check.h"
#include "util/env.h"

namespace pjoin {

bool RewriteOptions::Enabled() const {
  return enabled < 0 ? RewriteEnabledEnv() : enabled != 0;
}

int RewriteOptions::DpCap() const {
  if (dp_cap < 0) return RewriteDpCapEnv();
  int v = dp_cap;
  if (v < 2) v = 2;
  if (v > 20) v = 20;
  return v;
}

std::string RewriteInfo::RulesLine() const {
  std::string line;
  for (const auto& rule : rules) {
    if (!line.empty()) line += ",";
    line += rule;
  }
  return line;
}

namespace {

using NodePtr = std::unique_ptr<PlanNode>;

bool IsInnerJoin(const PlanNode& n) {
  return n.kind == PlanNode::Kind::kJoin && n.join_kind == JoinKind::kInner;
}

// True when `n` is an inner join, possibly under a chain of filters. Such
// filters sit *inside* a reorder region and are hoisted out before the
// region is rebuilt.
bool ReachesInnerJoin(const PlanNode& n0) {
  const PlanNode* n = &n0;
  while (n->kind == PlanNode::Kind::kFilter) n = n->child.get();
  return IsInnerJoin(*n);
}

void CollectProvidedNames(const PlanNode& node, std::vector<std::string>* out) {
  for (const auto& col : node.OutputColumns()) out->push_back(col.name);
}

bool ProvidesAll(const PlanNode& node, const std::vector<std::string>& names) {
  std::vector<std::string> have;
  CollectProvidedNames(node, &have);
  for (const auto& name : names) {
    if (std::find(have.begin(), have.end(), name) == have.end()) return false;
  }
  return true;
}

bool ProvidesName(const PlanNode& node, const std::string& name) {
  std::vector<std::string> have;
  CollectProvidedNames(node, &have);
  return std::find(have.begin(), have.end(), name) != have.end();
}

// ---- predicate pushdown -----------------------------------------------------
//
// Legality: a filter may sink below a join only into the side the join
// preserves verbatim. The other side is either null-padded above the join
// (outer and probe-only/build-only kinds), so the filter would read padding
// below but data above, or vice versa.

bool CanSinkToBuild(JoinKind kind) {
  switch (kind) {
    case JoinKind::kInner:
    case JoinKind::kBuildSemi:
    case JoinKind::kBuildAnti:
    case JoinKind::kRightOuter:
      return true;
    default:
      return false;
  }
}

bool CanSinkToProbe(JoinKind kind) {
  switch (kind) {
    case JoinKind::kInner:
    case JoinKind::kProbeSemi:
    case JoinKind::kProbeAnti:
    case JoinKind::kLeftOuter:
    case JoinKind::kMark:
      return true;
    default:
      return false;
  }
}

// Sinks detached filter node `f` into `*dest`, attaching it above the first
// operator it cannot legally pass. Returns the number of join/map hops
// crossed (0 = the filter ends up exactly where it started).
int SinkFilter(NodePtr f, NodePtr* dest) {
  PlanNode& n = **dest;
  switch (n.kind) {
    case PlanNode::Kind::kJoin:
      if (CanSinkToBuild(n.join_kind) &&
          ProvidesAll(*n.build, f->filter.inputs)) {
        return 1 + SinkFilter(std::move(f), &n.build);
      }
      if (CanSinkToProbe(n.join_kind) &&
          ProvidesAll(*n.probe, f->filter.inputs)) {
        return 1 + SinkFilter(std::move(f), &n.probe);
      }
      break;
    case PlanNode::Kind::kMap: {
      bool uses_map_output = false;
      for (const auto& map : n.maps) {
        for (const auto& input : f->filter.inputs) {
          if (map.name == input) uses_map_output = true;
        }
      }
      if (!uses_map_output) return 1 + SinkFilter(std::move(f), &n.child);
      break;
    }
    default:
      break;
  }
  f->child = std::move(*dest);
  *dest = std::move(f);
  return 0;
}

void PushDownFilters(NodePtr* slot, RewriteInfo* info) {
  // Detach the run of consecutive filters at this slot, outermost first.
  std::vector<NodePtr> run;
  while ((*slot)->kind == PlanNode::Kind::kFilter) {
    NodePtr f = std::move(*slot);
    *slot = std::move(f->child);
    run.push_back(std::move(f));
  }
  PlanNode& n = **slot;
  switch (n.kind) {
    case PlanNode::Kind::kMap:
    case PlanNode::Kind::kAgg:
      PushDownFilters(&n.child, info);
      break;
    case PlanNode::Kind::kJoin:
      PushDownFilters(&n.build, info);
      PushDownFilters(&n.probe, info);
      break;
    default:
      break;
  }
  // Re-sink innermost first so filters that land in the same place keep
  // their original relative order.
  for (auto it = run.rbegin(); it != run.rend(); ++it) {
    if (SinkFilter(std::move(*it), slot) > 0) info->filters_pushed++;
  }
}

// ---- join reordering --------------------------------------------------------

// One equi-join key inside a region, resolved to the two relation leaves
// that provide its columns.
struct RegionEdge {
  int a = -1;
  int b = -1;
  std::string col_a;
  std::string col_b;
};

struct Region {
  std::vector<PlanNode*> leaves;  // non-inner-join relation subtrees
  std::vector<std::vector<std::string>> leaf_names;
  std::vector<uint64_t> leaf_est;
  std::vector<PlanNode*> joins;   // the region's inner join nodes
  std::vector<RegionEdge> edges;  // in join/key discovery order
  // Filled by DismantleRegion, consumed by the rebuild.
  std::vector<NodePtr> owned_leaves;
  std::vector<NodePtr> owned_filters;  // interior filters, outermost first
};

void ScanRegion(PlanNode* n, Region* r) {
  if (n->kind == PlanNode::Kind::kFilter && ReachesInnerJoin(*n->child)) {
    ScanRegion(n->child.get(), r);
    return;
  }
  if (IsInnerJoin(*n)) {
    r->joins.push_back(n);
    ScanRegion(n->build.get(), r);
    ScanRegion(n->probe.get(), r);
    return;
  }
  r->leaves.push_back(n);
}

// Detaches every leaf and interior filter of the region rooted at `owned`,
// dropping the join nodes themselves. Leaf order matches ScanRegion.
void DismantleRegion(NodePtr owned, Region* r) {
  if (owned->kind == PlanNode::Kind::kFilter &&
      ReachesInnerJoin(*owned->child)) {
    NodePtr child = std::move(owned->child);
    r->owned_filters.push_back(std::move(owned));
    DismantleRegion(std::move(child), r);
    return;
  }
  if (IsInnerJoin(*owned)) {
    NodePtr build = std::move(owned->build);
    NodePtr probe = std::move(owned->probe);
    DismantleRegion(std::move(build), r);
    DismantleRegion(std::move(probe), r);
    return;
  }
  r->owned_leaves.push_back(std::move(owned));
}

int FindLeafProviding(const Region& r, const std::string& name) {
  for (size_t i = 0; i < r.leaf_names.size(); ++i) {
    const auto& names = r.leaf_names[i];
    if (std::find(names.begin(), names.end(), name) != names.end()) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// Base-column distinct count of `col` as provided by region leaf `leaf`, or
// 0 when statistics are unavailable or the column is computed.
uint64_t LeafColumnDistinct(const PlanNode& leaf, const std::string& col) {
  int idx = -1;
  const Table* table = ResolveBaseColumn(leaf, col, &idx);
  if (table == nullptr) return 0;
  return ColumnDistinctCount(*table, idx);
}

// Inner-join output estimate, mirroring EstimateJoinOutputRows so the DP's
// internal cost equals EstimateJoinTreeCost of the tree it builds.
uint64_t InnerOutEst(uint64_t build_est, uint64_t probe_est,
                     uint64_t d_build_raw, uint64_t d_probe_raw) {
  if (d_build_raw == 0 || d_probe_raw == 0) {
    return probe_est < 1 ? 1 : probe_est;  // statistics unavailable
  }
  const uint64_t d_build = std::min<uint64_t>(
      std::max<uint64_t>(1, build_est), std::max<uint64_t>(1, d_build_raw));
  const uint64_t d_probe = std::min<uint64_t>(
      std::max<uint64_t>(1, probe_est), std::max<uint64_t>(1, d_probe_raw));
  const double out = static_cast<double>(build_est) *
                     static_cast<double>(probe_est) /
                     static_cast<double>(std::max(d_build, d_probe));
  return out < 1.0 ? 1 : static_cast<uint64_t>(out);
}

// The first region edge connecting `build_mask` and `probe_mask`, oriented
// build-side first. This edge becomes keys[0] of the join the rebuild
// constructs, which is the pair EstimateJoinOutputRows costs with — so the
// DP must cost with it too. Returns false when no edge connects the sets.
bool FirstConnectingEdge(const Region& r, uint32_t build_mask,
                         uint32_t probe_mask, const std::string** build_col,
                         int* build_leaf, const std::string** probe_col,
                         int* probe_leaf) {
  for (const auto& e : r.edges) {
    const uint32_t bit_a = 1u << e.a;
    const uint32_t bit_b = 1u << e.b;
    if ((build_mask & bit_a) && (probe_mask & bit_b)) {
      *build_col = &e.col_a;
      *build_leaf = e.a;
      *probe_col = &e.col_b;
      *probe_leaf = e.b;
      return true;
    }
    if ((build_mask & bit_b) && (probe_mask & bit_a)) {
      *build_col = &e.col_b;
      *build_leaf = e.b;
      *probe_col = &e.col_a;
      *probe_leaf = e.a;
      return true;
    }
  }
  return false;
}

// All edges connecting the two sets, oriented (build column, probe column),
// in discovery order. The rebuilt join carries every connecting key so no
// equi-predicate is lost by reordering.
std::vector<std::pair<std::string, std::string>> ConnectingKeys(
    const Region& r, uint32_t build_mask, uint32_t probe_mask) {
  std::vector<std::pair<std::string, std::string>> keys;
  for (const auto& e : r.edges) {
    const uint32_t bit_a = 1u << e.a;
    const uint32_t bit_b = 1u << e.b;
    if ((build_mask & bit_a) && (probe_mask & bit_b)) {
      keys.emplace_back(e.col_a, e.col_b);
    } else if ((build_mask & bit_b) && (probe_mask & bit_a)) {
      keys.emplace_back(e.col_b, e.col_a);
    }
  }
  return keys;
}

// Combined estimate of joining the subtrees covered by two leaf masks,
// with the build role assigned to the smaller estimated side (ties break
// to the numerically smaller mask, keeping the choice deterministic).
bool CombineMasks(const Region& r, uint32_t m1, uint64_t e1, uint32_t m2,
                  uint64_t e2, uint32_t* build_mask, uint64_t* est) {
  uint32_t bm = m1, pm = m2;
  uint64_t be = e1, pe = e2;
  if (!(e1 < e2 || (e1 == e2 && m1 < m2))) {
    std::swap(bm, pm);
    std::swap(be, pe);
  }
  const std::string* bcol = nullptr;
  const std::string* pcol = nullptr;
  int bleaf = -1, pleaf = -1;
  if (!FirstConnectingEdge(r, bm, pm, &bcol, &bleaf, &pcol, &pleaf)) {
    return false;  // cross product; never enumerated
  }
  const uint64_t d_build = LeafColumnDistinct(*r.leaves[bleaf], *bcol);
  const uint64_t d_probe = LeafColumnDistinct(*r.leaves[pleaf], *pcol);
  *build_mask = bm;
  *est = InnerOutEst(be, pe, d_build, d_probe);
  return true;
}

// A join order over region leaves, produced by DPsize or the greedy
// fallback and consumed by the rebuild.
struct OrderTree {
  int leaf = -1;
  uint32_t mask = 0;
  uint64_t est = 0;
  std::unique_ptr<OrderTree> build;
  std::unique_ptr<OrderTree> probe;
};

struct SubPlan {
  uint64_t est = 0;
  double cost = 0.0;  // C_out over the subtree's joins
  uint32_t build_mask = 0;
  bool valid = false;
};

std::unique_ptr<OrderTree> ExtractDpTree(uint32_t mask,
                                         const std::vector<SubPlan>& dp) {
  auto t = std::make_unique<OrderTree>();
  t->mask = mask;
  t->est = dp[mask].est;
  if (std::popcount(mask) == 1) {
    t->leaf = std::countr_zero(mask);
    return t;
  }
  t->build = ExtractDpTree(dp[mask].build_mask, dp);
  t->probe = ExtractDpTree(mask ^ dp[mask].build_mask, dp);
  return t;
}

// Exact DPsize over connected subgraphs, minimizing C_out. Returns null
// when the join graph is disconnected.
std::unique_ptr<OrderTree> DpOrder(const Region& r, double* cost_out) {
  const int n = static_cast<int>(r.leaves.size());
  const uint32_t full = (n == 32) ? ~0u : ((1u << n) - 1);
  std::vector<SubPlan> dp(full + 1);
  for (int i = 0; i < n; ++i) {
    dp[1u << i] = SubPlan{r.leaf_est[i], 0.0, 0, true};
  }
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if (std::popcount(mask) < 2) continue;
    for (uint32_t sub = (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask) {
      const uint32_t rest = mask ^ sub;
      if (sub < rest) continue;  // each unordered split exactly once
      if (!dp[sub].valid || !dp[rest].valid) continue;
      uint32_t build_mask = 0;
      uint64_t est = 0;
      if (!CombineMasks(r, sub, dp[sub].est, rest, dp[rest].est, &build_mask,
                        &est)) {
        continue;
      }
      const double cost =
          dp[sub].cost + dp[rest].cost + static_cast<double>(est);
      if (!dp[mask].valid || cost < dp[mask].cost) {
        dp[mask] = SubPlan{est, cost, build_mask, true};
      }
    }
  }
  if (!dp[full].valid) return nullptr;
  *cost_out = dp[full].cost;
  return ExtractDpTree(full, dp);
}

// Greedy left-deep fallback above the DP cap: start from the cheapest
// connected pair, then repeatedly absorb the relation that keeps the next
// intermediate result smallest. Returns null on a disconnected graph.
std::unique_ptr<OrderTree> GreedyOrder(const Region& r, double* cost_out) {
  const int n = static_cast<int>(r.leaves.size());
  auto leaf_tree = [&](int i) {
    auto t = std::make_unique<OrderTree>();
    t->leaf = i;
    t->mask = 1u << i;
    t->est = r.leaf_est[i];
    return t;
  };
  auto join_trees = [&](std::unique_ptr<OrderTree> t1,
                        std::unique_ptr<OrderTree> t2, uint32_t build_mask,
                        uint64_t est) {
    auto t = std::make_unique<OrderTree>();
    t->mask = t1->mask | t2->mask;
    t->est = est;
    if (t1->mask == build_mask) {
      t->build = std::move(t1);
      t->probe = std::move(t2);
    } else {
      t->build = std::move(t2);
      t->probe = std::move(t1);
    }
    return t;
  };

  // Seed: cheapest connected leaf pair.
  int best_i = -1, best_j = -1;
  uint64_t best_est = 0;
  uint32_t best_bm = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      uint32_t bm = 0;
      uint64_t est = 0;
      if (!CombineMasks(r, 1u << i, r.leaf_est[i], 1u << j, r.leaf_est[j],
                        &bm, &est)) {
        continue;
      }
      if (best_i < 0 || est < best_est) {
        best_i = i;
        best_j = j;
        best_est = est;
        best_bm = bm;
      }
    }
  }
  if (best_i < 0) return nullptr;
  auto tree = join_trees(leaf_tree(best_i), leaf_tree(best_j), best_bm,
                         best_est);
  double cost = static_cast<double>(best_est);
  uint32_t used = tree->mask;

  while (std::popcount(used) < n) {
    int pick = -1;
    uint64_t pick_est = 0;
    uint32_t pick_bm = 0;
    for (int i = 0; i < n; ++i) {
      if (used & (1u << i)) continue;
      uint32_t bm = 0;
      uint64_t est = 0;
      if (!CombineMasks(r, used, tree->est, 1u << i, r.leaf_est[i], &bm,
                        &est)) {
        continue;
      }
      if (pick < 0 || est < pick_est) {
        pick = i;
        pick_est = est;
        pick_bm = bm;
      }
    }
    if (pick < 0) return nullptr;  // disconnected
    tree = join_trees(std::move(tree), leaf_tree(pick), pick_bm, pick_est);
    cost += static_cast<double>(pick_est);
    used = tree->mask;
  }
  *cost_out = cost;
  return tree;
}

NodePtr BuildFromOrder(const OrderTree& t, Region* r) {
  if (t.leaf >= 0) return std::move(r->owned_leaves[t.leaf]);
  NodePtr build = BuildFromOrder(*t.build, r);
  NodePtr probe = BuildFromOrder(*t.probe, r);
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanNode::Kind::kJoin;
  node->join_kind = JoinKind::kInner;
  node->keys = ConnectingKeys(*r, t.build->mask, t.probe->mask);
  PJOIN_CHECK(!node->keys.empty());
  node->build = std::move(build);
  node->probe = std::move(probe);
  return node;
}

const char* LeafLabel(const PlanNode& n) {
  switch (n.kind) {
    case PlanNode::Kind::kScan:
      return n.table->name().c_str();
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kMap:
      return LeafLabel(*n.child);
    case PlanNode::Kind::kJoin: {
      const char* b = LeafLabel(*n.build);
      return b != nullptr ? b : LeafLabel(*n.probe);
    }
    default:
      return nullptr;
  }
}

std::string RenderOrder(const OrderTree& t, const Region& r) {
  if (t.leaf >= 0) {
    const char* label = LeafLabel(*r.leaves[t.leaf]);
    return label != nullptr ? label : "expr";
  }
  return "(" + RenderOrder(*t.build, r) + "*" + RenderOrder(*t.probe, r) +
         ")";
}

void ProcessRegion(NodePtr* slot, const RewriteOptions& options,
                   RewriteInfo* info, int* largest_region) {
  Region r;
  ScanRegion(slot->get(), &r);
  if (r.joins.size() < 2) return;  // single joins keep their written order
  const int n = static_cast<int>(r.leaves.size());
  if (n > 30) return;  // beyond any plausible plan; keeps masks in 32 bits
  for (PlanNode* leaf : r.leaves) {
    r.leaf_names.emplace_back();
    CollectProvidedNames(*leaf, &r.leaf_names.back());
    r.leaf_est.push_back(leaf->EstimateRows());
  }
  // Name-based key routing is ambiguous when two relations expose the same
  // column (self-joins); rebuilding could silently reroute such a key, so
  // leave those regions as written.
  {
    std::vector<std::string> all;
    for (const auto& names : r.leaf_names) {
      all.insert(all.end(), names.begin(), names.end());
    }
    std::sort(all.begin(), all.end());
    if (std::adjacent_find(all.begin(), all.end()) != all.end()) return;
  }
  for (PlanNode* join : r.joins) {
    for (const auto& key : join->keys) {
      RegionEdge e;
      e.a = FindLeafProviding(r, key.first);
      e.b = FindLeafProviding(r, key.second);
      e.col_a = key.first;
      e.col_b = key.second;
      if (e.a < 0 || e.b < 0 || e.a == e.b) return;  // computed key column
      r.edges.push_back(std::move(e));
    }
  }
  double original_cost = 0.0;
  for (PlanNode* join : r.joins) {
    original_cost += static_cast<double>(join->EstimateRows());
  }
  double best_cost = 0.0;
  std::unique_ptr<OrderTree> best;
  const bool used_dp = n <= options.DpCap();
  best = used_dp ? DpOrder(r, &best_cost) : GreedyOrder(r, &best_cost);
  if (best == nullptr) return;  // disconnected join graph
  // Only a strictly cheaper order justifies touching the plan; ties keep
  // the written order so well-ordered plans stay byte-identical downstream.
  if (!(best_cost < original_cost)) return;
  NodePtr owned = std::move(*slot);
  DismantleRegion(std::move(owned), &r);
  NodePtr rebuilt = BuildFromOrder(*best, &r);
  for (auto it = r.owned_filters.rbegin(); it != r.owned_filters.rend();
       ++it) {
    (*it)->child = std::move(rebuilt);
    rebuilt = std::move(*it);
  }
  *slot = std::move(rebuilt);
  info->joins_reordered += static_cast<int>(r.joins.size());
  if (used_dp) {
    info->dp_regions++;
  } else {
    info->greedy_regions++;
  }
  info->filters_pulled += static_cast<int>(r.owned_filters.size());
  if (n > *largest_region) {
    *largest_region = n;
    info->order = RenderOrder(*best, r);
  }
}

void CollectLeafSlots(NodePtr* slot, std::vector<NodePtr*>* out) {
  PlanNode* n = slot->get();
  if (n->kind == PlanNode::Kind::kFilter && ReachesInnerJoin(*n->child)) {
    CollectLeafSlots(&n->child, out);
    return;
  }
  if (IsInnerJoin(*n)) {
    CollectLeafSlots(&n->build, out);
    CollectLeafSlots(&n->probe, out);
    return;
  }
  out->push_back(slot);
}

void ReorderWalk(NodePtr* slot, const RewriteOptions& options,
                 RewriteInfo* info, int* largest_region) {
  PlanNode* n = slot->get();
  switch (n->kind) {
    case PlanNode::Kind::kScan:
      return;
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kMap:
    case PlanNode::Kind::kAgg:
      ReorderWalk(&n->child, options, info, largest_region);
      return;
    case PlanNode::Kind::kJoin:
      if (n->join_kind == JoinKind::kInner) {
        ProcessRegion(slot, options, info, largest_region);
        // Recurse into the (possibly rebuilt) region's relation subtrees;
        // regions nested below non-inner joins reorder independently.
        std::vector<NodePtr*> leaf_slots;
        CollectLeafSlots(slot, &leaf_slots);
        for (NodePtr* leaf : leaf_slots) {
          ReorderWalk(leaf, options, info, largest_region);
        }
      } else {
        ReorderWalk(&n->build, options, info, largest_region);
        ReorderWalk(&n->probe, options, info, largest_region);
      }
      return;
  }
}

// ---- Bloom pushdown ---------------------------------------------------------

bool IntegerColumn(DataType type) {
  return type == DataType::kInt64 || type == DataType::kInt32 ||
         type == DataType::kDate;
}

// Column type as exposed by `node`, or kChar when the name is unknown.
DataType ExposedColumnType(const PlanNode& node, const std::string& name) {
  for (const auto& col : node.OutputColumns()) {
    if (col.name == name) return col.type;
  }
  return DataType::kChar;
}

// A Bloom filter built at join J may drop a probe-side row only when J
// itself discards unmatched probe rows (otherwise the dropped row was
// output, null-padded or as an anti match).
bool BloomLegalAtJoin(JoinKind kind) {
  switch (kind) {
    case JoinKind::kInner:
    case JoinKind::kProbeSemi:
    case JoinKind::kBuildSemi:
    case JoinKind::kBuildAnti:
    case JoinKind::kRightOuter:
      return true;
    default:
      return false;
  }
}

// An intermediate join K between the planting join and the target scan must
// carry the key column's values verbatim from the scan to the planting
// join, and dropping a carrier row early must not change what K emits for
// other rows. Sides that K null-pads or whose unmatched rows K emits
// (kProbeAnti output IS the unmatched rows) are therefore illegal to plant
// through.
bool BloomLegalUnderBuild(JoinKind kind) {
  switch (kind) {
    case JoinKind::kInner:
    case JoinKind::kRightOuter:
    case JoinKind::kBuildSemi:
    case JoinKind::kBuildAnti:
      return true;
    default:
      return false;
  }
}

bool BloomLegalUnderProbe(JoinKind kind) {
  switch (kind) {
    case JoinKind::kInner:
    case JoinKind::kProbeSemi:
    case JoinKind::kProbeAnti:
    case JoinKind::kLeftOuter:
    case JoinKind::kMark:
      return true;
    default:
      return false;
  }
}

// Walks `n` looking for the base scan that provides `name`, tracking how
// many joins sit on the path and whether every one of them legally lets a
// Bloom filter drop carrier rows below it.
PlanNode* FindBloomTarget(PlanNode* n, const std::string& name, int depth,
                          bool* distant) {
  switch (n->kind) {
    case PlanNode::Kind::kScan:
      if (n->table->schema().Find(name) < 0) return nullptr;
      *distant = depth >= 1;
      return n;
    case PlanNode::Kind::kFilter:
      return FindBloomTarget(n->child.get(), name, depth, distant);
    case PlanNode::Kind::kMap:
      for (const auto& map : n->maps) {
        if (map.name == name) return nullptr;  // computed column
      }
      return FindBloomTarget(n->child.get(), name, depth, distant);
    case PlanNode::Kind::kJoin:
      if (ProvidesName(*n->build, name)) {
        if (!BloomLegalUnderBuild(n->join_kind)) return nullptr;
        return FindBloomTarget(n->build.get(), name, depth + 1, distant);
      }
      if (ProvidesName(*n->probe, name)) {
        if (!BloomLegalUnderProbe(n->join_kind)) return nullptr;
        return FindBloomTarget(n->probe.get(), name, depth + 1, distant);
      }
      return nullptr;  // mark column
    case PlanNode::Kind::kAgg:
      return nullptr;
  }
  return nullptr;
}

struct BloomCtx {
  const RewriteOptions* options;
  RewriteInfo* info;
  int next_join_id = 0;   // post-order, matching lowering and EXPLAIN
  int next_bloom_id = 0;
};

void TryPlantBloom(PlanNode* join, int join_id, BloomCtx* ctx) {
  if (!BloomLegalAtJoin(join->join_kind)) return;
  const std::string& build_col = join->keys[0].first;
  const std::string& probe_col = join->keys[0].second;
  // The filter hashes widened integer values; char keys hash differently
  // per width and float keys do not widen losslessly.
  if (!IntegerColumn(ExposedColumnType(*join->build, build_col))) return;
  bool distant = false;
  PlanNode* target =
      FindBloomTarget(join->probe.get(), probe_col, 0, &distant);
  if (target == nullptr || !distant) {
    // An immediate probe scan is already covered by the radix join's own
    // bloom-accelerated probe; only a distant plant saves intermediate work.
    return;
  }
  const int target_col = target->table->schema().Find(probe_col);
  if (!IntegerColumn(target->table->schema().columns()[target_col].type)) {
    return;
  }
  // Cost gate.
  const uint64_t est_build = join->build->EstimateRows();
  if (est_build > ctx->options->bloom_max_build) return;
  int bc = -1;
  const Table* build_table = ResolveBaseColumn(*join->build, build_col, &bc);
  const uint64_t d_build =
      build_table != nullptr ? ColumnDistinctCount(*build_table, bc) : 0;
  const uint64_t d_probe = ColumnDistinctCount(*target->table, target_col);
  if (d_build > 0 && d_probe > 0) {
    const uint64_t d_build_eff =
        std::min<uint64_t>(std::max<uint64_t>(1, est_build), d_build);
    const double pass = std::min(
        1.0, static_cast<double>(d_build_eff) /
                 static_cast<double>(std::max<uint64_t>(1, d_probe)));
    if (pass > ctx->options->bloom_max_pass) return;
  } else {
    // No statistics: require a clearly lopsided size ratio instead.
    if (est_build * 8 > target->EstimateRows()) return;
  }
  BloomPlant plant;
  plant.id = ctx->next_bloom_id++;
  plant.build_column = build_col;
  plant.probe_column = probe_col;
  plant.source_join = join_id;
  target->bloom_probes.push_back(plant);
  join->bloom_builds.push_back(plant);
  ctx->info->blooms_planted++;
}

void PlantBloomsWalk(PlanNode* n, BloomCtx* ctx) {
  switch (n->kind) {
    case PlanNode::Kind::kScan:
      return;
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kMap:
    case PlanNode::Kind::kAgg:
      PlantBloomsWalk(n->child.get(), ctx);
      return;
    case PlanNode::Kind::kJoin: {
      PlantBloomsWalk(n->build.get(), ctx);
      PlantBloomsWalk(n->probe.get(), ctx);
      const int join_id = ctx->next_join_id++;
      TryPlantBloom(n, join_id, ctx);
      return;
    }
  }
}

void SumJoinCosts(const PlanNode& n, uint64_t* total) {
  switch (n.kind) {
    case PlanNode::Kind::kScan:
      return;
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kMap:
    case PlanNode::Kind::kAgg:
      SumJoinCosts(*n.child, total);
      return;
    case PlanNode::Kind::kJoin: {
      SumJoinCosts(*n.build, total);
      SumJoinCosts(*n.probe, total);
      const uint64_t est = n.EstimateRows();
      *total = (*total > std::numeric_limits<uint64_t>::max() - est)
                   ? std::numeric_limits<uint64_t>::max()
                   : *total + est;
      return;
    }
  }
}

}  // namespace

uint64_t EstimateJoinTreeCost(const PlanNode& root) {
  uint64_t total = 0;
  SumJoinCosts(root, &total);
  return total;
}

RewriteResult RewritePlan(const PlanNode& root,
                          const RewriteOptions& options) {
  RewriteResult result;
  if (!options.Enabled()) return result;
  result.info.enabled = true;
  NodePtr plan = root.Clone();
  if (options.join_reorder) {
    int largest_region = 0;
    ReorderWalk(&plan, options, &result.info, &largest_region);
  }
  if (options.predicate_pushdown) PushDownFilters(&plan, &result.info);
  if (options.bloom_pushdown) {
    BloomCtx ctx;
    ctx.options = &options;
    ctx.info = &result.info;
    PlantBloomsWalk(plan.get(), &ctx);
  }
  result.info.changed = !plan->Equals(root);
  if (!result.info.changed) {
    // Nothing fired (or a transformation round-tripped to the identical
    // tree): report a clean no-op so EXPLAIN and metrics stay untouched.
    RewriteInfo clean;
    clean.enabled = true;
    result.info = clean;
    return result;
  }
  if (result.info.filters_pulled > 0) result.info.rules.push_back("pullup");
  if (result.info.dp_regions > 0) result.info.rules.push_back("reorder_dp");
  if (result.info.greedy_regions > 0) {
    result.info.rules.push_back("reorder_greedy");
  }
  if (result.info.filters_pushed > 0) {
    result.info.rules.push_back("pushdown");
  }
  if (result.info.blooms_planted > 0) result.info.rules.push_back("bloom");
  result.plan = std::move(plan);
  return result;
}

}  // namespace pjoin
