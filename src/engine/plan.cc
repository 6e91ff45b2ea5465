#include "engine/plan.h"

#include <algorithm>

#include "stats/column_catalog.h"
#include "util/check.h"

namespace pjoin {

std::vector<PlanNode::ColumnRef> PlanNode::OutputColumns() const {
  std::vector<ColumnRef> out;
  switch (kind) {
    case Kind::kScan:
      for (const auto& def : table->schema().columns()) {
        out.push_back(ColumnRef{def.name, def.type, def.width(), table});
      }
      break;
    case Kind::kFilter:
      return child->OutputColumns();
    case Kind::kMap:
      out = child->OutputColumns();
      for (const auto& map : maps) {
        out.push_back(ColumnRef{map.name, map.type,
                                TypeWidth(map.type, map.char_len), nullptr});
      }
      break;
    case Kind::kJoin: {
      // Build-side columns first, probe-side columns second; probe-only and
      // build-only kinds still expose both sides (null-padded) plus the mark.
      out = build->OutputColumns();
      auto probe_cols = probe->OutputColumns();
      out.insert(out.end(), probe_cols.begin(), probe_cols.end());
      if (join_kind == JoinKind::kMark) {
        out.push_back(ColumnRef{mark_name, DataType::kInt64, 8, nullptr});
      }
      break;
    }
    case Kind::kAgg:
      PJOIN_CHECK_MSG(false, "aggregate is a root-only node");
  }
  return out;
}

uint64_t PlanNode::EstimateRows() const {
  switch (kind) {
    case Kind::kScan: {
      const double selectivity =
          EstimateConjunctionSelectivity(predicates, *table);
      const double rows =
          static_cast<double>(table->num_rows()) * selectivity;
      return rows < 1.0 ? 1 : static_cast<uint64_t>(rows);
    }
    case Kind::kFilter:
    case Kind::kMap:
    case Kind::kAgg:
      return child->EstimateRows();
    case Kind::kJoin:
      return EstimateJoinOutputRows(*this, build->EstimateRows(),
                                    probe->EstimateRows());
  }
  return 0;
}

const Table* ResolveBaseColumn(const PlanNode& node, const std::string& name,
                               int* col) {
  switch (node.kind) {
    case PlanNode::Kind::kScan: {
      const int idx = node.table->schema().Find(name);
      if (idx < 0) return nullptr;
      *col = idx;
      return node.table;
    }
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kAgg:
      return ResolveBaseColumn(*node.child, name, col);
    case PlanNode::Kind::kMap:
      for (const auto& map : node.maps) {
        if (map.name == name) return nullptr;  // computed, not traceable
      }
      return ResolveBaseColumn(*node.child, name, col);
    case PlanNode::Kind::kJoin: {
      const Table* t = ResolveBaseColumn(*node.build, name, col);
      return t != nullptr ? t : ResolveBaseColumn(*node.probe, name, col);
    }
  }
  return nullptr;
}

uint64_t EstimateJoinOutputRows(const PlanNode& join, uint64_t build_rows,
                                uint64_t probe_rows) {
  PJOIN_CHECK(join.kind == PlanNode::Kind::kJoin);
  switch (join.join_kind) {
    case JoinKind::kInner:
    case JoinKind::kLeftOuter:
    case JoinKind::kRightOuter:
      break;
    default:
      // Semi/anti/mark output at most one row per preserved-side input; the
      // probe-side estimate is already the right order of magnitude.
      return probe_rows;
  }
  if (join.keys.empty()) return probe_rows;
  int build_col = -1;
  int probe_col = -1;
  const Table* build_table =
      ResolveBaseColumn(*join.build, join.keys[0].first, &build_col);
  const Table* probe_table =
      ResolveBaseColumn(*join.probe, join.keys[0].second, &probe_col);
  if (build_table == nullptr || probe_table == nullptr) return probe_rows;
  // Distinct counts shrink at most linearly with filtering, so cap them by
  // the estimated input cardinalities before taking the containment max.
  const uint64_t d_build = std::min<uint64_t>(
      std::max<uint64_t>(1, build_rows),
      std::max<uint64_t>(1, ColumnDistinctCount(*build_table, build_col)));
  const uint64_t d_probe = std::min<uint64_t>(
      std::max<uint64_t>(1, probe_rows),
      std::max<uint64_t>(1, ColumnDistinctCount(*probe_table, probe_col)));
  if (ColumnDistinctCount(*build_table, build_col) == 0 ||
      ColumnDistinctCount(*probe_table, probe_col) == 0) {
    return probe_rows;  // an empty side has no statistics
  }
  const double d_max = static_cast<double>(std::max(d_build, d_probe));
  double out = static_cast<double>(build_rows) *
               static_cast<double>(probe_rows) / d_max;
  // Outer joins preserve one side regardless of matches.
  if (join.join_kind == JoinKind::kLeftOuter) {
    out = std::max(out, static_cast<double>(probe_rows));
  } else if (join.join_kind == JoinKind::kRightOuter) {
    out = std::max(out, static_cast<double>(build_rows));
  }
  return out < 1.0 ? 1 : static_cast<uint64_t>(out);
}

int PlanNode::CountJoins() const {
  switch (kind) {
    case Kind::kScan:
      return 0;
    case Kind::kFilter:
    case Kind::kMap:
    case Kind::kAgg:
      return child->CountJoins();
    case Kind::kJoin:
      return 1 + build->CountJoins() + probe->CountJoins();
  }
  return 0;
}

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  auto copy = std::make_unique<PlanNode>();
  copy->kind = kind;
  copy->table = table;
  copy->predicates = predicates;
  copy->bloom_probes = bloom_probes;
  if (child != nullptr) copy->child = child->Clone();
  copy->filter = filter;
  copy->maps = maps;
  if (build != nullptr) copy->build = build->Clone();
  if (probe != nullptr) copy->probe = probe->Clone();
  copy->keys = keys;
  copy->join_kind = join_kind;
  copy->mark_name = mark_name;
  copy->bloom_builds = bloom_builds;
  copy->group_by = group_by;
  copy->aggs = aggs;
  return copy;
}

namespace {

bool FilterEquals(const FilterDef& a, const FilterDef& b) {
  return a.label == b.label && a.inputs == b.inputs;
}

bool MapsEqual(const std::vector<MapDef>& a, const std::vector<MapDef>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].type != b[i].type ||
        a[i].char_len != b[i].char_len || a[i].inputs != b[i].inputs) {
      return false;
    }
  }
  return true;
}

bool AggsEqual(const std::vector<AggDef>& a, const std::vector<AggDef>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].op != b[i].op || a[i].input != b[i].input ||
        a[i].name != b[i].name) {
      return false;
    }
  }
  return true;
}

bool SubtreeEquals(const PlanNode* a, const PlanNode* b) {
  if (a == nullptr || b == nullptr) return a == b;
  return a->Equals(*b);
}

}  // namespace

bool PlanNode::Equals(const PlanNode& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case Kind::kScan:
      return table == other.table && predicates == other.predicates &&
             bloom_probes == other.bloom_probes;
    case Kind::kFilter:
      return FilterEquals(filter, other.filter) &&
             SubtreeEquals(child.get(), other.child.get());
    case Kind::kMap:
      return MapsEqual(maps, other.maps) &&
             SubtreeEquals(child.get(), other.child.get());
    case Kind::kJoin:
      return join_kind == other.join_kind && keys == other.keys &&
             mark_name == other.mark_name &&
             bloom_builds == other.bloom_builds &&
             SubtreeEquals(build.get(), other.build.get()) &&
             SubtreeEquals(probe.get(), other.probe.get());
    case Kind::kAgg:
      return group_by == other.group_by && AggsEqual(aggs, other.aggs) &&
             SubtreeEquals(child.get(), other.child.get());
  }
  return false;
}

std::unique_ptr<PlanNode> ScanTable(const Table* table,
                                    std::vector<ScanPredicate> predicates) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanNode::Kind::kScan;
  node->table = table;
  node->predicates = std::move(predicates);
  return node;
}

std::unique_ptr<PlanNode> Filter(std::unique_ptr<PlanNode> child,
                                 FilterDef filter) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanNode::Kind::kFilter;
  node->child = std::move(child);
  node->filter = std::move(filter);
  return node;
}

std::unique_ptr<PlanNode> MapColumns(std::unique_ptr<PlanNode> child,
                                     std::vector<MapDef> maps) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanNode::Kind::kMap;
  node->child = std::move(child);
  node->maps = std::move(maps);
  return node;
}

std::unique_ptr<PlanNode> Join(
    std::unique_ptr<PlanNode> build, std::unique_ptr<PlanNode> probe,
    std::vector<std::pair<std::string, std::string>> keys, JoinKind kind,
    std::string mark_name) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanNode::Kind::kJoin;
  node->build = std::move(build);
  node->probe = std::move(probe);
  node->keys = std::move(keys);
  node->join_kind = kind;
  node->mark_name = std::move(mark_name);
  PJOIN_CHECK(!node->keys.empty());
  if (kind == JoinKind::kMark) PJOIN_CHECK(!node->mark_name.empty());
  return node;
}

std::unique_ptr<PlanNode> Aggregate(std::unique_ptr<PlanNode> child,
                                    std::vector<std::string> group_by,
                                    std::vector<AggDef> aggs) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanNode::Kind::kAgg;
  node->child = std::move(child);
  node->group_by = std::move(group_by);
  node->aggs = std::move(aggs);
  return node;
}

}  // namespace pjoin
