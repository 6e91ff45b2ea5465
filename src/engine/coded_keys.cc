#include "engine/coded_keys.h"

#include <cstring>
#include <map>
#include <set>

#include "util/check.h"

namespace pjoin {

namespace {

// Names whose plain value is read somewhere: filter inputs, map inputs,
// aggregate group keys and inputs. Scan predicates are absent on purpose —
// they evaluate against the base table inside the scan, before the field
// format is chosen. Bloom plants are absent too: both plant ends hash the
// same 4-byte build-space code field, so the filter stays consistent.
void CollectValueUses(const PlanNode& node, std::set<std::string>* out) {
  switch (node.kind) {
    case PlanNode::Kind::kScan:
      break;
    case PlanNode::Kind::kFilter:
      for (const auto& name : node.filter.inputs) out->insert(name);
      CollectValueUses(*node.child, out);
      break;
    case PlanNode::Kind::kMap:
      for (const auto& map : node.maps) {
        for (const auto& name : map.inputs) out->insert(name);
      }
      CollectValueUses(*node.child, out);
      break;
    case PlanNode::Kind::kJoin:
      CollectValueUses(*node.build, out);
      CollectValueUses(*node.probe, out);
      break;
    case PlanNode::Kind::kAgg:
      for (const auto& name : node.group_by) out->insert(name);
      for (const auto& agg : node.aggs) {
        if (agg.op != AggDef::Op::kCountStar) out->insert(agg.input);
      }
      CollectValueUses(*node.child, out);
      break;
  }
}

// How many joins use each name as a key. A name keying two joins would need
// two code spaces at once, so only count == 1 qualifies.
void CountKeyUses(const PlanNode& node, std::map<std::string, int>* out) {
  switch (node.kind) {
    case PlanNode::Kind::kScan:
      break;
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kMap:
    case PlanNode::Kind::kAgg:
      CountKeyUses(*node.child, out);
      break;
    case PlanNode::Kind::kJoin:
      CountKeyUses(*node.build, out);
      CountKeyUses(*node.probe, out);
      for (const auto& [b, p] : node.keys) {
        ++(*out)[b];
        ++(*out)[p];
      }
      break;
  }
}

struct Walk {
  const PlanNode* root = nullptr;
  const std::set<std::string>* value_uses = nullptr;
  const std::map<std::string, int>* key_uses = nullptr;
  std::vector<CodedKeyPlan>* out = nullptr;
  int next_join_id = 0;
};

// Post-order over joins, mirroring the executor's join numbering (build
// subtree, probe subtree, then this join).
void VisitJoins(Walk& w, const PlanNode& node) {
  switch (node.kind) {
    case PlanNode::Kind::kScan:
      return;
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kMap:
    case PlanNode::Kind::kAgg:
      VisitJoins(w, *node.child);
      return;
    case PlanNode::Kind::kJoin:
      break;
  }
  VisitJoins(w, *node.build);
  VisitJoins(w, *node.probe);
  const int join_id = w.next_join_id++;
  for (const auto& [b, p] : node.keys) {
    if (w.value_uses->count(b) || w.value_uses->count(p)) continue;
    if (w.key_uses->at(b) != 1 || w.key_uses->at(p) != 1) continue;
    int bcol = -1, pcol = -1;
    const Table* bt = ResolveBaseColumn(*w.root, b, &bcol);
    const Table* pt = ResolveBaseColumn(*w.root, p, &pcol);
    if (bt == nullptr || pt == nullptr) continue;
    const Column& bc = bt->column(bcol);
    const Column& pc = pt->column(pcol);
    if (bc.type() != DataType::kChar || pc.type() != DataType::kChar) continue;
    if (bc.width() != pc.width()) continue;
    ColumnCatalog& catalog = ColumnCatalog::Global();
    const EncodedColumn* be = catalog.GetColumn(*bt, bcol);
    const EncodedColumn* pe = catalog.GetColumn(*pt, pcol);
    if (be == nullptr || pe == nullptr) continue;
    if (be->kind != EncodedColumn::Kind::kDict ||
        pe->kind != EncodedColumn::Kind::kDict) {
      continue;
    }
    CodedKeyPlan plan;
    plan.join_index = join_id;
    plan.build_name = b;
    plan.probe_name = p;
    plan.build_table = bt;
    plan.probe_table = pt;
    plan.build_enc = be;
    plan.probe_enc = pe;
    w.out->push_back(std::move(plan));
  }
}

}  // namespace

std::vector<CodedKeyPlan> CollectCodedJoinKeys(const PlanNode& root) {
  std::vector<CodedKeyPlan> plans;
  std::set<std::string> value_uses;
  CollectValueUses(root, &value_uses);
  std::map<std::string, int> key_uses;
  CountKeyUses(root, &key_uses);
  Walk w;
  w.root = &root;
  w.value_uses = &value_uses;
  w.key_uses = &key_uses;
  w.out = &plans;
  VisitJoins(w, root);
  return plans;
}

std::vector<uint32_t> BuildCodeRemap(const EncodedColumn& probe,
                                     const EncodedColumn& build) {
  PJOIN_CHECK(probe.kind == EncodedColumn::Kind::kDict &&
              build.kind == EncodedColumn::Kind::kDict);
  PJOIN_CHECK(probe.value_width == build.value_width);
  const uint32_t width = probe.value_width;
  std::vector<uint32_t> remap(probe.ndv, kNoCode);
  // Both dictionaries are sorted by raw byte order, so one merge suffices.
  uint64_t bi = 0;
  for (uint64_t pi = 0; pi < probe.ndv; ++pi) {
    const std::byte* pv = probe.DictValue(static_cast<uint32_t>(pi));
    while (bi < build.ndv) {
      const int cmp =
          std::memcmp(build.DictValue(static_cast<uint32_t>(bi)), pv, width);
      if (cmp < 0) {
        ++bi;
        continue;
      }
      if (cmp == 0) remap[pi] = static_cast<uint32_t>(bi);
      break;
    }
  }
  return remap;
}

}  // namespace pjoin
