// Shared helpers for pipeline-level tests: an in-memory row source, a
// collecting sink, and a nested-loop reference join covering every kind.
#ifndef PJOIN_TESTS_TEST_UTIL_H_
#define PJOIN_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/plan.h"
#include "exec/batch.h"
#include "exec/morsel.h"
#include "exec/pipeline.h"
#include "join/join_types.h"
#include "storage/row_layout.h"
#include "storage/table.h"
#include "util/check.h"

namespace pjoin {

// RAII environment variable override; a null value unsets the variable.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

// A computed int64 column `name` holding a copy of `input`: the same values
// under a name that no longer resolves to a base column, so the planner has
// no statistics for it.
inline MapDef ComputedCopy(const std::string& name, const std::string& input) {
  MapDef def;
  def.name = name;
  def.type = DataType::kInt64;
  def.inputs = {input};
  def.fn = [](const RowLayout& layout, const std::byte* row, const int* fields,
              std::byte* dst) {
    const int64_t v = layout.GetInt64(row, fields[0]);
    std::memcpy(dst, &v, 8);
  };
  return def;
}

// Rows of int64 columns, used as plain relations in tests.
using IntRows = std::vector<std::vector<int64_t>>;

// Builds an N-int64-column layout named c0, c1, ...
inline RowLayout IntLayout(int columns) {
  std::vector<RowField> fields;
  for (int i = 0; i < columns; ++i) {
    fields.push_back(RowField{"c" + std::to_string(i) + "_x",
                              DataType::kInt64, 8, 0});
  }
  return RowLayout(std::move(fields));
}

// Pipeline source producing batches from IntRows.
class IntRowsSource : public Source {
 public:
  IntRowsSource(const RowLayout* layout, const IntRows* rows)
      : layout_(layout), rows_(rows), queue_(rows->size(), 2048) {}

  bool ProduceMorsel(Operator& consumer, ThreadContext& ctx) override {
    Morsel m = queue_.Next();
    if (m.empty()) return false;
    BatchScratch scratch;
    scratch.Bind(layout_);
    Batch batch = scratch.Start();
    for (uint64_t r = m.begin; r < m.end; ++r) {
      std::byte* slot = scratch.AppendSlot(batch);
      const auto& row = (*rows_)[r];
      for (int c = 0; c < layout_->num_fields(); ++c) {
        layout_->SetInt64(slot, c, row[c]);
      }
      if (scratch.Full(batch)) {
        consumer.Consume(batch, ctx);
        batch = scratch.Start();
      }
    }
    if (batch.size > 0) consumer.Consume(batch, ctx);
    return true;
  }
  const RowLayout* OutputLayout() const override { return layout_; }

 private:
  const RowLayout* layout_;
  const IntRows* rows_;
  MorselQueue queue_;
};

// Sink collecting all numeric fields of incoming rows (thread-safe).
class IntCollectSink : public Operator {
 public:
  explicit IntCollectSink(const RowLayout* layout) : layout_(layout) {}

  void Consume(Batch& batch, ThreadContext&) override {
    std::vector<std::vector<int64_t>> local;
    local.reserve(batch.size);
    for (uint32_t i = 0; i < batch.size; ++i) {
      std::vector<int64_t> row(layout_->num_fields());
      for (int c = 0; c < layout_->num_fields(); ++c) {
        row[c] = layout_->GetNumeric(batch.Row(i), c);
      }
      local.push_back(std::move(row));
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& r : local) rows_.push_back(std::move(r));
  }
  const RowLayout* OutputLayout() const override { return layout_; }

  // Rows sorted lexicographically (output order is nondeterministic).
  IntRows SortedRows() const {
    IntRows copy = rows_;
    std::sort(copy.begin(), copy.end());
    return copy;
  }
  uint64_t count() const { return rows_.size(); }

 private:
  const RowLayout* layout_;
  mutable std::mutex mu_;
  IntRows rows_;
};

// Nested-loop reference join over IntRows. Key is column `key_col` on both
// sides. Output schema mirrors the join operators:
//   pair kinds:   build cols ++ probe cols (absent side zero-filled)
//   probe-only:   zeros(build) ++ probe cols
//   build-only:   build cols ++ zeros(probe)
//   mark:         zeros(build) ++ probe cols ++ [mark]
inline IntRows ReferenceJoin(const IntRows& build, const IntRows& probe,
                             int key_col, JoinKind kind, int build_cols,
                             int probe_cols) {
  IntRows out;
  std::multimap<int64_t, const std::vector<int64_t>*> index;
  for (const auto& b : build) index.emplace(b[key_col], &b);

  auto pair_row = [&](const std::vector<int64_t>* b,
                      const std::vector<int64_t>* p) {
    std::vector<int64_t> row;
    for (int c = 0; c < build_cols; ++c) row.push_back(b ? (*b)[c] : 0);
    for (int c = 0; c < probe_cols; ++c) row.push_back(p ? (*p)[c] : 0);
    return row;
  };

  std::vector<char> build_matched(build.size(), 0);
  std::map<const std::vector<int64_t>*, size_t> build_index;
  for (size_t i = 0; i < build.size(); ++i) build_index[&build[i]] = i;

  for (const auto& p : probe) {
    auto [lo, hi] = index.equal_range(p[key_col]);
    bool matched = lo != hi;
    for (auto it = lo; it != hi; ++it) {
      build_matched[build_index[it->second]] = 1;
      if (kind == JoinKind::kInner || kind == JoinKind::kLeftOuter ||
          kind == JoinKind::kRightOuter) {
        out.push_back(pair_row(it->second, &p));
      }
    }
    switch (kind) {
      case JoinKind::kProbeSemi:
        if (matched) out.push_back(pair_row(nullptr, &p));
        break;
      case JoinKind::kProbeAnti:
        if (!matched) out.push_back(pair_row(nullptr, &p));
        break;
      case JoinKind::kLeftOuter:
        if (!matched) out.push_back(pair_row(nullptr, &p));
        break;
      case JoinKind::kMark: {
        auto row = pair_row(nullptr, &p);
        row.push_back(matched ? 1 : 0);
        out.push_back(std::move(row));
        break;
      }
      default:
        break;
    }
  }
  for (size_t i = 0; i < build.size(); ++i) {
    const bool m = build_matched[i] != 0;
    if ((kind == JoinKind::kBuildSemi && m) ||
        (kind == JoinKind::kBuildAnti && !m) ||
        (kind == JoinKind::kRightOuter && !m)) {
      out.push_back(pair_row(&build[i], nullptr));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- Random multi-join plan generator + interpreter oracle ---------------
//
// Fuel for the rewrite-equivalence fuzz suite: RandomPlanGenerator::Next()
// builds a connected random join tree over 2-6 fresh integer tables (skewed
// key domains, mixed join kinds, modulus filters at random heights) rooted
// in an aggregate. OracleEval() interprets the same tree with nested-loop
// joins and exact int64 aggregates; the filter registry lets it evaluate
// kFilter nodes from their declared semantics instead of calling lambdas.

struct GeneratedPlan {
  struct ModFilter {
    std::string column;
    int64_t modulus = 2;  // keep rows where column % modulus != 0
  };
  std::vector<std::unique_ptr<Table>> tables;
  std::unique_ptr<PlanNode> plan;                 // kAgg root
  std::map<std::string, ModFilter> filters;       // keyed by FilterDef label
};

class RandomPlanGenerator {
 public:
  // xorshift64: fully deterministic for a fixed seed across platforms.
  explicit RandomPlanGenerator(uint64_t seed)
      : state_(seed != 0 ? seed : 0x9E3779B97F4A7C15ull) {}

  GeneratedPlan Next() {
    GeneratedPlan g;
    const uint64_t serial = serial_++;
    const int num_rel = 2 + static_cast<int>(Rand() % 5);  // 2..6 relations

    struct Rel {
      std::string a, b, v;
    };
    std::vector<Rel> rel;
    for (int i = 0; i < num_rel; ++i) {
      const std::string base =
          "t" + std::to_string(serial) + "_" + std::to_string(i);
      Rel r{base + "_a", base + "_b", base + "_v"};
      auto table = std::make_unique<Table>(
          base, Schema({ColumnDef{r.a, DataType::kInt64, 0},
                        ColumnDef{r.b, DataType::kInt64, 0},
                        ColumnDef{r.v, DataType::kInt64, 0}}));
      const uint64_t rows = 4 + Rand() % 300;
      const int64_t dom_a = 2 + static_cast<int64_t>(Rand() % 48);
      const int64_t dom_b = 2 + static_cast<int64_t>(Rand() % 48);
      const bool skew = Rand() % 3 == 0;  // quadratic pile-up at low keys
      table->Reserve(rows);
      for (uint64_t j = 0; j < rows; ++j) {
        table->column(0).AppendInt64(Draw(dom_a, skew));
        table->column(1).AppendInt64(Draw(dom_b, skew));
        table->column(2).AppendInt64(static_cast<int64_t>(Rand() % 1000));
        table->FinishRow();
      }
      rel.push_back(r);
      g.tables.push_back(std::move(table));
    }

    // Scans, occasionally pre-filtered. Every filter column stays visible
    // at the top (joins expose both sides), so correlated filters can also
    // land far above their scan.
    auto leaf = [&](int i) {
      std::unique_ptr<PlanNode> n = ScanTable(g.tables[i].get());
      if (Rand() % 4 == 0) n = AddFilter(std::move(n), PickColumn(rel[i]), &g);
      return n;
    };

    // Fold relations into a connected tree: each new relation joins on a
    // key of a randomly chosen already-joined relation, with random
    // build/probe orientation and a kind mix biased toward inner joins.
    std::unique_ptr<PlanNode> tree = leaf(0);
    std::vector<int> joined = {0};
    for (int i = 1; i < num_rel; ++i) {
      const int partner = joined[Rand() % joined.size()];
      const std::string tree_key =
          Rand() % 2 == 0 ? rel[partner].a : rel[partner].b;
      const std::string new_key = Rand() % 2 == 0 ? rel[i].a : rel[i].b;
      const JoinKind kind = PickKind();
      const std::string mark =
          kind == JoinKind::kMark
              ? "t" + std::to_string(serial) + "_mk" + std::to_string(i)
              : "";
      if (Rand() % 2 == 0) {
        tree =
            Join(leaf(i), std::move(tree), {{new_key, tree_key}}, kind, mark);
      } else {
        tree =
            Join(std::move(tree), leaf(i), {{tree_key, new_key}}, kind, mark);
      }
      joined.push_back(i);
      if (Rand() % 3 == 0) {
        tree = AddFilter(std::move(tree),
                         PickColumn(rel[joined[Rand() % joined.size()]]), &g);
      }
    }

    std::vector<std::string> group_by;
    if (Rand() % 2 == 0) {
      const Rel& gr = rel[Rand() % num_rel];
      group_by.push_back(Rand() % 2 == 0 ? gr.a : gr.b);
    }
    g.plan = Aggregate(
        std::move(tree), std::move(group_by),
        {AggDef::CountStar("cnt"), AggDef::Sum(rel[Rand() % num_rel].v, "s")});
    return g;
  }

 private:
  uint64_t Rand() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  int64_t Draw(int64_t domain, bool skew) {
    int64_t v = static_cast<int64_t>(Rand() % static_cast<uint64_t>(domain));
    return skew ? v * v / domain : v;
  }

  template <typename Rel>
  std::string PickColumn(const Rel& r) {
    const uint64_t pick = Rand() % 3;
    return pick == 0 ? r.a : pick == 1 ? r.b : r.v;
  }

  std::unique_ptr<PlanNode> AddFilter(std::unique_ptr<PlanNode> node,
                                      const std::string& column,
                                      GeneratedPlan* g) {
    const int64_t m = 2 + static_cast<int64_t>(Rand() % 5);
    const std::string label = column + "%" + std::to_string(m);
    if (g->filters.count(label) != 0) return node;  // keep labels unique
    g->filters[label] = GeneratedPlan::ModFilter{column, m};
    FilterDef def;
    def.label = label;
    def.inputs = {column};
    def.fn = [m](const RowLayout& l, const std::byte* row, const int* f) {
      return l.GetNumeric(row, f[0]) % m != 0;
    };
    return Filter(std::move(node), std::move(def));
  }

  JoinKind PickKind() {
    switch (Rand() % 13) {
      case 6:
        return JoinKind::kProbeSemi;
      case 7:
        return JoinKind::kProbeAnti;
      case 8:
        return JoinKind::kBuildSemi;
      case 9:
        return JoinKind::kBuildAnti;
      case 10:
        return JoinKind::kLeftOuter;
      case 11:
        return JoinKind::kRightOuter;
      case 12:
        return JoinKind::kMark;
      default:
        return JoinKind::kInner;
    }
  }

  uint64_t state_;
  uint64_t serial_ = 0;
};

// A materialized intermediate relation inside the oracle interpreter.
struct OracleRel {
  std::vector<std::string> names;
  IntRows rows;

  int IndexOf(const std::string& name) const {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return static_cast<int>(i);
    }
    return -1;
  }
};

// Evaluates a generated plan bottom-up with indexed nested-loop joins,
// mirroring the engine's output conventions: joins emit build columns then
// probe columns (absent side zero-filled, mark appended), scalar aggregates
// over empty input yield one zero row, rows come back sorted.
inline OracleRel OracleEval(const PlanNode& node, const GeneratedPlan& g) {
  switch (node.kind) {
    case PlanNode::Kind::kScan: {
      OracleRel rel;
      const Table& t = *node.table;
      const auto& cols = t.schema().columns();
      for (const auto& c : cols) rel.names.push_back(c.name);
      rel.rows.reserve(t.num_rows());
      for (uint64_t r = 0; r < t.num_rows(); ++r) {
        std::vector<int64_t> row;
        row.reserve(cols.size());
        for (size_t c = 0; c < cols.size(); ++c) {
          row.push_back(t.column(static_cast<int>(c)).GetInt64(r));
        }
        rel.rows.push_back(std::move(row));
      }
      return rel;
    }
    case PlanNode::Kind::kFilter: {
      OracleRel in = OracleEval(*node.child, g);
      auto it = g.filters.find(node.filter.label);
      PJOIN_CHECK_MSG(it != g.filters.end(), node.filter.label.c_str());
      const int idx = in.IndexOf(it->second.column);
      PJOIN_CHECK(idx >= 0);
      OracleRel out;
      out.names = in.names;
      for (auto& row : in.rows) {
        if (row[idx] % it->second.modulus != 0) {
          out.rows.push_back(std::move(row));
        }
      }
      return out;
    }
    case PlanNode::Kind::kJoin: {
      OracleRel b = OracleEval(*node.build, g);
      OracleRel p = OracleEval(*node.probe, g);
      OracleRel out;
      out.names = b.names;
      out.names.insert(out.names.end(), p.names.begin(), p.names.end());
      if (node.join_kind == JoinKind::kMark) {
        out.names.push_back(node.mark_name);
      }
      std::vector<int> bk, pk;
      for (const auto& key : node.keys) {
        bk.push_back(b.IndexOf(key.first));
        pk.push_back(p.IndexOf(key.second));
        PJOIN_CHECK(bk.back() >= 0 && pk.back() >= 0);
      }
      const size_t bc = b.names.size();
      const size_t pc = p.names.size();
      auto emit = [&](const std::vector<int64_t>* br,
                      const std::vector<int64_t>* pr) {
        std::vector<int64_t> row;
        row.reserve(bc + pc + 1);
        for (size_t c = 0; c < bc; ++c) row.push_back(br ? (*br)[c] : 0);
        for (size_t c = 0; c < pc; ++c) row.push_back(pr ? (*pr)[c] : 0);
        return row;
      };
      std::map<std::vector<int64_t>, std::vector<size_t>> index;
      for (size_t i = 0; i < b.rows.size(); ++i) {
        std::vector<int64_t> key;
        for (int k : bk) key.push_back(b.rows[i][k]);
        index[std::move(key)].push_back(i);
      }
      std::vector<char> build_matched(b.rows.size(), 0);
      std::vector<int64_t> probe_key(pk.size());
      for (const auto& pr : p.rows) {
        for (size_t k = 0; k < pk.size(); ++k) probe_key[k] = pr[pk[k]];
        auto it = index.find(probe_key);
        const bool matched = it != index.end();
        if (matched) {
          for (size_t i : it->second) {
            build_matched[i] = 1;
            if (node.join_kind == JoinKind::kInner ||
                node.join_kind == JoinKind::kLeftOuter ||
                node.join_kind == JoinKind::kRightOuter) {
              out.rows.push_back(emit(&b.rows[i], &pr));
            }
          }
        }
        switch (node.join_kind) {
          case JoinKind::kProbeSemi:
            if (matched) out.rows.push_back(emit(nullptr, &pr));
            break;
          case JoinKind::kProbeAnti:
            if (!matched) out.rows.push_back(emit(nullptr, &pr));
            break;
          case JoinKind::kLeftOuter:
            if (!matched) out.rows.push_back(emit(nullptr, &pr));
            break;
          case JoinKind::kMark: {
            auto row = emit(nullptr, &pr);
            row.push_back(matched ? 1 : 0);
            out.rows.push_back(std::move(row));
            break;
          }
          default:
            break;
        }
      }
      for (size_t i = 0; i < b.rows.size(); ++i) {
        const bool m = build_matched[i] != 0;
        if ((node.join_kind == JoinKind::kBuildSemi && m) ||
            (node.join_kind == JoinKind::kBuildAnti && !m) ||
            (node.join_kind == JoinKind::kRightOuter && !m)) {
          out.rows.push_back(emit(&b.rows[i], nullptr));
        }
      }
      return out;
    }
    case PlanNode::Kind::kAgg: {
      OracleRel in = OracleEval(*node.child, g);
      std::vector<int> gidx;
      for (const auto& name : node.group_by) {
        gidx.push_back(in.IndexOf(name));
        PJOIN_CHECK(gidx.back() >= 0);
      }
      std::vector<int> aidx;
      for (const auto& agg : node.aggs) {
        PJOIN_CHECK_MSG(agg.op == AggDef::Op::kCountStar ||
                            agg.op == AggDef::Op::kCount ||
                            agg.op == AggDef::Op::kSum,
                        "oracle: aggregate op not generated");
        aidx.push_back(agg.op == AggDef::Op::kCountStar
                           ? -1
                           : in.IndexOf(agg.input));
      }
      std::map<std::vector<int64_t>, std::vector<int64_t>> groups;
      for (const auto& row : in.rows) {
        std::vector<int64_t> key;
        for (int gi : gidx) key.push_back(row[gi]);
        auto [it, inserted] =
            groups.emplace(std::move(key),
                           std::vector<int64_t>(node.aggs.size(), 0));
        for (size_t a = 0; a < node.aggs.size(); ++a) {
          if (node.aggs[a].op == AggDef::Op::kSum) {
            it->second[a] += row[aidx[a]];
          } else {
            it->second[a]++;  // kCountStar / kCount over non-null int64s
          }
        }
      }
      // A scalar aggregate over empty input still yields one zero row,
      // matching HashAggOp.
      if (groups.empty() && node.group_by.empty()) {
        groups.emplace(std::vector<int64_t>{},
                       std::vector<int64_t>(node.aggs.size(), 0));
      }
      OracleRel out;
      out.names = node.group_by;
      for (const auto& agg : node.aggs) out.names.push_back(agg.name);
      for (const auto& [key, accs] : groups) {
        std::vector<int64_t> row = key;
        row.insert(row.end(), accs.begin(), accs.end());
        out.rows.push_back(std::move(row));
      }
      std::sort(out.rows.begin(), out.rows.end());
      return out;
    }
    case PlanNode::Kind::kMap:
      PJOIN_CHECK_MSG(false, "oracle: kMap is never generated");
  }
  return {};
}

}  // namespace pjoin

#endif  // PJOIN_TESTS_TEST_UTIL_H_
