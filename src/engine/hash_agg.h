// Hash aggregation: the terminal pipeline breaker of every query.
//
// Every worker aggregates into its own flat, fixed-width group table; Finish
// merges the tables, sorts the groups by key and boxes the result once, in
// parallel on the query's pool.
//
//   * Keys. The group fields (CHAR included) are packed back to back into
//     `key_words_` 64-bit words, zero padded. A batch is hashed at once
//     through HashRowsBatch, so a single 4- or 8-byte key (l_orderkey) takes
//     the SIMD hash kernel. An open-addressing directory of (hash tag, group
//     index) slots finds a group: tag first, then the packed words.
//   * Accumulators. The word layout is fixed in the constructor. Each
//     aggregate owns 8-byte words of one group-major array: count, count(*),
//     sum, min and max one word, avg two (double sum, count). min and max
//     start from the group's first row, so they need no "seen" flag and a
//     NaN compares exactly as `v < min` / `v > max` make it. No group owns
//     a heap allocation.
//   * Scalar aggregates (no group keys: count(*)/sum(...) over every
//     microbenchmark join) have a single group and skip hashing entirely.
//   * Finish runs three parallel regions; workers claim tasks from an
//     atomic counter. (1) Partition: every worker table's group indices are
//     split into F partitions by the top bits of the stored group hash (a
//     counting sort per table, no rehash). (2) Merge: each task merges one
//     partition's groups from all worker tables in worker order, so a
//     floating-point sum adds its worker partials in the order a serial
//     merge of the tables would, and lists the merged groups by key range.
//     The ranges are cut at splitter keys sampled from the worker tables
//     before the merge, so equal keys share a range. (3) Sort and box: each
//     task sorts one key range and boxes its rows straight into their
//     places in the result.
//   * F comes from the summed worker group count: about kPartitionGroups
//     groups per partition, at least four partitions per worker. Below
//     kParallelFinishGroups, or with one worker, F = 1 and the same code
//     runs on the calling thread with no parallel region.
//   * Order. A radix sort on an order-preserving 64-bit prefix of the first
//     key field settles almost every comparison; equal prefixes sort by the
//     typed key (integers as integers, floats with `<`, CHAR as std::string
//     orders its trimmed bytes). Key ties — distinct bytes that compare
//     equal, like +0.0 and -0.0 — fall back to the boxed rows, so the order
//     is the canonical std::sort order of vector<Value>; rows that tie as
//     well order by their key bytes, so the order never depends on the
//     worker count.
#ifndef PJOIN_ENGINE_HASH_AGG_H_
#define PJOIN_ENGINE_HASH_AGG_H_

#include <string>
#include <vector>

#include "engine/value.h"
#include "exec/pipeline.h"
#include "join/key_spec.h"

namespace pjoin {

struct AggDef {
  enum class Op { kSum, kCount, kCountStar, kMin, kMax, kAvg };
  Op op = Op::kCountStar;
  std::string input;  // unused for kCountStar
  std::string name;   // output column name

  static AggDef Sum(std::string input, std::string name) {
    return AggDef{Op::kSum, std::move(input), std::move(name)};
  }
  static AggDef Count(std::string input, std::string name) {
    return AggDef{Op::kCount, std::move(input), std::move(name)};
  }
  static AggDef CountStar(std::string name) {
    return AggDef{Op::kCountStar, "", std::move(name)};
  }
  static AggDef Min(std::string input, std::string name) {
    return AggDef{Op::kMin, std::move(input), std::move(name)};
  }
  static AggDef Max(std::string input, std::string name) {
    return AggDef{Op::kMax, std::move(input), std::move(name)};
  }
  static AggDef Avg(std::string input, std::string name) {
    return AggDef{Op::kAvg, std::move(input), std::move(name)};
  }
};

class HashAggOp : public Operator {
 public:
  HashAggOp(const RowLayout* in_layout, std::vector<std::string> group_by,
            std::vector<AggDef> aggs);

  void Prepare(ExecContext& exec) override;
  void Consume(Batch& batch, ThreadContext& ctx) override;
  void Finish(ExecContext& exec) override;
  const RowLayout* OutputLayout() const override { return in_layout_; }

  const char* MetricsName() const override { return "hash_agg"; }
  std::string MetricsDetail() const override {
    return "groups:" + std::to_string(group_by_.size()) +
           " aggs:" + std::to_string(aggs_.size());
  }

  // Below this many groups, summed over the worker tables, Finish runs as
  // one partition on the calling thread.
  static constexpr size_t kParallelFinishGroups = 4096;

  // Valid after Finish; rows canonically sorted.
  const QueryResult& result() const { return result_; }
  // Moves the result out (after Finish); result() is empty afterwards.
  QueryResult TakeResult() { return std::move(result_); }

 private:
  // One aggregate resolved against the input layout and the word layout.
  struct AggField {
    AggDef::Op op = AggDef::Op::kCountStar;
    bool is_float = false;  // input is FLOAT64 (else widened integer)
    uint32_t offset = 0;    // input field offset in the row
    uint32_t width = 0;     // input field width (0 for count(*))
    uint32_t word = 0;      // first accumulator word of the aggregate
  };
  // One group field: where it sits in the row and in the packed key.
  struct KeyField {
    DataType type = DataType::kInt64;
    uint32_t row_offset = 0;
    uint32_t key_offset = 0;  // byte offset within the packed key
    uint32_t width = 0;
  };
  struct Slot {
    uint32_t tag = 0;  // high half of the group's hash
    uint32_t group = kEmptySlot;
  };
  static constexpr uint32_t kEmptySlot = ~uint32_t{0};

  // One worker's groups, all group-major and fixed width.
  struct GroupTable {
    std::vector<uint64_t> keys;    // key_words_ per group
    std::vector<uint64_t> hashes;  // one per group (re-inserted on growth)
    std::vector<uint64_t> accums;  // acc_words_ per group
    std::vector<Slot> slots;       // power-of-two directory, load <= 1/2
    std::vector<uint64_t> probe_key;  // packing scratch, key_words_ words
    uint32_t size = 0;
  };

  uint32_t AppendGroup(GroupTable& t, uint64_t hash,
                       const uint64_t* key) const;
  // Returns the group holding `key`, appending a zeroed one if it is new.
  uint32_t FindOrAdd(GroupTable& t, uint64_t hash, const uint64_t* key,
                     bool* inserted) const;
  // Sizes the directory for `groups` groups at load <= 1/2.
  void Reserve(GroupTable& t, size_t groups) const;
  void PackKey(const std::byte* row, uint64_t* key) const;
  void InitFromRow(GroupTable& t, uint32_t group, const std::byte* row) const;
  void Fold(GroupTable& t, const Batch& batch, const uint32_t* groups) const;
  // Merges groups `groups[0..n)` of `from` (all of them, in order, when
  // `groups` is null) into `into`.
  void MergeGroups(GroupTable& into, const GroupTable& from,
                   const uint32_t* groups, uint32_t n) const;
  int CompareKeys(const uint64_t* a, const uint64_t* b) const;
  uint64_t SortPrefix(const uint64_t* key) const;
  // One group of one partition, keyed for the sort.
  struct SortEntry {
    uint64_t prefix;  // SortPrefix of the group's key
    uint32_t part;
    uint32_t group;
  };
  // The result order over the groups of `parts`: a strict total order.
  bool Before(const std::vector<GroupTable>& parts, const SortEntry& a,
              const SortEntry& b) const;
  std::vector<Value> BoxRow(const GroupTable& t, uint32_t group) const;

  const RowLayout* in_layout_;
  std::vector<std::string> group_by_;
  std::vector<AggDef> aggs_;
  KeySpec key_spec_;
  std::vector<KeyField> key_fields_;
  std::vector<AggField> agg_fields_;
  uint32_t key_words_ = 0;
  uint32_t acc_words_ = 0;

  std::vector<GroupTable> tables_;  // one per worker
  QueryResult result_;
};

}  // namespace pjoin

#endif  // PJOIN_ENGINE_HASH_AGG_H_
