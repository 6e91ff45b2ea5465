#include "engine/hash_agg.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <functional>
#include <numeric>
#include <string_view>
#include <utility>

#include "kernels/kernels.h"
#include "util/check.h"
#include "util/prefetch.h"

namespace pjoin {

namespace {

// A fresh directory holds this many slots, so the first growth happens
// when the 1025th group arrives (load factor 1/2).
constexpr size_t kInitialSlots = 2048;

// Finish aims at this many groups per partition, so a partition's directory
// and words stay cache resident while it merges, and caps the partitions
// at 2^kMaxPartitionBits.
constexpr size_t kPartitionGroups = 8192;
constexpr int kMaxPartitionBits = 8;

// Finish sorts and boxes this many key ranges per worker, cut at splitter
// keys chosen from kSamplesPerRange sampled keys per range and table.
constexpr uint32_t kRangesPerWorker = 4;
constexpr size_t kSamplesPerRange = 8;

// Group index of every row of a scalar aggregate's batch.
constexpr uint32_t kScalarGroups[kBatchCapacity] = {};

int64_t LoadInt(const std::byte* p, uint32_t width) {
  if (width == 8) {
    int64_t v;
    std::memcpy(&v, p, 8);
    return v;
  }
  int32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

double LoadFloat(const std::byte* p) {
  double v;
  std::memcpy(&v, p, 8);
  return v;
}

double AsDouble(uint64_t word) { return std::bit_cast<double>(word); }
uint64_t AsWord(double v) { return std::bit_cast<uint64_t>(v); }

// The min/max accumulator word for one input value: double bits for
// FLOAT64, the widened integer otherwise.
uint64_t InputWord(bool is_float, const std::byte* p, uint32_t width) {
  return is_float ? AsWord(LoadFloat(p))
                  : static_cast<uint64_t>(LoadInt(p, width));
}

// True when min/max word `v` replaces the current word `cur`. Integer words
// compare as integers: the int64 -> double conversion they are reported in
// is monotone, so it commutes with min and max.
bool Replaces(AggDef::Op op, bool is_float, uint64_t v, uint64_t cur) {
  if (op == AggDef::Op::kMax) std::swap(v, cur);  // v > cur <=> cur < v
  return is_float ? AsDouble(v) < AsDouble(cur)
                  : static_cast<int64_t>(v) < static_cast<int64_t>(cur);
}

// The words of group `g` in a group-major array of `words` words per group
// (data() + offset, so an empty array with zero words per group is fine).
template <typename Words>
auto GroupWords(Words& v, uint32_t g, uint32_t words) {
  return v.data() + static_cast<size_t>(g) * words;
}

// A CHAR value without its space pad. Its compare() is memcmp over the
// common length with a length tie-break: the std::string order.
std::string_view TrimmedChars(const std::byte* bytes, size_t width) {
  const char* chars = reinterpret_cast<const char*>(bytes);
  while (width > 0 && chars[width - 1] == ' ') --width;
  return {chars, width};
}

// log2 of Finish's partition count for `groups` worker groups on
// `threads` workers: 0 below the parallel threshold or on one worker, else
// about kPartitionGroups groups per partition and at least four partitions
// per worker.
int PartitionBits(size_t groups, int threads) {
  if (threads <= 1 || groups < HashAggOp::kParallelFinishGroups) return 0;
  const size_t target = std::max(groups / kPartitionGroups,
                                 size_t{4} * static_cast<size_t>(threads));
  return std::min(static_cast<int>(std::bit_width(target - 1)),
                  kMaxPartitionBits);
}

// Orders items [0, n) stably by bucket_of(i) < buckets: calls place(pos, i)
// with every item's position and returns the buckets' bounds (buckets + 1
// offsets).
template <typename BucketOf, typename Place>
std::vector<uint32_t> CountingSort(uint32_t n, uint32_t buckets,
                                   BucketOf bucket_of, Place place) {
  std::vector<uint32_t> bounds(buckets + 1, 0);
  for (uint32_t i = 0; i < n; ++i) ++bounds[bucket_of(i) + 1];
  std::partial_sum(bounds.begin(), bounds.end(), bounds.begin());
  std::vector<uint32_t> cursor(bounds.begin(), bounds.end() - 1);
  for (uint32_t i = 0; i < n; ++i) place(cursor[bucket_of(i)]++, i);
  return bounds;
}

// Sorts `v` by its entries' `prefix`: a stable LSD radix sort over the bytes,
// skipping every byte all prefixes share.
template <typename Entry>
void RadixSortByPrefix(std::vector<Entry>& v) {
  std::vector<std::array<uint32_t, 256>> counts(8);
  for (const Entry& e : v) {
    for (int b = 0; b < 8; ++b) ++counts[b][(e.prefix >> (8 * b)) & 0xff];
  }
  std::vector<Entry> tmp(v.size());
  for (int b = 0; b < 8; ++b) {
    std::array<uint32_t, 256>& next = counts[b];
    if (v.empty() || next[(v[0].prefix >> (8 * b)) & 0xff] == v.size()) {
      continue;
    }
    std::exclusive_scan(next.begin(), next.end(), next.begin(), 0u);
    for (const Entry& e : v) tmp[next[(e.prefix >> (8 * b)) & 0xff]++] = e;
    v.swap(tmp);
  }
}

// Runs task(i) for every i in [0, tasks): on the pool's workers, which
// claim tasks from an atomic counter, or inline when `parallel` is false.
void RunTasks(ThreadPool* pool, bool parallel, size_t tasks,
              const std::function<void(size_t)>& task) {
  if (!parallel) {
    for (size_t i = 0; i < tasks; ++i) task(i);
    return;
  }
  std::atomic<size_t> next{0};
  pool->ParallelRun([&](int) {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= tasks) return;
      task(i);
    }
  });
}

}  // namespace

HashAggOp::HashAggOp(const RowLayout* in_layout,
                     std::vector<std::string> group_by,
                     std::vector<AggDef> aggs)
    : in_layout_(in_layout),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)) {
  key_spec_ = KeySpec::ByName(in_layout_, group_by_);
  uint32_t key_bytes = 0;
  for (int f : key_spec_.fields()) {
    const RowField& field = in_layout_->field(f);
    key_fields_.push_back({field.type, field.offset, key_bytes, field.width});
    key_bytes += field.width;
  }
  key_words_ = (key_bytes + 7) / 8;

  for (const AggDef& agg : aggs_) {
    AggField a;
    a.op = agg.op;
    a.word = acc_words_;
    acc_words_ += agg.op == AggDef::Op::kAvg ? 2 : 1;
    if (agg.op != AggDef::Op::kCountStar) {
      const RowField& field = in_layout_->field(in_layout_->IndexOf(agg.input));
      a.is_float = field.type == DataType::kFloat64;
      a.offset = field.offset;
      a.width = field.width;
    }
    agg_fields_.push_back(a);
  }
}

void HashAggOp::Prepare(ExecContext& exec) {
  tables_.assign(exec.num_threads(), GroupTable{});
}

uint32_t HashAggOp::AppendGroup(GroupTable& t, uint64_t hash,
                                const uint64_t* key) const {
  PJOIN_CHECK(t.size < kEmptySlot);
  if (key_words_ > 0) t.keys.insert(t.keys.end(), key, key + key_words_);
  t.hashes.push_back(hash);
  t.accums.resize(t.accums.size() + acc_words_, 0);
  return t.size++;
}

void HashAggOp::Reserve(GroupTable& t, size_t groups) const {
  if (groups * 2 <= t.slots.size()) return;
  size_t capacity = std::max(t.slots.size(), kInitialSlots);
  while (capacity < groups * 2) capacity *= 2;
  t.slots.assign(capacity, Slot{});
  const size_t mask = capacity - 1;
  for (uint32_t g = 0; g < t.size; ++g) {
    size_t pos = t.hashes[g] & mask;
    while (t.slots[pos].group != kEmptySlot) pos = (pos + 1) & mask;
    t.slots[pos] = Slot{static_cast<uint32_t>(t.hashes[g] >> 32), g};
  }
}

uint32_t HashAggOp::FindOrAdd(GroupTable& t, uint64_t hash,
                              const uint64_t* key, bool* inserted) const {
  Reserve(t, static_cast<size_t>(t.size) + 1);
  const uint32_t tag = static_cast<uint32_t>(hash >> 32);
  const size_t mask = t.slots.size() - 1;
  for (size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    Slot& slot = t.slots[pos];
    if (slot.group == kEmptySlot) {
      *inserted = true;
      slot = Slot{tag, AppendGroup(t, hash, key)};
      return slot.group;
    }
    if (slot.tag == tag &&
        std::equal(key, key + key_words_,
                   GroupWords(t.keys, slot.group, key_words_))) {
      *inserted = false;
      return slot.group;
    }
  }
}

void HashAggOp::PackKey(const std::byte* row, uint64_t* key) const {
  key[key_words_ - 1] = 0;  // zero the padding of the last word
  auto* out = reinterpret_cast<std::byte*>(key);
  for (const KeyField& k : key_fields_) {
    // Constant widths compile to single moves instead of memcpy calls.
    switch (k.width) {
      case 8:
        std::memcpy(out + k.key_offset, row + k.row_offset, 8);
        break;
      case 4:
        std::memcpy(out + k.key_offset, row + k.row_offset, 4);
        break;
      default:
        std::memcpy(out + k.key_offset, row + k.row_offset, k.width);
    }
  }
}

void HashAggOp::InitFromRow(GroupTable& t, uint32_t group,
                            const std::byte* row) const {
  uint64_t* acc = GroupWords(t.accums, group, acc_words_);
  for (const AggField& a : agg_fields_) {
    if (a.op != AggDef::Op::kMin && a.op != AggDef::Op::kMax) continue;
    acc[a.word] = InputWord(a.is_float, row + a.offset, a.width);
  }
}

// Folds every row of `batch` into its group's words, one aggregate at a
// time.
void HashAggOp::Fold(GroupTable& t, const Batch& batch,
                     const uint32_t* groups) const {
  const uint32_t stride = in_layout_->stride();
  const uint32_t n = batch.size;
  for (const AggField& a : agg_fields_) {
    uint64_t* acc = t.accums.data() + a.word;
    const std::byte* in = batch.rows + a.offset;
    auto word = [&](uint32_t i) -> uint64_t& {
      return acc[static_cast<size_t>(groups[i]) * acc_words_];
    };
    auto row = [&](uint32_t i) { return in + static_cast<size_t>(i) * stride; };
    switch (a.op) {
      case AggDef::Op::kCount:
      case AggDef::Op::kCountStar:
        for (uint32_t i = 0; i < n; ++i) ++word(i);
        break;
      case AggDef::Op::kSum:
        if (a.is_float) {
          for (uint32_t i = 0; i < n; ++i) {
            word(i) = AsWord(AsDouble(word(i)) + LoadFloat(row(i)));
          }
        } else {
          for (uint32_t i = 0; i < n; ++i) {
            word(i) += static_cast<uint64_t>(LoadInt(row(i), a.width));
          }
        }
        break;
      case AggDef::Op::kMin:
      case AggDef::Op::kMax:
        for (uint32_t i = 0; i < n; ++i) {
          const uint64_t v = InputWord(a.is_float, row(i), a.width);
          if (Replaces(a.op, a.is_float, v, word(i))) word(i) = v;
        }
        break;
      case AggDef::Op::kAvg:
        // Word 0 is the double sum (integers summed as doubles), word 1 the
        // count.
        for (uint32_t i = 0; i < n; ++i) {
          const double v = a.is_float
                                ? LoadFloat(row(i))
                                : static_cast<double>(LoadInt(row(i), a.width));
          uint64_t* w = &word(i);
          w[0] = AsWord(AsDouble(w[0]) + v);
          ++w[1];
        }
        break;
    }
  }
}

void HashAggOp::Consume(Batch& batch, ThreadContext& ctx) {
  MetricsIn(batch, ctx);
  if (batch.size == 0) return;
  GroupTable& t = tables_[ctx.thread_id];
  if (key_words_ == 0) {
    if (t.size == 0) InitFromRow(t, AppendGroup(t, 0, nullptr), batch.rows);
    Fold(t, batch, kScalarGroups);
    return;
  }
  uint64_t hashes[kBatchCapacity];
  uint32_t groups[kBatchCapacity];
  HashRowsBatch(key_spec_, batch.rows, in_layout_->stride(), batch.size,
                hashes);
  t.probe_key.resize(key_words_);
  uint64_t* key = t.probe_key.data();
  for (uint32_t i = 0; i < batch.size; ++i) {
    if (i + kPrefetchDistance < batch.size && !t.slots.empty()) {
      PrefetchForRead(
          &t.slots[hashes[i + kPrefetchDistance] & (t.slots.size() - 1)]);
    }
    const std::byte* row = batch.Row(i);
    PackKey(row, key);
    bool inserted = false;
    groups[i] = FindOrAdd(t, hashes[i], key, &inserted);
    if (inserted) InitFromRow(t, groups[i], row);
  }
  Fold(t, batch, groups);
}

void HashAggOp::MergeGroups(GroupTable& into, const GroupTable& from,
                            const uint32_t* groups, uint32_t n) const {
  // One directory resize at most per merged table; when the tables share
  // most groups this over-sizes by at most 2x.
  if (key_words_ > 0) Reserve(into, static_cast<size_t>(into.size) + n);
  const size_t mask = into.slots.size() - 1;
  auto group_at = [&](uint32_t i) { return groups != nullptr ? groups[i] : i; };
  for (uint32_t i = 0; i < n; ++i) {
    // A partition's groups sit scattered over the worker table: fetch their
    // words two distances ahead, their directory slot one distance ahead.
    if (groups != nullptr && i + 2 * kPrefetchDistance < n) {
      const uint32_t ahead = groups[i + 2 * kPrefetchDistance];
      PrefetchForRead(&from.hashes[ahead]);
      PrefetchForRead(GroupWords(from.keys, ahead, key_words_));
      PrefetchForRead(GroupWords(from.accums, ahead, acc_words_));
    }
    if (key_words_ > 0 && i + kPrefetchDistance < n) {
      PrefetchForRead(
          &into.slots[from.hashes[group_at(i + kPrefetchDistance)] & mask]);
    }
    const uint32_t g = group_at(i);
    const uint64_t* key = GroupWords(from.keys, g, key_words_);
    const uint64_t* src = GroupWords(from.accums, g, acc_words_);
    bool inserted = into.size == 0;
    uint32_t target = 0;
    if (key_words_ == 0) {
      if (inserted) AppendGroup(into, 0, nullptr);
    } else {
      target = FindOrAdd(into, from.hashes[g], key, &inserted);
    }
    uint64_t* dst = GroupWords(into.accums, target, acc_words_);
    if (inserted) {
      std::copy(src, src + acc_words_, dst);
      continue;
    }
    for (const AggField& a : agg_fields_) {
      uint64_t& d = dst[a.word];
      const uint64_t s = src[a.word];
      switch (a.op) {
        case AggDef::Op::kCount:
        case AggDef::Op::kCountStar:
          d += s;
          break;
        case AggDef::Op::kSum:
          d = a.is_float ? AsWord(AsDouble(d) + AsDouble(s)) : d + s;
          break;
        case AggDef::Op::kMin:
        case AggDef::Op::kMax:
          if (Replaces(a.op, a.is_float, s, d)) d = s;
          break;
        case AggDef::Op::kAvg:
          d = AsWord(AsDouble(d) + AsDouble(s));
          dst[a.word + 1] += src[a.word + 1];
          break;
      }
    }
  }
}

int HashAggOp::CompareKeys(const uint64_t* a, const uint64_t* b) const {
  const auto* pa = reinterpret_cast<const std::byte*>(a);
  const auto* pb = reinterpret_cast<const std::byte*>(b);
  for (const KeyField& k : key_fields_) {
    const std::byte* x = pa + k.key_offset;
    const std::byte* y = pb + k.key_offset;
    switch (k.type) {
      case DataType::kInt64:
      case DataType::kInt32:
      case DataType::kDate: {
        const int64_t u = LoadInt(x, k.width);
        const int64_t v = LoadInt(y, k.width);
        if (u != v) return u < v ? -1 : 1;
        break;
      }
      case DataType::kFloat64: {
        const double u = LoadFloat(x);
        const double v = LoadFloat(y);
        if (u < v) return -1;
        if (v < u) return 1;
        break;
      }
      case DataType::kChar: {
        const int c =
            TrimmedChars(x, k.width).compare(TrimmedChars(y, k.width));
        if (c != 0) return c;
        break;
      }
    }
  }
  return 0;
}

// An order-preserving 64-bit image of the first key field: a < b implies
// prefix(a) <= prefix(b).
uint64_t HashAggOp::SortPrefix(const uint64_t* key) const {
  constexpr uint64_t kSign = uint64_t{1} << 63;
  const KeyField& k = key_fields_[0];
  const std::byte* bytes = reinterpret_cast<const std::byte*>(key);
  switch (k.type) {
    case DataType::kInt64:
    case DataType::kInt32:
    case DataType::kDate:
      return static_cast<uint64_t>(LoadInt(bytes, k.width)) ^ kSign;
    case DataType::kFloat64: {
      double v = LoadFloat(bytes);
      if (v == 0) v = 0;  // +0.0 and -0.0 compare equal under `<`
      const uint64_t w = AsWord(v);
      return (w & kSign) != 0 ? ~w : w | kSign;
    }
    case DataType::kChar: {
      // The first 8 trimmed bytes, big-endian; the pad reads as zero.
      const std::string_view chars = TrimmedChars(bytes, k.width);
      uint64_t prefix = 0;
      for (size_t i = 0; i < std::min<size_t>(chars.size(), 8); ++i) {
        const uint64_t byte = static_cast<unsigned char>(chars[i]);
        prefix |= byte << (56 - 8 * i);
      }
      return prefix;
    }
  }
  return 0;
}

std::vector<Value> HashAggOp::BoxRow(const GroupTable& t,
                                     uint32_t group) const {
  std::vector<Value> row;
  row.reserve(key_fields_.size() + agg_fields_.size());
  const auto* key = reinterpret_cast<const std::byte*>(
      GroupWords(t.keys, group, key_words_));
  for (const KeyField& k : key_fields_) {
    const std::byte* bytes = key + k.key_offset;
    switch (k.type) {
      case DataType::kInt64:
      case DataType::kInt32:
      case DataType::kDate:
        row.emplace_back(LoadInt(bytes, k.width));
        break;
      case DataType::kFloat64:
        row.emplace_back(LoadFloat(bytes));
        break;
      case DataType::kChar:
        row.emplace_back(std::string(TrimmedChars(bytes, k.width)));
        break;
    }
  }
  const uint64_t* acc = GroupWords(t.accums, group, acc_words_);
  for (const AggField& a : agg_fields_) {
    const uint64_t w = acc[a.word];
    switch (a.op) {
      case AggDef::Op::kCount:
      case AggDef::Op::kCountStar:
        row.emplace_back(static_cast<int64_t>(w));
        break;
      case AggDef::Op::kSum:
        if (a.is_float) {
          row.emplace_back(AsDouble(w));
        } else {
          row.emplace_back(static_cast<int64_t>(w));
        }
        break;
      case AggDef::Op::kMin:
      case AggDef::Op::kMax:
        row.emplace_back(a.is_float
                             ? AsDouble(w)
                             : static_cast<double>(static_cast<int64_t>(w)));
        break;
      case AggDef::Op::kAvg: {
        const uint64_t count = acc[a.word + 1];
        row.emplace_back(count > 0 ? AsDouble(w) / static_cast<double>(count)
                                   : 0.0);
        break;
      }
    }
  }
  return row;
}

bool HashAggOp::Before(const std::vector<GroupTable>& parts,
                       const SortEntry& a, const SortEntry& b) const {
  // The prefix orders like the first key field and settles almost every
  // comparison; ties fall back to the full typed key, then to the boxed
  // rows, then to the key bytes.
  if (a.prefix != b.prefix) return a.prefix < b.prefix;
  const uint64_t* ka = GroupWords(parts[a.part].keys, a.group, key_words_);
  const uint64_t* kb = GroupWords(parts[b.part].keys, b.group, key_words_);
  const int c = CompareKeys(ka, kb);
  if (c != 0) return c < 0;
  const std::vector<Value> ra = BoxRow(parts[a.part], a.group);
  const std::vector<Value> rb = BoxRow(parts[b.part], b.group);
  if (ra < rb) return true;
  if (rb < ra) return false;
  return std::lexicographical_compare(ka, ka + key_words_, kb, kb + key_words_);
}

void HashAggOp::Finish(ExecContext& exec) {
  const size_t workers = tables_.size();
  size_t total_groups = 0;
  for (const GroupTable& t : tables_) total_groups += t.size;
  const int bits = PartitionBits(total_groups, exec.num_threads());
  const uint32_t num_parts = uint32_t{1} << bits;
  const uint32_t num_ranges =
      bits > 0 ? kRangesPerWorker * static_cast<uint32_t>(exec.num_threads())
               : 1;
  auto run = [&](size_t tasks, const std::function<void(size_t)>& task) {
    RunTasks(exec.pool(), bits > 0, tasks, task);
  };

  // 1. Partition: every worker's group indices, bucketed stably by the top
  // `bits` bits of their hash. members[w][bounds[w][p]..bounds[w][p+1]) are
  // worker w's groups of partition p, in group order.
  std::vector<std::vector<uint32_t>> members(workers);
  std::vector<std::vector<uint32_t>> bounds(workers);
  if (bits > 0) {
    run(workers, [&](size_t w) {
      const GroupTable& t = tables_[w];
      members[w].resize(t.size);
      bounds[w] = CountingSort(
          t.size, num_parts,
          [&](uint32_t g) { return t.hashes[g] >> (64 - bits); },
          [&](uint32_t pos, uint32_t g) { members[w][pos] = g; });
    });
  }

  // Key ranges for the sort: num_ranges - 1 splitter keys, quantiles of keys
  // sampled evenly from every worker table. Range r holds the groups from
  // splitter r-1 (inclusive) to splitter r in key order, so equal keys share
  // a range and the sorted ranges concatenate to the result order.
  struct KeyRef {
    uint64_t prefix;
    const uint64_t* key;
  };
  auto key_less = [&](const KeyRef& a, const KeyRef& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    return CompareKeys(a.key, b.key) < 0;
  };
  std::vector<KeyRef> splitters;
  if (num_ranges > 1) {
    const size_t samples = kSamplesPerRange * num_ranges;
    std::vector<KeyRef> sample;
    for (const GroupTable& t : tables_) {
      for (size_t i = 0; i < samples && t.size > 0; ++i) {
        const uint64_t* key = GroupWords(t.keys, i * t.size / samples,
                                         key_words_);
        sample.push_back({SortPrefix(key), key});
      }
    }
    std::sort(sample.begin(), sample.end(), key_less);
    for (size_t r = 1; r < num_ranges; ++r) {
      splitters.push_back(sample[r * sample.size() / num_ranges]);
    }
  }

  // 2. Merge each partition, then list its groups by key range. Worker
  // order makes a group's partials combine exactly as a serial merge of the
  // tables would. One partition takes over worker 0's table whole and merges
  // the rest into it. runs[p][range_bounds[p][r]..range_bounds[p][r+1]) are
  // partition p's groups of range r.
  std::vector<GroupTable> parts(num_parts);
  std::vector<std::vector<SortEntry>> runs(num_parts);
  std::vector<std::vector<uint32_t>> range_bounds(num_parts);
  run(num_parts, [&](size_t p) {
    GroupTable& into = parts[p];
    if (bits == 0) {
      into = std::move(tables_[0]);
      for (size_t w = 1; w < workers; ++w) {
        MergeGroups(into, tables_[w], nullptr, tables_[w].size);
      }
    } else {
      size_t upper = 0;
      for (size_t w = 0; w < workers; ++w) {
        upper += bounds[w][p + 1] - bounds[w][p];
      }
      Reserve(into, upper);
      into.keys.reserve(upper * key_words_);
      into.accums.reserve(upper * acc_words_);
      for (size_t w = 0; w < workers; ++w) {
        MergeGroups(into, tables_[w], members[w].data() + bounds[w][p],
                    bounds[w][p + 1] - bounds[w][p]);
      }
    }
    // The directory and hashes only serve lookups; drop them before boxing.
    into.slots = {};
    into.hashes = {};
    // A scalar aggregate over empty input still yields one row of zero
    // counts.
    if (into.size == 0 && key_words_ == 0) AppendGroup(into, 0, nullptr);

    std::vector<SortEntry> entries(into.size);
    std::vector<uint32_t> range_of(into.size);
    for (uint32_t g = 0; g < into.size; ++g) {
      const uint64_t* key = GroupWords(into.keys, g, key_words_);
      const uint64_t prefix = key_words_ > 0 ? SortPrefix(key) : 0;
      entries[g] = {prefix, static_cast<uint32_t>(p), g};
      range_of[g] = static_cast<uint32_t>(
          std::upper_bound(splitters.begin(), splitters.end(),
                           KeyRef{prefix, key}, key_less) -
          splitters.begin());
    }
    runs[p].resize(into.size);
    range_bounds[p] = CountingSort(
        into.size, num_ranges, [&](uint32_t g) { return range_of[g]; },
        [&](uint32_t pos, uint32_t g) { runs[p][pos] = entries[g]; });
  });
  tables_.clear();
  members.clear();

  // 3. Sort and box each key range into its place in the result.
  std::vector<size_t> range_start(num_ranges + 1, 0);
  for (uint32_t r = 0; r < num_ranges; ++r) {
    range_start[r + 1] = range_start[r];
    for (uint32_t p = 0; p < num_parts; ++p) {
      range_start[r + 1] += range_bounds[p][r + 1] - range_bounds[p][r];
    }
  }
  result_.column_names.clear();
  for (const auto& g : group_by_) result_.column_names.push_back(g);
  for (const auto& a : aggs_) result_.column_names.push_back(a.name);
  result_.rows.clear();
  result_.rows.resize(range_start[num_ranges]);
  run(num_ranges, [&](size_t r) {
    std::vector<SortEntry> order;
    order.reserve(range_start[r + 1] - range_start[r]);
    for (uint32_t p = 0; p < num_parts; ++p) {
      order.insert(order.end(), runs[p].begin() + range_bounds[p][r],
                   runs[p].begin() + range_bounds[p][r + 1]);
    }
    // The prefix settles almost every comparison: radix sort by it, then
    // order each run of equal prefixes by the full comparison.
    RadixSortByPrefix(order);
    for (size_t i = 0, j; i < order.size(); i = j) {
      for (j = i + 1; j < order.size() && order[j].prefix == order[i].prefix;
           ++j) {
      }
      std::sort(order.begin() + i, order.begin() + j,
                [&](const SortEntry& a, const SortEntry& b) {
                  return Before(parts, a, b);
                });
    }
    size_t row = range_start[r];
    for (const SortEntry& e : order) {
      result_.rows[row++] = BoxRow(parts[e.part], e.group);
    }
  });
  if (metrics_ != nullptr) {
    metrics_->AddOut(0, result_.rows.size(), result_.rows.empty() ? 0 : 1);
  }
}

}  // namespace pjoin
