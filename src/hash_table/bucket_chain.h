// Bucket-chained table for the per-partition join phase.
//
// The paper's radix join builds a robin-hood table per partition pair
// (Section 4.6). This engine uses the bucket chaining of Balkesen et al.'s
// PRJ instead: a partition's build tuples are gathered into one worker-local
// contiguous scratch (L2-sized by construction of the radix bits) and linked
// into uint32 `heads`/`next` chains in the same pass. Probing walks the
// chains of a whole batch level-wise, the walk HashJoinProbe::Consume uses
// on the BHJ's directory: every live lane advances one entry per round, so
// the comparisons of a batch overlap instead of serializing per tuple.
// Duplicate build keys share one chain, so a probe of any other key never
// walks through them (robin-hood clusters duplicates in adjacent slots,
// which every probe landing near them has to skip).
//
// Tuples are in partition-tuple format, [hash: 8B][row][padding]. Bucket
// indexes come from the hash bits at and above `shift`: the lower bits are
// the radix bits, constant within one partition.
//
// Measured on workload A's 16 partitions (16 Ki build tuples and 256 Ki
// probes each, one thread, 4-vCPU Xeon): the robin-hood table takes 80-115
// ms for the 4.19 M probes, these chains 62-88 ms with one directory slot
// per tuple and 35-50 ms with four.
#ifndef PJOIN_HASH_TABLE_BUCKET_CHAIN_H_
#define PJOIN_HASH_TABLE_BUCKET_CHAIN_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "exec/batch.h"
#include "util/aligned_buffer.h"
#include "util/check.h"

namespace pjoin {

class BucketChainTable {
 public:
  static constexpr uint32_t kEnd = UINT32_MAX;  // chain terminator
  // Directory slots per build tuple (rounded up to a power of two). A
  // sparse directory keeps most chains at one entry, so a probe rarely
  // mispredicts a chain's end.
  static constexpr uint64_t kSlotsPerTuple = 4;

  BucketChainTable() = default;
  ~BucketChainTable();
  BucketChainTable(const BucketChainTable&) = delete;
  BucketChainTable& operator=(const BucketChainTable&) = delete;

  // Starts a partition of `count` tuples, `stride` bytes each, bucketed on
  // the hash bits from `shift` up. Scratch is reused across partitions.
  void Reset(uint64_t count, uint32_t stride, int shift);

  // Adds `n` tuples contiguous at the stride. A single span that holds the
  // whole partition is linked where it lies; otherwise the span is gathered
  // into the scratch. Append exactly `count` tuples before probing.
  void Append(const std::byte* data, uint64_t n);

  uint64_t size() const { return size_; }
  // Row bytes of build tuple `idx` (the tuple past its stored hash).
  const std::byte* row(uint32_t idx) const { return tuple(idx) + 8; }
  // Inverse of row(): the build index of a row pointer it returned.
  uint32_t index(const std::byte* row) const {
    return static_cast<uint32_t>(static_cast<size_t>(row - 8 - base_) /
                                 stride_);
  }

  // Probes n <= kBatchCapacity hashes level-wise. For every build tuple whose
  // stored hash equals hashes[i] and whose row satisfies eq(i, build_row),
  // sets matched[i] and calls on_match(i, build_index). With
  // `first_match_only` a lane leaves at its first match. `matched` must be
  // cleared by the caller.
  template <typename Eq, typename OnMatch>
  void ProbeBatch(const uint64_t* hashes, uint32_t n, bool first_match_only,
                  bool* matched, Eq&& eq, OnMatch&& on_match) const {
    PJOIN_DCHECK(n <= kBatchCapacity);
    if (size_ == 0) return;
    uint32_t sel[kBatchCapacity];
    uint32_t cur[kBatchCapacity];
    uint32_t lanes = 0;
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t head = heads_[(hashes[i] >> shift_) & mask_];
      sel[lanes] = i;
      cur[lanes] = head;
      lanes += head != kEnd ? 1 : 0;
    }
    // Each round advances every live lane by one entry; survivors are
    // compacted in place (the write index never passes the read index).
    while (lanes > 0) {
      uint32_t live = 0;
      for (uint32_t j = 0; j < lanes; ++j) {
        const uint32_t i = sel[j];
        const uint32_t e = cur[j];
        const std::byte* t = tuple(e);
        if (TupleHash(t) == hashes[i] && eq(i, t + 8)) {
          matched[i] = true;
          on_match(i, e);
          if (first_match_only) continue;
        }
        const uint32_t next = next_[e];
        sel[live] = i;
        cur[live] = next;
        live += next != kEnd ? 1 : 0;
      }
      lanes = live;
    }
  }

  // Times the scratch grew (ideally a few times per worker).
  uint64_t grow_count() const { return grow_count_; }
  // Largest scratch ever held: gathered tuples plus heads and next.
  uint64_t peak_bytes() const { return peak_bytes_; }

 private:
  const std::byte* tuple(uint32_t idx) const {
    return base_ + static_cast<size_t>(idx) * stride_;
  }
  static uint64_t TupleHash(const std::byte* tuple) {
    uint64_t h;
    std::memcpy(&h, tuple, 8);
    return h;
  }
  void Link(const std::byte* data, uint64_t n, uint32_t first);
  // Reports scratch growth to peak_bytes_, grow_count_ and the governor.
  void TrackGrowth();

  AlignedBuffer scratch_;        // gathered tuples (multi-span partitions)
  std::vector<uint32_t> heads_;  // bucket -> first tuple index
  std::vector<uint32_t> next_;   // tuple index -> next in its bucket
  const std::byte* base_ = nullptr;
  uint64_t count_ = 0;
  uint64_t size_ = 0;
  uint32_t stride_ = 0;
  int shift_ = 0;
  uint64_t mask_ = 0;
  uint64_t grow_count_ = 0;
  uint64_t peak_bytes_ = 0;
  // Bytes reported to the memory governor (== peak_bytes_).
  uint64_t accounted_bytes_ = 0;
};

}  // namespace pjoin

#endif  // PJOIN_HASH_TABLE_BUCKET_CHAIN_H_
