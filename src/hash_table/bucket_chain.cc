#include "hash_table/bucket_chain.h"

#include "spill/memory_governor.h"
#include "util/bitutil.h"

namespace pjoin {

BucketChainTable::~BucketChainTable() {
  if (accounted_bytes_ > 0) {
    MemoryGovernor::Global().Release(accounted_bytes_);
  }
}

void BucketChainTable::Reset(uint64_t count, uint32_t stride, int shift) {
  PJOIN_CHECK(count < kEnd);
  count_ = count;
  size_ = 0;
  stride_ = stride;
  shift_ = shift;
  base_ = nullptr;
  const uint64_t buckets = NextPow2((count | 1) * kSlotsPerTuple);
  mask_ = buckets - 1;
  heads_.assign(buckets, kEnd);
  next_.resize(count);
  TrackGrowth();
}

void BucketChainTable::TrackGrowth() {
  const uint64_t held =
      scratch_.size() + (heads_.capacity() + next_.capacity()) * sizeof(uint32_t);
  if (held <= peak_bytes_) return;
  peak_bytes_ = held;
  ++grow_count_;
  // Amortized: only growth is reported; partitions that reuse the scratch
  // cost nothing.
  MemoryGovernor::Global().Account(peak_bytes_ - accounted_bytes_);
  accounted_bytes_ = peak_bytes_;
}

void BucketChainTable::Append(const std::byte* data, uint64_t n) {
  PJOIN_DCHECK(size_ + n <= count_);
  if (n == 0) return;
  if (size_ == 0 && n == count_) {
    // The whole partition is one span: link it in place.
    base_ = data;
  } else {
    if (scratch_.size() < count_ * stride_) {
      scratch_.EnsureCapacity(count_ * stride_);
      TrackGrowth();
    }
    base_ = scratch_.data();
    std::memcpy(scratch_.data() + size_ * stride_, data, n * stride_);
  }
  Link(base_ + size_ * stride_, n, static_cast<uint32_t>(size_));
  size_ += n;
}

void BucketChainTable::Link(const std::byte* data, uint64_t n,
                            uint32_t first) {
  uint32_t* heads = heads_.data();
  uint32_t* next = next_.data();
  for (uint64_t k = 0; k < n; ++k) {
    const uint64_t hash = TupleHash(data + k * stride_);
    uint32_t& head = heads[(hash >> shift_) & mask_];
    next[first + k] = head;
    head = first + static_cast<uint32_t>(k);
  }
}

}  // namespace pjoin
