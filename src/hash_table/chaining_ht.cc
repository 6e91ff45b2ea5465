#include "hash_table/chaining_ht.h"

#include <cstring>

#include "exec/thread_pool.h"
#include "spill/memory_governor.h"
#include "util/bitutil.h"
#include "util/check.h"

namespace pjoin {

ChainingHashTable::ChainingHashTable(uint32_t row_stride, bool track_matches)
    : row_stride_(row_stride),
      track_matches_(track_matches),
      header_size_(track_matches ? 24 : 16),
      // Rounded up to 8 so the header words (next/hash/matched) stay
      // naturally aligned in every packed entry; MarkMatched's atomic_ref
      // requires it, and pages are cache-line aligned.
      entry_stride_((header_size_ + row_stride + 7u) & ~7u) {
  // One buffer per possible worker id, so no pool has to be threaded
  // through the constructor.
  build_buffers_.reserve(kMaxWorkers);
  for (int i = 0; i < kMaxWorkers; ++i) {
    build_buffers_.emplace_back(entry_stride_);
  }
}

ChainingHashTable::~ChainingHashTable() {
  if (accounted_dir_bytes_ > 0) {
    MemoryGovernor::Global().Release(accounted_dir_bytes_);
  }
}

void ChainingHashTable::MaterializeEntry(int thread_id, uint64_t hash,
                                         const std::byte* row,
                                         uint32_t row_bytes) {
  PJOIN_DCHECK(row_bytes <= row_stride_);
  PJOIN_DCHECK(thread_id < kMaxWorkers);
  std::byte* entry = build_buffers_[thread_id].AppendSlot();
  std::memset(entry, 0, header_size_);
  std::memcpy(entry + 8, &hash, 8);
  std::memcpy(entry + header_size_, row, row_bytes);
}

void ChainingHashTable::Build(ThreadPool& pool) {
  num_entries_ = 0;
  for (const RowBuffer& buf : build_buffers_) num_entries_ += buf.size();

  // One slot per entry on average keeps chains short; the directory is a
  // power of two so the high hash bits index it with a shift and mask.
  dir_size_ = NextPow2(num_entries_ | 1) * 2;
  if (dir_size_ < 64) dir_size_ = 64;
  dir_shift_ = 64 - Log2Pow2(dir_size_);
  dir_storage_.Allocate(dir_size_ * sizeof(std::atomic<uint64_t>));
  dir_ = reinterpret_cast<std::atomic<uint64_t>*>(dir_storage_.data());
  std::memset(dir_storage_.data(), 0, dir_size_ * 8);
  if (accounted_dir_bytes_ > 0) {
    MemoryGovernor::Global().Release(accounted_dir_bytes_);
  }
  accounted_dir_bytes_ = dir_size_ * 8;
  MemoryGovernor::Global().Account(accounted_dir_bytes_);

  // Parallel bulk insert: each worker pushes the entries of its own
  // materialization buffer. CAS loop per entry; tags are folded into the
  // same word, so one successful CAS publishes pointer and tag together.
  pool.ParallelRun([&](int tid) {
    for (size_t b = tid; b < build_buffers_.size();
         b += static_cast<size_t>(pool.num_threads())) {
      build_buffers_[b].ForEachPage([&](const std::byte* rows, uint32_t count) {
        for (uint32_t i = 0; i < count; ++i) {
          std::byte* entry =
              const_cast<std::byte*>(rows) + static_cast<size_t>(i) * entry_stride_;
          uint64_t hash = EntryHash(entry);
          std::atomic<uint64_t>& slot = dir_[DirIndex(hash)];
          uint64_t ptr_bits = reinterpret_cast<uint64_t>(entry);
          PJOIN_DCHECK((ptr_bits & ~kPointerMask) == 0);
          uint64_t old = slot.load(std::memory_order_relaxed);
          uint64_t desired;
          do {
            // Chain push-front: entry->next = old head.
            uint64_t next = old & kPointerMask;
            std::memcpy(entry, &next, 8);
            desired = ptr_bits | (old & ~kPointerMask) | TagOf(hash);
          } while (!slot.compare_exchange_weak(old, desired,
                                               std::memory_order_release,
                                               std::memory_order_relaxed));
        }
      });
    }
  });
}

uint64_t ChainingHashTable::MaterializedBytes() const {
  uint64_t total = 0;
  for (const RowBuffer& buf : build_buffers_) total += buf.TotalBytes();
  return total;
}

}  // namespace pjoin
