#include "hash_table/chaining_ht.h"

#include <cstring>

#include "exec/thread_pool.h"
#include "spill/memory_governor.h"
#include "util/bitutil.h"
#include "util/check.h"

namespace pjoin {

namespace {

// Directories from this size up are zeroed by all workers. Waking the pool
// takes ~15 us on a 4-vCPU host, about what zeroing 1 MiB takes on one
// thread when its pages are already mapped.
constexpr uint64_t kParallelZeroBytes = uint64_t{1} << 20;

}  // namespace

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
  // The insert hands out entry pages, not worker buffers: a buffer can hold
  // every entry, and the pages still spread over all workers.
  struct EntryPage {
    std::byte* rows;
    uint32_t count;
  };
  std::vector<EntryPage> pages;
  num_entries_ = 0;
  for (RowBuffer& buf : build_buffers_) {
    num_entries_ += buf.size();
    for (size_t p = 0; p < buf.num_pages(); ++p) {
      pages.push_back({buf.PageRows(p), buf.PageCount(p)});
    }
  }

  // One slot per entry on average keeps chains short; the directory is a
  // power of two so the high hash bits index it with a shift and mask.
  dir_size_ = NextPow2(num_entries_ | 1) * 2;
  if (dir_size_ < 64) dir_size_ = 64;
  dir_shift_ = 64 - Log2Pow2(dir_size_);
  dir_storage_.Allocate(dir_size_ * sizeof(std::atomic<uint64_t>));
  dir_ = reinterpret_cast<std::atomic<uint64_t>*>(dir_storage_.data());
  if (accounted_dir_bytes_ > 0) {
    MemoryGovernor::Global().Release(accounted_dir_bytes_);
  }
  accounted_dir_bytes_ = dir_size_ * 8;
  MemoryGovernor::Global().Account(accounted_dir_bytes_);

  // Zeroing first-touches the directory's pages; on a large directory the
  // page faults cost more than the stores, so every worker zeroes its own
  // slice of whole cache lines (dir_size_ is a multiple of 8). A small one
  // is zeroed in less time than waking the pool takes.
  if (DirectoryBytes() < kParallelZeroBytes) {
    std::memset(dir_storage_.data(), 0, DirectoryBytes());
  } else {
    const int workers = pool.num_threads();
    pool.ParallelRun([&](int tid) {
      const uint64_t lines = dir_size_ / 8;
      const uint64_t begin = lines * tid / workers * 8;
      const uint64_t end = lines * (tid + 1) / workers * 8;
      std::memset(dir_storage_.data() + begin * 8, 0, (end - begin) * 8);
    });
  }

  // Parallel bulk insert: workers claim entry pages from one counter and
  // push each entry with a CAS loop; tags are folded into the same word, so
  // one successful CAS publishes pointer and tag together. The slot of the
  // entry kPrefetchDistance ahead is requested before the current CAS. A
  // push onto a non-empty slot puts one entry behind another, so the sum of
  // those pushes is the table's chained-entry count, sum(len - 1).
  std::atomic<size_t> next_page{0};
  std::atomic<uint64_t> chained{0};
  pool.ParallelRun([&](int) {
    uint64_t local_chained = 0;
    for (size_t p; (p = next_page.fetch_add(1, std::memory_order_relaxed)) <
                   pages.size();) {
      std::byte* rows = pages[p].rows;
      const uint32_t count = pages[p].count;
      for (uint32_t i = 0; i < count; ++i) {
        if (i + kPrefetchDistance < count) {
          PrefetchForWrite(&dir_[DirIndex(EntryHash(
              rows + (i + kPrefetchDistance) * entry_stride_))]);
        }
        std::byte* entry = rows + static_cast<size_t>(i) * entry_stride_;
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
        local_chained += (old & kPointerMask) != 0 ? 1 : 0;
      }
    }
    chained.fetch_add(local_chained, std::memory_order_relaxed);
  });
  chained_entries_ = chained.load(std::memory_order_relaxed);
}

uint64_t ChainingHashTable::MaterializedBytes() const {
  uint64_t total = 0;
  for (const RowBuffer& buf : build_buffers_) total += buf.TotalBytes();
  return total;
}

}  // namespace pjoin
