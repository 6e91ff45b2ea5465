// Paged, append-only storage of fixed-stride rows.
//
// The buffered hash join materializes its build side here (one RowBuffer per
// worker) before the bulk hash-table build; sinks also use it to collect
// final results. Pages are cache-line aligned and never move, so row
// pointers stay valid for the lifetime of the buffer.
#ifndef PJOIN_STORAGE_ROW_BUFFER_H_
#define PJOIN_STORAGE_ROW_BUFFER_H_

#include <cstdint>
#include <vector>

#include "util/aligned_buffer.h"

namespace pjoin {

class RowBuffer {
 public:
  // `stride` is the row width in bytes; `page_rows` rows per page.
  explicit RowBuffer(uint32_t stride, uint32_t page_rows = 8192);
  ~RowBuffer();

  RowBuffer(RowBuffer&&) = default;
  // Custom move-assign: the replaced pages must be un-accounted from the
  // memory governor before they are freed.
  RowBuffer& operator=(RowBuffer&& other) noexcept;

  // Appends one row, returning the destination pointer.
  std::byte* Append(const std::byte* row);

  // Reserves space for one row and returns the pointer (caller fills it).
  std::byte* AppendSlot();

  // Reserves up to `want` contiguous rows in the current page (at least
  // one), sets `*got` to how many, and returns the first (caller fills them).
  std::byte* AppendSlots(uint32_t want, uint32_t* got);

  uint64_t size() const { return size_; }
  uint32_t stride() const { return stride_; }
  uint64_t TotalBytes() const { return size_ * stride_; }

  // Invokes fn(rows, count) for every page; rows are contiguous per page.
  template <typename Fn>
  void ForEachPage(Fn&& fn) const {
    for (const Page& p : pages_) {
      if (p.count > 0) fn(p.data.data(), p.count);
    }
  }

  // Page-wise access, for callers that hand pages out to several workers:
  // page p holds PageCount(p) contiguous rows starting at PageRows(p).
  size_t num_pages() const { return pages_.size(); }
  std::byte* PageRows(size_t p) { return pages_[p].data.data(); }
  uint32_t PageCount(size_t p) const { return pages_[p].count; }

  // Random access by index (row i). O(1): pages have fixed capacity.
  const std::byte* RowAt(uint64_t i) const {
    return pages_[i / page_rows_].data.data() + (i % page_rows_) * stride_;
  }
  std::byte* MutableRowAt(uint64_t i) {
    return pages_[i / page_rows_].data.data() + (i % page_rows_) * stride_;
  }

  void Clear();

 private:
  struct Page {
    AlignedBuffer data;
    uint32_t count = 0;
  };

  void AddPage();
  // Reports all held page bytes back to the memory governor.
  void ReleaseAccounting();
  uint64_t PageBytes() const {
    return static_cast<uint64_t>(page_rows_) * stride_;
  }

  uint32_t stride_;
  uint32_t page_rows_;
  uint64_t size_ = 0;
  std::vector<Page> pages_;
};

}  // namespace pjoin

#endif  // PJOIN_STORAGE_ROW_BUFFER_H_
