#include "storage/row_buffer.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "spill/memory_governor.h"
#include "util/check.h"

namespace pjoin {

RowBuffer::RowBuffer(uint32_t stride, uint32_t page_rows)
    : stride_(stride), page_rows_(page_rows) {
  PJOIN_CHECK(stride > 0);
  PJOIN_CHECK(page_rows > 0);
}

RowBuffer::~RowBuffer() { ReleaseAccounting(); }

RowBuffer& RowBuffer::operator=(RowBuffer&& other) noexcept {
  if (this != &other) {
    ReleaseAccounting();
    stride_ = other.stride_;
    page_rows_ = other.page_rows_;
    size_ = other.size_;
    pages_ = std::move(other.pages_);
    other.size_ = 0;
  }
  return *this;
}

std::byte* RowBuffer::Append(const std::byte* row) {
  std::byte* dst = AppendSlot();
  std::memcpy(dst, row, stride_);
  return dst;
}

std::byte* RowBuffer::AppendSlot() {
  if (pages_.empty() || pages_.back().count == page_rows_) AddPage();
  Page& page = pages_.back();
  std::byte* dst = page.data.data() + page.count * stride_;
  ++page.count;
  ++size_;
  return dst;
}

std::byte* RowBuffer::AppendSlots(uint32_t want, uint32_t* got) {
  PJOIN_DCHECK(want > 0);
  if (pages_.empty() || pages_.back().count == page_rows_) AddPage();
  Page& page = pages_.back();
  const uint32_t n = std::min(want, page_rows_ - page.count);
  std::byte* dst = page.data.data() + static_cast<size_t>(page.count) * stride_;
  page.count += n;
  size_ += n;
  *got = n;
  return dst;
}

void RowBuffer::AddPage() {
  Page page;
  page.data.Allocate(static_cast<size_t>(page_rows_) * stride_);
  pages_.push_back(std::move(page));
  // Governor accounting is per page (dozens of KiB), never per row.
  MemoryGovernor::Global().Account(PageBytes());
}

void RowBuffer::ReleaseAccounting() {
  if (!pages_.empty()) {
    MemoryGovernor::Global().Release(pages_.size() * PageBytes());
  }
}

void RowBuffer::Clear() {
  ReleaseAccounting();
  pages_.clear();
  size_ = 0;
}

}  // namespace pjoin
