// Kept for the benchmark driver (perfbench/driver.cc), which still names the
// encoding catalog; the encoded segments live in the column catalog.
#ifndef PJOIN_STORAGE_ENCODED_SEGMENT_H_
#define PJOIN_STORAGE_ENCODED_SEGMENT_H_

#include "stats/column_catalog.h"

namespace pjoin {

using EncodingCatalog = ColumnCatalog;

}  // namespace pjoin

#endif  // PJOIN_STORAGE_ENCODED_SEGMENT_H_
