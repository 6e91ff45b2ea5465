// Kept for the benchmark driver (perfbench/driver.cc), which still names the
// statistics catalog; the statistics live in the column catalog.
#ifndef PJOIN_STATS_STATS_CATALOG_H_
#define PJOIN_STATS_STATS_CATALOG_H_

#include "stats/column_catalog.h"

namespace pjoin {

using StatsCatalog = ColumnCatalog;

}  // namespace pjoin

#endif  // PJOIN_STATS_STATS_CATALOG_H_
