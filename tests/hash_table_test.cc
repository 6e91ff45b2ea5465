// Tests for the global chaining hash table and the robin-hood table.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "hash_table/chaining_ht.h"
#include "hash_table/robin_hood.h"
#include "util/hash.h"
#include "util/rng.h"

namespace pjoin {
namespace {

// ---- ChainingHashTable ----------------------------------------------------

// Row format for these tests: a single int64 key.
void MaterializeKeys(ChainingHashTable& ht, const std::vector<int64_t>& keys,
                     int threads) {
  for (size_t i = 0; i < keys.size(); ++i) {
    int64_t k = keys[i];
    ht.MaterializeEntry(static_cast<int>(i % threads), HashInt64(k),
                        reinterpret_cast<const std::byte*>(&k), 8);
  }
}

int64_t EntryKey(const ChainingHashTable& ht, const std::byte* entry) {
  int64_t k;
  std::memcpy(&k, ht.EntryRow(entry), 8);
  return k;
}

// Walks the chain for `key` counting exact matches.
int CountMatches(const ChainingHashTable& ht, int64_t key) {
  uint64_t hash = HashInt64(key);
  int found = 0;
  for (const std::byte* e = ht.ChainHead(hash); e != nullptr;
       e = ChainingHashTable::EntryNext(e)) {
    if (ChainingHashTable::EntryHash(e) == hash && EntryKey(ht, e) == key) {
      ++found;
    }
  }
  return found;
}

TEST(ChainingHT, FindsAllInsertedKeys) {
  ChainingHashTable ht(8, /*track_matches=*/false);
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < 5000; ++k) keys.push_back(k * 3);
  ThreadPool pool(4);
  MaterializeKeys(ht, keys, 4);
  ht.Build(pool);
  EXPECT_EQ(ht.num_entries(), 5000u);
  for (int64_t k : keys) EXPECT_EQ(CountMatches(ht, k), 1) << k;
}

TEST(ChainingHT, AbsentKeysNotFound) {
  ChainingHashTable ht(8, false);
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < 1000; ++k) keys.push_back(k * 2);  // evens only
  ThreadPool pool(2);
  MaterializeKeys(ht, keys, 2);
  ht.Build(pool);
  for (int64_t k = 1; k < 2000; k += 2) EXPECT_EQ(CountMatches(ht, k), 0);
}

TEST(ChainingHT, DuplicateKeysAllRetained) {
  ChainingHashTable ht(8, false);
  std::vector<int64_t> keys;
  for (int rep = 0; rep < 7; ++rep) {
    for (int64_t k = 0; k < 100; ++k) keys.push_back(k);
  }
  ThreadPool pool(3);
  MaterializeKeys(ht, keys, 3);
  ht.Build(pool);
  for (int64_t k = 0; k < 100; ++k) EXPECT_EQ(CountMatches(ht, k), 7);
}

TEST(ChainingHT, TagRejectsMostAbsentKeys) {
  // The tagged-pointer reducer must prune a large share of absent keys
  // before any chain walk.
  ChainingHashTable ht(8, false);
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < 64; ++k) keys.push_back(k);  // sparse table
  ThreadPool pool(1);
  MaterializeKeys(ht, keys, 1);
  ht.Build(pool);
  int rejected_by_tag = 0;
  const int kProbes = 10000;
  for (int64_t k = 0; k < kProbes; ++k) {
    if (ht.ChainHead(HashInt64(k + 1'000'000)) == nullptr) ++rejected_by_tag;
  }
  EXPECT_GT(rejected_by_tag, kProbes * 9 / 10);
}

TEST(ChainingHT, EmptyBuild) {
  ChainingHashTable ht(8, false);
  ThreadPool pool(2);
  ht.Build(pool);
  EXPECT_EQ(ht.num_entries(), 0u);
  EXPECT_EQ(CountMatches(ht, 42), 0);
}

TEST(ChainingHT, MatchedFlags) {
  ChainingHashTable ht(8, /*track_matches=*/true);
  std::vector<int64_t> keys{1, 2, 3};
  ThreadPool pool(1);
  MaterializeKeys(ht, keys, 1);
  ht.Build(pool);
  // Mark key 2 only.
  uint64_t hash = HashInt64(2);
  for (const std::byte* e = ht.ChainHead(hash); e != nullptr;
       e = ChainingHashTable::EntryNext(e)) {
    if (ChainingHashTable::EntryHash(e) == hash) ht.MarkMatched(e);
  }
  std::map<int64_t, bool> matched;
  ht.ForEachEntry([&](const std::byte* e) {
    matched[EntryKey(ht, e)] = ChainingHashTable::IsMatched(e);
  });
  EXPECT_FALSE(matched[1]);
  EXPECT_TRUE(matched[2]);
  EXPECT_FALSE(matched[3]);
}

TEST(ChainingHT, MaterializedBytesAccounting) {
  ChainingHashTable ht(16, false);
  int64_t row[2] = {1, 2};
  ht.MaterializeEntry(0, HashInt64(1), reinterpret_cast<std::byte*>(row), 16);
  EXPECT_EQ(ht.MaterializedBytes(), ht.entry_stride());
  EXPECT_EQ(ht.entry_stride(), 16u + 16u);
}

TEST(ChainingHT, ParallelBuildConsistent) {
  // Build the same key set with different thread counts; probe results must
  // be identical.
  std::vector<int64_t> keys;
  Rng rng(9);
  for (int i = 0; i < 20000; ++i) {
    keys.push_back(static_cast<int64_t>(rng.Below(5000)));
  }
  for (int threads : {1, 4}) {
    ChainingHashTable ht(8, false);
    ThreadPool pool(threads);
    MaterializeKeys(ht, keys, threads);
    ht.Build(pool);
    std::map<int64_t, int> expected;
    for (int64_t k : keys) expected[k]++;
    for (const auto& [k, n] : expected) {
      ASSERT_EQ(CountMatches(ht, k), n) << "threads=" << threads;
    }
  }
}

// Sum of (len - 1) over every directory chain, by walking the directory;
// `entries` receives the total number of entries reached.
uint64_t WalkChainedEntries(const ChainingHashTable& ht, uint64_t* entries) {
  uint64_t chained = 0;
  *entries = 0;
  for (uint64_t s = 0; s < ht.directory_size(); ++s) {
    uint64_t len = 0;
    for (auto* e = reinterpret_cast<const std::byte*>(
             ht.LoadSlot(s) & ChainingHashTable::kPointerMask);
         e != nullptr; e = ChainingHashTable::EntryNext(e)) {
      ++len;
    }
    *entries += len;
    if (len > 1) chained += len - 1;
  }
  return chained;
}

TEST(ChainingHT, ChainedEntriesMatchDirectoryWalk) {
  // 40000 unique keys give a 1 MiB directory, which the 4-worker build
  // zeroes in per-worker slices; the other cases zero theirs inline.
  std::vector<int64_t> unique;
  for (int64_t k = 0; k < 40000; ++k) unique.push_back(k * 7);
  std::vector<int64_t> duplicated;  // 5000 keys, four copies each
  for (int rep = 0; rep < 4; ++rep) {
    for (int64_t k = 0; k < 5000; ++k) duplicated.push_back(k);
  }
  // One key 3000 times: a chain longer than a probe batch.
  std::vector<int64_t> one_hot(3000, 42);
  const std::vector<int64_t> empty;
  const std::pair<const char*, const std::vector<int64_t>*> cases[] = {
      {"unique", &unique},
      {"duplicated", &duplicated},
      {"one_hot", &one_hot},
      {"empty", &empty}};
  for (const auto& [name, keys] : cases) {
    uint64_t chained_at_one = 0;
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(name) + " threads=" + std::to_string(threads));
      ChainingHashTable ht(8, false);
      ThreadPool pool(threads);
      MaterializeKeys(ht, *keys, threads);
      ht.Build(pool);
      uint64_t walked_entries = 0;
      EXPECT_EQ(ht.chained_entries(), WalkChainedEntries(ht, &walked_entries));
      EXPECT_EQ(walked_entries, keys->size());
      if (threads == 1) chained_at_one = ht.chained_entries();
      EXPECT_EQ(ht.chained_entries(), chained_at_one);
      if (keys == &one_hot) {
        EXPECT_EQ(ht.chained_entries(), one_hot.size() - 1);
      }
    }
  }
}

TEST(ChainingHT, BuildSpreadsOneBufferOverWorkers) {
  // Every entry sits in worker buffer 0 (as after a re-routed radix build),
  // several pages of it; a 4-worker Build must give the 1-worker table.
  std::vector<int64_t> keys;
  Rng rng(17);
  for (int i = 0; i < 50000; ++i) {
    keys.push_back(static_cast<int64_t>(rng.Below(20000)));
  }
  std::map<int64_t, int> expected;
  for (int64_t k : keys) expected[k]++;
  uint64_t chained_at_one = 0;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ChainingHashTable ht(8, false);
    ThreadPool pool(threads);
    MaterializeKeys(ht, keys, /*threads=*/1);
    ASSERT_EQ(ht.build_buffer(0).size(), keys.size());
    ht.Build(pool);
    EXPECT_EQ(ht.num_entries(), keys.size());
    for (int64_t k = 0; k < 20000; ++k) {
      auto it = expected.find(k);
      ASSERT_EQ(CountMatches(ht, k), it == expected.end() ? 0 : it->second)
          << k;
    }
    if (threads == 1) chained_at_one = ht.chained_entries();
    EXPECT_EQ(ht.chained_entries(), chained_at_one);
  }
}

// ---- RobinHoodTable ---------------------------------------------------------

TEST(RobinHood, FindsAllKeys) {
  RobinHoodTable table;
  std::vector<int64_t> keys(2000);
  for (int64_t i = 0; i < 2000; ++i) keys[i] = i * 7;
  table.Reset(keys.size());
  for (int64_t& k : keys) {
    table.Insert(HashInt64(k), reinterpret_cast<const std::byte*>(&k));
  }
  EXPECT_EQ(table.size(), 2000u);
  for (int64_t& k : keys) {
    int found = 0;
    table.ForEachMatch(HashInt64(k), [&](const std::byte* t, uint64_t) {
      int64_t v;
      std::memcpy(&v, t, 8);
      if (v == k) ++found;
    });
    EXPECT_EQ(found, 1) << k;
  }
}

TEST(RobinHood, AbsentKeysReturnNothing) {
  RobinHoodTable table;
  std::vector<int64_t> keys{10, 20, 30};
  table.Reset(keys.size());
  for (int64_t& k : keys) {
    table.Insert(HashInt64(k), reinterpret_cast<const std::byte*>(&k));
  }
  int found = 0;
  table.ForEachMatch(HashInt64(999), [&](const std::byte*, uint64_t) {
    ++found;
  });
  EXPECT_EQ(found, 0);
}

TEST(RobinHood, DuplicateHashesAllVisited) {
  RobinHoodTable table;
  std::vector<int64_t> keys{5, 5, 5, 5};
  table.Reset(keys.size());
  for (int64_t& k : keys) {
    table.Insert(HashInt64(k), reinterpret_cast<const std::byte*>(&k));
  }
  int found = 0;
  table.ForEachMatch(HashInt64(5), [&](const std::byte*, uint64_t) {
    ++found;
  });
  EXPECT_EQ(found, 4);
}

TEST(RobinHood, ResetReusesMemory) {
  RobinHoodTable table;
  table.Reset(10000);
  uint64_t cap1 = table.capacity();
  int64_t k = 3;
  table.Insert(HashInt64(k), reinterpret_cast<const std::byte*>(&k));
  table.Reset(100);  // smaller: capacity shrinks logically, memory reused
  EXPECT_EQ(table.size(), 0u);
  int found = 0;
  table.ForEachMatch(HashInt64(3), [&](const std::byte*, uint64_t) {
    ++found;
  });
  EXPECT_EQ(found, 0);
  table.Reset(10000);
  EXPECT_EQ(table.capacity(), cap1);
}

TEST(RobinHood, StressRandomKeys) {
  RobinHoodTable table;
  Rng rng(21);
  std::vector<int64_t> keys(50000);
  for (auto& k : keys) k = static_cast<int64_t>(rng.Below(30000));
  table.Reset(keys.size());
  std::map<int64_t, int> expected;
  for (int64_t& k : keys) {
    table.Insert(HashInt64(k), reinterpret_cast<const std::byte*>(&k));
    expected[k]++;
  }
  for (const auto& [k, n] : expected) {
    int found = 0;
    table.ForEachMatch(HashInt64(k), [&](const std::byte* t, uint64_t) {
      int64_t v;
      std::memcpy(&v, t, 8);
      if (v == k) ++found;
    });
    ASSERT_EQ(found, n) << k;
  }
}

}  // namespace
}  // namespace pjoin
