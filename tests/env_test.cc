// Environment-knob parsing: strict integer parsing (trailing garbage means
// "unset", never a silent truncation), thread-count clamping, and the byte
// size suffixes PJOIN_MEMORY_BUDGET accepts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "exec/thread_pool.h"
#include "tests/test_util.h"
#include "util/env.h"

namespace pjoin {
namespace {

constexpr const char* kVar = "PJOIN_ENV_TEST_VAR";

TEST(EnvInt, ParsesPlainInteger) {
  ScopedEnv env(kVar, "42");
  EXPECT_EQ(GetEnvInt64(kVar, -1), 42);
}

TEST(EnvInt, UnsetReturnsDefault) {
  ScopedEnv env(kVar, nullptr);
  EXPECT_EQ(GetEnvInt64(kVar, 7), 7);
}

TEST(EnvInt, TrailingGarbageReturnsDefault) {
  ScopedEnv env(kVar, "12abc");
  EXPECT_EQ(GetEnvInt64(kVar, -1), -1);
}

TEST(EnvInt, TrailingWhitespaceAccepted) {
  ScopedEnv env(kVar, "12 ");
  EXPECT_EQ(GetEnvInt64(kVar, -1), 12);
}

TEST(EnvInt, PureGarbageReturnsDefault) {
  ScopedEnv env(kVar, "abc");
  EXPECT_EQ(GetEnvInt64(kVar, 5), 5);
}

TEST(EnvInt, NegativeParses) {
  ScopedEnv env(kVar, "-3");
  EXPECT_EQ(GetEnvInt64(kVar, 0), -3);
}

TEST(EnvDouble, TrailingGarbageReturnsDefault) {
  ScopedEnv env(kVar, "1.5x");
  EXPECT_EQ(GetEnvDouble(kVar, 2.5), 2.5);
}

TEST(EnvDouble, ParsesPlainDouble) {
  ScopedEnv env(kVar, "0.25");
  EXPECT_DOUBLE_EQ(GetEnvDouble(kVar, 0), 0.25);
}

TEST(EnvThreads, ClampsToAtLeastOne) {
  {
    ScopedEnv env("PJOIN_THREADS", "0");
    EXPECT_GE(DefaultThreads(), 1);
  }
  {
    ScopedEnv env("PJOIN_THREADS", "-4");
    EXPECT_GE(DefaultThreads(), 1);
  }
  {
    ScopedEnv env("PJOIN_THREADS", "3");
    EXPECT_EQ(DefaultThreads(), 3);
  }
}

TEST(EnvThreads, ClampsToMaxWorkers) {
  // Worker-indexed buffers hold kMaxWorkers slots; a larger request must not
  // produce a pool whose workers index past them.
  ScopedEnv env("PJOIN_THREADS", "100000");
  EXPECT_EQ(DefaultThreads(), kMaxWorkers);
}

TEST(ParseByteSize, PlainBytes) {
  uint64_t v = 0;
  ASSERT_TRUE(ParseByteSize("1048576", &v));
  EXPECT_EQ(v, 1048576u);
}

TEST(ParseByteSize, Suffixes) {
  uint64_t v = 0;
  ASSERT_TRUE(ParseByteSize("512k", &v));
  EXPECT_EQ(v, 512u * 1024);
  ASSERT_TRUE(ParseByteSize("64m", &v));
  EXPECT_EQ(v, 64u * 1024 * 1024);
  ASSERT_TRUE(ParseByteSize("2g", &v));
  EXPECT_EQ(v, 2ull * 1024 * 1024 * 1024);
  ASSERT_TRUE(ParseByteSize("1t", &v));
  EXPECT_EQ(v, 1ull << 40);
}

TEST(ParseByteSize, CaseAndIecForms) {
  uint64_t v = 0;
  ASSERT_TRUE(ParseByteSize("64M", &v));
  EXPECT_EQ(v, 64u * 1024 * 1024);
  ASSERT_TRUE(ParseByteSize("64MB", &v));
  EXPECT_EQ(v, 64u * 1024 * 1024);
  ASSERT_TRUE(ParseByteSize("64MiB", &v));
  EXPECT_EQ(v, 64u * 1024 * 1024);
  ASSERT_TRUE(ParseByteSize("100b", &v));
  EXPECT_EQ(v, 100u);
}

TEST(ParseByteSize, RejectsGarbage) {
  uint64_t v = 0;
  EXPECT_FALSE(ParseByteSize("", &v));
  EXPECT_FALSE(ParseByteSize("abc", &v));
  EXPECT_FALSE(ParseByteSize("12x", &v));
  EXPECT_FALSE(ParseByteSize("64mq", &v));
  EXPECT_FALSE(ParseByteSize("-5", &v));
  EXPECT_FALSE(ParseByteSize("-5m", &v));
}

TEST(ParseByteSize, TrailingWhitespaceAccepted) {
  uint64_t v = 0;
  ASSERT_TRUE(ParseByteSize("64m ", &v));
  EXPECT_EQ(v, 64u * 1024 * 1024);
}

TEST(EnvBytes, ReadsSuffixedBudget) {
  ScopedEnv env(kVar, "16m");
  EXPECT_EQ(GetEnvBytes(kVar, 0), 16u * 1024 * 1024);
}

TEST(EnvBytes, GarbageFallsBackToDefault) {
  ScopedEnv env(kVar, "lots");
  EXPECT_EQ(GetEnvBytes(kVar, 123), 123u);
}

}  // namespace
}  // namespace pjoin
