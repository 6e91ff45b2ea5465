#include "util/env.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <thread>

#include "exec/thread_pool.h"

namespace pjoin {

int64_t GetEnvInt64(const char* name, int64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  char* end = nullptr;
  long long parsed = std::strtoll(v, &end, 10);
  if (end == v) return def;
  // A partially numeric value ("12abc") is a configuration mistake, not a
  // number; surface it as unparsable instead of truncating.
  while (*end != '\0') {
    if (!std::isspace(static_cast<unsigned char>(*end))) return def;
    ++end;
  }
  return static_cast<int64_t>(parsed);
}

double GetEnvDouble(const char* name, double def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  char* end = nullptr;
  double parsed = std::strtod(v, &end);
  if (end == v) return def;
  while (*end != '\0') {
    if (!std::isspace(static_cast<unsigned char>(*end))) return def;
    ++end;
  }
  return parsed;
}

std::string GetEnvString(const char* name, const std::string& def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return std::string(v);
}

bool ParseByteSize(const std::string& text, uint64_t* out) {
  const char* v = text.c_str();
  char* end = nullptr;
  long long parsed = std::strtoll(v, &end, 10);
  if (end == v || parsed < 0) return false;
  uint64_t value = static_cast<uint64_t>(parsed);
  uint64_t multiplier = 1;
  if (*end != '\0') {
    switch (std::tolower(static_cast<unsigned char>(*end))) {
      case 'k':
        multiplier = 1024ull;
        break;
      case 'm':
        multiplier = 1024ull * 1024;
        break;
      case 'g':
        multiplier = 1024ull * 1024 * 1024;
        break;
      case 't':
        multiplier = 1024ull * 1024 * 1024 * 1024;
        break;
      case 'b':
        multiplier = 1;
        break;
      default:
        return false;
    }
    ++end;
    // Accept the long forms "kb"/"kib" etc. after a size letter.
    if (multiplier > 1 && (*end == 'i' || *end == 'I')) ++end;
    if (multiplier > 1 && (*end == 'b' || *end == 'B')) ++end;
  }
  while (*end != '\0') {
    if (!std::isspace(static_cast<unsigned char>(*end))) return false;
    ++end;
  }
  *out = value * multiplier;
  return true;
}

uint64_t GetEnvBytes(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  uint64_t parsed = 0;
  if (!ParseByteSize(v, &parsed)) return def;
  return parsed;
}

uint64_t MemoryBudgetBytes() { return GetEnvBytes("PJOIN_MEMORY_BUDGET", 0); }

int DefaultThreads() {
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw <= 0) hw = 1;
  const int64_t threads = GetEnvInt64("PJOIN_THREADS", hw);
  // A zero or negative thread count would deadlock the pool, and more than
  // kMaxWorkers would overrun worker-indexed buffers; clamp instead.
  return static_cast<int>(std::clamp<int64_t>(threads, 1, kMaxWorkers));
}

int MaxConcurrentQueries() {
  int64_t v = GetEnvInt64("PJOIN_MAX_CONCURRENT", 4);
  return v < 1 ? 1 : static_cast<int>(v);
}

int AdmitQueueCapacity() {
  int64_t v = GetEnvInt64("PJOIN_ADMIT_QUEUE", 32);
  return v < 1 ? 1 : static_cast<int>(v);
}

int ServerThreadsPerQuery() {
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw <= 0) hw = 1;
  int def = hw / MaxConcurrentQueries();
  if (def < 1) def = 1;
  int64_t v = GetEnvInt64("PJOIN_SERVER_THREADS", def);
  return v < 1 ? 1 : static_cast<int>(v);
}

int64_t WorkloadScaleDivisor() { return GetEnvInt64("PJOIN_SCALE", 64); }

double BenchScaleFactor() { return GetEnvDouble("PJOIN_SF", 0.1); }

int BenchRepetitions() {
  return static_cast<int>(GetEnvInt64("PJOIN_REPS", 3));
}

bool EncodingEnabled() { return GetEnvInt64("PJOIN_ENCODING", 1) != 0; }

double EstimateScale() {
  double v = GetEnvDouble("PJOIN_EST_SCALE", 1.0);
  return v <= 0.0 ? 1.0 : v;
}

bool RewriteEnabledEnv() { return GetEnvInt64("PJOIN_REWRITE", 1) != 0; }

int RewriteDpCapEnv() {
  int64_t v = GetEnvInt64("PJOIN_REWRITE_DP_CAP", 10);
  if (v < 2) v = 2;
  if (v > 20) v = 20;
  return static_cast<int>(v);
}

SimdTier RequestedSimdTier(SimdTier def) {
  const char* v = std::getenv("PJOIN_SIMD");
  if (v == nullptr || *v == '\0') return def;
  SimdTier parsed = def;
  if (!ParseSimdTier(v, &parsed)) return def;
  return parsed;
}

}  // namespace pjoin
