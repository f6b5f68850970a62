#include "util/strong_lru.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

namespace dv {

namespace {

// Process-wide cache knobs, read from the environment once. Mirrors the
// DV_THREADS / DV_SIMD idiom: an env default plus in-process setters for
// tests and benches.
struct cache_config {
  std::atomic<bool> enabled{true};
  std::atomic<std::size_t> capacity{1024};

  // dv:init(constructed once for the process-wide config singleton)
  cache_config() {
    if (const char* raw = std::getenv("DV_CACHE")) {
      if (std::strcmp(raw, "off") == 0 || std::strcmp(raw, "0") == 0 ||
          std::strcmp(raw, "false") == 0) {
        enabled.store(false, std::memory_order_relaxed);
      }
    }
    if (const char* raw = std::getenv("DV_CACHE_CAPACITY")) {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(raw, &end, 10);
      if (end != raw && *end == '\0') {
        capacity.store(static_cast<std::size_t>(parsed),
                       std::memory_order_relaxed);
      }
    }
  }
};

cache_config& config() {
  // All fields are atomics; reads and writes are individually ordered.
  // dv-lint: allow(thread-safety) atomic-field singleton
  static cache_config instance;
  return instance;
}

// Byte totals aggregated per label across every live cache instance, so
// several caches sharing a label export one dv_cache_bytes series.
// The totals live outside the metrics registry and survive
// metrics::reset(); the gauge is re-published on the next delta.
struct byte_registry {
  std::mutex mutex;
  std::map<std::string, std::int64_t> totals;  // dv:guarded-by(mutex)
};

byte_registry& bytes() {
  // Never destroyed (same idiom as the metrics registry): cache
  // destructors report byte deltas here, and caches can live in statics
  // that outlive any function-local static's destruction.
  // dv-lint: allow(thread-safety) mutex-guarded singleton
  static byte_registry* instance = new byte_registry;
  return *instance;
}

}  // namespace

bool cache_enabled() {
  return config().enabled.load(std::memory_order_relaxed) &&
         config().capacity.load(std::memory_order_relaxed) > 0;
}

void set_cache_enabled(bool enabled) {
  config().enabled.store(enabled, std::memory_order_relaxed);
}

std::size_t cache_capacity() {
  return config().capacity.load(std::memory_order_relaxed);
}

void set_cache_capacity(std::size_t capacity) {
  config().capacity.store(capacity, std::memory_order_relaxed);
}

strong_hash strong_hash::of_bytes(const void* data, std::size_t size) {
  // 128-bit FNV-1a: offset basis and prime from the FNV reference
  // parameters, carried in an unsigned __int128 accumulator. Bytes are
  // mixed a 64-bit word at a time (memcpy keeps it alignment-safe);
  // the tail and the total length fold in last so "abc" and "abc\0"
  // cannot collide by construction.
  using u128 = unsigned __int128;
  constexpr u128 offset_basis =
      (u128{0x6c62272e07bb0142ULL} << 64) | u128{0x62b821756295c58dULL};
  constexpr u128 prime = (u128{1} << 88) | u128{0x13b};

  u128 h = offset_basis;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::size_t remaining = size;
  while (remaining >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * prime;
    p += 8;
    remaining -= 8;
  }
  std::uint64_t tail = 0;
  for (std::size_t i = 0; i < remaining; ++i) {
    tail |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  h = (h ^ tail) * prime;
  h = (h ^ static_cast<std::uint64_t>(size)) * prime;

  strong_hash out;
  out.hi = static_cast<std::uint64_t>(h >> 64);
  out.lo = static_cast<std::uint64_t>(h);
  return out;
}

namespace cache_detail {

std::string counter_name(const std::string& label, const char* what) {
  std::string name = "dv_cache_";
  name += what;
  name += "_total{cache=\"";
  name += label;
  name += "\"}";
  return name;
}

void record_count(const std::string& series_name) {
  metrics::count(series_name);
}

void update_label_bytes(const std::string& label, std::int64_t delta) {
  std::int64_t total;
  {
    std::lock_guard<std::mutex> lock(bytes().mutex);
    total = (bytes().totals[label] += delta);
  }
  if (metrics::enabled()) {
    metrics::set("dv_cache_bytes{cache=\"" + label + "\"}",
                 static_cast<double>(total));
  }
}

}  // namespace cache_detail

}  // namespace dv
