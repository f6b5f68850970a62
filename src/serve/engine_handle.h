// The hot-swap seam of the serving layer (docs/SNAPSHOTS.md §hot-swap,
// DESIGN.md §16).
//
// An engine_handle is a swap slot holding the current published
// validator bank. publish() installs a new bank (typically
// validator_bank_view::from_snapshot over a freshly written snapshot)
// by swapping one shared_ptr — no locks held across scoring, no queue
// drain: a batch that already loaded the old bank finishes on it (the
// shared_ptr keeps the old bank alive), and the next batch picks up
// the new generation. Swap latency is therefore bounded by one batch,
// never by the queue depth.
//
// Each published bank carries a monotonically increasing generation so
// results can be attributed to exactly one bank
// (scoring_result::generation, the TSan stress test's invariant).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "core/validator_bank.h"

namespace dv {

/// One immutable published bank plus its generation tag.
struct published_bank {
  validator_bank_view bank;
  std::uint64_t generation{0};
};

class engine_handle {
 public:
  engine_handle() = default;
  engine_handle(const engine_handle&) = delete;
  engine_handle& operator=(const engine_handle&) = delete;

  /// Installs `bank` as the current generation and returns its
  /// generation number (1-based; generation 0 means "never
  /// published"). Safe to call from any thread at any time — in-flight
  /// batches keep scoring on the bank they already loaded. Records
  /// dv_snapshot_publish_total / dv_snapshot_active_generation.
  std::uint64_t publish(validator_bank_view bank);

  /// The current published bank, or nullptr before the first publish().
  /// The returned shared_ptr pins the bank (and its snapshot image)
  /// for as long as the caller holds it.
  std::shared_ptr<const published_bank> current() const;

  /// Generation of the latest publish (0 before the first).
  std::uint64_t generation() const;

  bool has_bank() const { return generation() != 0; }

 private:
  // The slot is a mutex-guarded shared_ptr, NOT
  // std::atomic<std::shared_ptr>: libstdc++'s lock-free _Sp_atomic
  // releases its read-side spin bit with a relaxed fetch_sub, so a
  // reader's pointer load has no happens-before edge to a later
  // publisher's store and ThreadSanitizer (correctly) reports the
  // race. The mutex is held only for the pointer copy/swap — a few
  // nanoseconds once per batch — never across scoring, so the
  // bounded-by-one-batch swap property is unchanged.
  mutable std::mutex mutex_;
  std::shared_ptr<const published_bank> slot_;  // dv:guarded-by(mutex_)
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace dv
