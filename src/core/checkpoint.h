// Warm-state checkpoint: a stored Testbed image that sweeps fork from.
//
// A paper experiment sweep (Figure 5's 3 modes x 10 sizes x 4 protocols,
// the PostMark/TPC table runs) used to rebuild a Testbed from scratch at
// every point, replaying mkfs, mount, login, and cache warmup each time.
// A Checkpoint captures the warmed world once — by deep-cloning a
// *quiesced* Testbed — and every subsequent fork() is an O(state) copy:
// no warmup events are replayed, and the determinism contract guarantees
// a forked run's report is byte-identical to a from-scratch run that
// performed the same warmup.
//
// The source testbed stays fully usable after capture; the checkpoint
// owns its own private image, so forks are unaffected by anything the
// source does afterwards.
#pragma once

#include <memory>

#include "core/fleet.h"
#include "core/testbed.h"

namespace netstore::core {

class Checkpoint {
 public:
  /// Captures `src` by deep-cloning it.  `src` must be quiesced (see
  /// Testbed::quiesce()); CHECK-aborts otherwise.
  explicit Checkpoint(const Testbed& src) : image_(src.fork()) {}

  Checkpoint(const Checkpoint&) = delete;
  Checkpoint& operator=(const Checkpoint&) = delete;

  /// A fresh, independent world in the captured state.  Forks never
  /// interact with each other or with the stored image.
  [[nodiscard]] std::unique_ptr<Testbed> fork() const {
    return image_->fork();
  }

  /// A fresh fleet over a fresh fork: the standard shape of one contention
  /// sweep point — warm system image, new workload half.
  [[nodiscard]] std::unique_ptr<Fleet> fleet(WorkloadConfig workload) const {
    return std::make_unique<Fleet>(fork(), workload);
  }

  [[nodiscard]] Protocol protocol() const { return image_->protocol(); }
  [[nodiscard]] const TestbedConfig& config() const {
    return image_->config();
  }

 private:
  std::unique_ptr<Testbed> image_;
};

}  // namespace netstore::core
