// Fleet: 10k–1M flyweight clients multiplexed over one warm Testbed world.
//
// The paper's §6 question — how do NFS and iSCSI scale when many clients
// share one server? — needs client counts no per-client-Testbed design
// can reach: a Testbed is an isolated world (its own server, its own
// caches), so N Testbeds produce N non-interacting experiments with no
// contention at all.  A Fleet instead keeps ONE world (typically freshly
// built and quiesced) and drives it with N *flyweight* logical
// clients: each is a small struct (its own deterministic Rng stream,
// latency accumulators, and — NFS only — per-object attribute-validation
// times over the shared hot set).  All operations multiplex through the
// world's single protocol stack, so clients genuinely contend for the
// server, the link, and the caches.
//
// Arrivals are open-loop: each client's next operation is scheduled one
// think time after its previous *arrival*, not its completion, so offered
// load does not back off when the server saturates — saturation shows up
// as queueing delay (fleet.queue_delay_us) instead of silently throttling
// the workload.  Think times are heavy-tailed (Pareto) by default.
//
// Coherence model (the paper's Figure 7 contrast):
//   * NFS: client c's view of shared object d is stale when another
//     client wrote d after c last validated it, or c's 3 s attribute
//     window lapsed.  A stale view expires the real client stack's
//     cached attributes (NfsClient::expire_path_attrs — no traffic), so
//     the operation pays a genuine GETATTR through the normal
//     revalidation machinery.  GETATTR rate therefore grows with the
//     number of sharers: the revalidation storm.
//   * iSCSI: the session owns its LUN exclusively (Target::claim_lun),
//     the one block-level cache is authoritative, and no coherence
//     traffic exists at any client count.
//
// Determinism: every random draw flows through per-client Rngs seeded
// from (workload.seed, client id); arrival ties break by client id.
// Fixed seed + fixed N => byte-identical reports, and a Fleet of N=1
// degenerates to exactly the single-client open-loop run.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/testbed.h"
#include "sim/rng.h"

namespace netstore::core {

class Fleet {
 public:
  /// Takes ownership of a built (typically quiesced) world and
  /// prepares `workload.clients` flyweight clients for it.  Registers the
  /// fleet.* metrics in the world's registry.
  Fleet(std::unique_ptr<Testbed> world, WorkloadConfig workload);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Creates the shared hot set and the private-file directory, settles
  /// deferred traffic, then opens a fresh measurement window
  /// (Testbed::reset_counters).  run() calls this on first use.
  void setup();

  /// Runs the open-loop arrival process for workload.ops operations and
  /// fills the per-client fairness sampler (fleet.client_mean_us).
  void run();

  /// The one world every client shares: owner of the fleet.* metrics.
  [[nodiscard]] Testbed& world() { return *world_; }
  [[nodiscard]] const WorkloadConfig& workload() const { return workload_; }

  // Aggregates (also exported as fleet.* metrics in world().metrics()).
  [[nodiscard]] std::uint64_t ops_completed() const;
  [[nodiscard]] std::uint64_t shared_ops() const;
  /// NFS: operations that had to expire a fresh cached attribute because
  /// of cross-client sharing.  Always 0 on iSCSI (exclusive LUN).
  [[nodiscard]] std::uint64_t forced_revalidations() const;
  /// Clients that completed at least one operation in the run.
  [[nodiscard]] std::uint64_t active_clients() const;
  /// Jain fairness index over active clients' mean response times:
  /// (sum x)^2 / (n * sum x^2) in (0, 1], 1 = perfectly fair.
  [[nodiscard]] double jain_fairness_index() const;

 private:
  struct Client {
    sim::Rng rng;
    std::uint64_t ops = 0;
    double sum_response_us = 0;
    std::uint32_t private_files = 0;
  };

  /// A client's next operation.  Every client has exactly one pending
  /// arrival, so ordering by (time, client id) is a total order: ties in
  /// time break by id.
  struct Arrival {
    sim::Time at;
    std::uint64_t client;
  };
  /// Heap order: `a` is served after `b`.
  struct Later {
    bool operator()(const Arrival& a, const Arrival& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.client > b.client;
    }
  };

  [[nodiscard]] std::string shared_path(std::uint64_t obj) const;
  [[nodiscard]] std::string private_path(std::uint64_t client,
                                         std::uint32_t file) const;
  [[nodiscard]] sim::Duration think(Client& cl);
  /// NFS staleness check for (client, shared object); expires the real
  /// attr cache when the flyweight client's view is out of date.
  void force_revalidation_if_stale(std::uint64_t client, std::uint64_t obj,
                                   const std::string& path);
  void do_op(std::uint64_t client, Client& cl);

  WorkloadConfig workload_;
  sim::ZipfSampler zipf_;
  std::unique_ptr<Testbed> world_;
  std::vector<Client> clients_;  // indexed by client id
  std::priority_queue<Arrival, std::vector<Arrival>, Later> arrivals_;

  // NFS coherence state, empty on iSCSI worlds: validated_[c*D + d] is
  // the last time client c validated shared object d (-1 = never), and
  // last_write_[d] the last time any client wrote d.
  std::vector<sim::Time> validated_;
  std::vector<sim::Time> last_write_;

  bool setup_done_ = false;

  // Owned by the world's MetricsRegistry.
  sim::Counter* ops_ = nullptr;
  sim::Counter* shared_ops_ = nullptr;
  sim::Counter* forced_revals_ = nullptr;
  sim::Sampler* response_us_ = nullptr;
  sim::Sampler* queue_delay_us_ = nullptr;
  sim::Sampler* service_us_ = nullptr;
  sim::Sampler* client_mean_us_ = nullptr;
};

}  // namespace netstore::core
