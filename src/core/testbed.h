// Testbed: wires a complete client/server storage stack (Figure 2).
//
// One Testbed instance is one isolated experiment: its own virtual clock,
// Gigabit link, RAID-5 array, caches and protocol stack.  Five kinds are
// supported — NFS v2/v3/v4 (file-access), iSCSI (block-access), and the
// §7-enhanced NFS v4 variants.
#pragma once

#include <cstdint>
#include <memory>

#include "block/local_device.h"
#include "block/raid5.h"
#include "block/timed_cache.h"
#include "core/config.h"
#include "core/cpu_model.h"
#include "fs/ext3.h"
#include "iscsi/initiator.h"
#include "iscsi/target.h"
#include "net/link.h"
#include "nfs/client.h"
#include "nfs/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/rpc.h"
#include "sim/env.h"
#include "vfs/local_vfs.h"
#include "vfs/nfs_vfs.h"

namespace netstore::core {

enum class Protocol {
  kNfsV2,
  kNfsV3,
  kNfsV4,
  kNfsV4Consistent,  // §7: strongly-consistent meta-data cache
  kNfsV4Delegation,  // §7: + directory delegation
  kIscsi,
};

[[nodiscard]] const char* to_string(Protocol p);

/// One coherent cut of the testbed's measurements at a point in virtual
/// time.  Everything a paper table needs, gathered in one call instead of
/// a getter per statistic; diff two snapshots to measure a phase.
struct StatsSnapshot {
  sim::Time now = 0;

  // Traffic (the paper's Ethereal/nfsstat numbers).
  std::uint64_t messages = 0;         // protocol exchanges (RPCs / commands)
  std::uint64_t bytes = 0;            // wire bytes, both directions
  std::uint64_t raw_messages = 0;     // link-level frames/PDUs
  std::uint64_t retransmissions = 0;  // spurious RPC duplicates (NFS only)
  std::uint64_t c2s_messages = 0;
  std::uint64_t c2s_bytes = 0;
  std::uint64_t s2c_messages = 0;
  std::uint64_t s2c_bytes = 0;

  // Per-side CPU busy time since construction (vmstat-style windows live
  // in CpuModel; this is the running total).
  sim::Duration server_cpu_busy = 0;
  sim::Duration client_cpu_busy = 0;
};

class Testbed {
 public:
  explicit Testbed(Protocol protocol, SystemConfig config = {});
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  [[nodiscard]] Protocol protocol() const { return protocol_; }
  [[nodiscard]] bool is_nfs() const { return protocol_ != Protocol::kIscsi; }

  [[nodiscard]] vfs::Vfs& vfs() { return *vfs_; }
  [[nodiscard]] sim::Env& env() { return env_; }
  [[nodiscard]] net::Link& link() { return *link_; }
  [[nodiscard]] CpuModel& server_cpu() { return server_cpu_; }
  [[nodiscard]] CpuModel& client_cpu() { return client_cpu_; }

  /// One coherent cut of every counter the tables consume.
  [[nodiscard]] StatsSnapshot snapshot() const;

  /// The unified metric namespace (owned + component-adopted metrics).
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  /// Per-request trace spans (opened at VFS entry, closed at return).
  [[nodiscard]] obs::Tracer& tracer() { return tracer_; }

  /// Zeroes traffic counters and opens a CPU measurement window.
  void reset_counters();

  /// Cold-cache emulation (paper §4.1): remounts the client's file system
  /// or NFS mount and restarts the server, dropping every cache level.
  void cold_caches();

  /// Advances virtual time so deferred activity (journal commits, page
  /// flushes, delegation flushes) completes and its traffic is counted.
  void settle(sim::Duration d = sim::seconds(12));

  /// NISTNet-style injected round-trip delay (Figure 6 experiments).
  void set_injected_rtt(sim::Duration rtt) { link_->set_injected_rtt(rtt); }

  /// Failure injection: client dies — caches and un-shipped state vanish.
  void crash_client();

  /// Runs every deferred daemon (journal commits, page flushes, delegation
  /// flushes) to completion and waits out in-flight asynchronous writes,
  /// leaving no pending event.  Virtual time advances past the deferred
  /// work; warm cache contents survive.  Sweep points build a world and
  /// quiesce it before measuring (DESIGN.md §13).
  void quiesce();

  // --- internals for white-box tests ---
  [[nodiscard]] fs::Ext3Fs& client_fs();     // iSCSI stacks only
  [[nodiscard]] fs::Ext3Fs& server_fs();     // NFS stacks only
  [[nodiscard]] nfs::NfsClient& nfs_client();  // NFS stacks only
  [[nodiscard]] iscsi::Initiator& initiator();  // iSCSI only
  [[nodiscard]] iscsi::Target& target();        // iSCSI only
  [[nodiscard]] block::Raid5Array& raid() { return *raid_; }

 private:
  class ClientInstr;  // vfs::Instrumentation impl (spans + CPU costs)

  void build_iscsi();
  void build_nfs();
  /// Adopts every long-lived component counter into the registry.  The
  /// page and buffer caches are absent: an ext3 mount() recreates its
  /// caches, which would dangle an adopted reference, and no report reads
  /// the NFS client's page-cache counters.
  void register_metrics();
  [[nodiscard]] nfs::ClientConfig nfs_client_config() const;
  [[nodiscard]] static fs::Ext3Params client_fs_params(
      const SystemConfig& c);

  Protocol protocol_;
  SystemConfig config_;
  sim::Env env_;
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  CpuModel server_cpu_;
  CpuModel client_cpu_;

  std::unique_ptr<net::Link> link_;
  std::unique_ptr<block::Raid5Array> raid_;

  // iSCSI stack.
  std::unique_ptr<block::TimedCache> target_cache_;
  std::unique_ptr<iscsi::Target> target_;
  std::unique_ptr<iscsi::Initiator> initiator_;
  std::unique_ptr<fs::Ext3Fs> client_fs_;

  // NFS stack.
  std::unique_ptr<block::LocalBlockDevice> server_disk_;
  std::unique_ptr<fs::Ext3Fs> server_fs_;
  std::unique_ptr<nfs::NfsServer> nfs_server_;
  std::unique_ptr<rpc::RpcTransport> rpc_;
  std::unique_ptr<nfs::NfsClient> nfs_client_;

  std::unique_ptr<ClientInstr> instr_;
  std::unique_ptr<vfs::Vfs> vfs_;
};

}  // namespace netstore::core
