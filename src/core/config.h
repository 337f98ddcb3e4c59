// Testbed calibration constants.
//
// Models the paper's hardware (FAST'04, §3.1): dual-933 MHz P-III server
// with 1 GB RAM, 1 GHz P-III client with 512 MB, isolated Gigabit
// Ethernet, two 4+p RAID-5 arrays of 10 kRPM Ultra-160 drives.
//
// CPU-path costs follow the paper's own explanation of its CPU results
// (§5.4): an iSCSI request traverses network -> SCSI server layer ->
// block driver; an NFS request traverses network -> RPC/nfsd -> VFS ->
// file system -> block layer -> driver, about twice the path length.
// Absolute values are chosen so the simulated completion times land in
// the paper's measured ranges on the Gigabit LAN.
#pragma once

#include <cstdint>

#include "block/raid5.h"
#include "iscsi/session.h"
#include "net/link.h"
#include "rpc/rpc.h"
#include "sim/time.h"

namespace netstore::core {

struct CpuCosts {
  // --- server side ---
  // Per-layer traversal cost on the 933 MHz server.
  sim::Duration server_layer = sim::microseconds(40);
  // Layers traversed per request (paper §5.4: NFS path ~= 2x iSCSI path).
  std::uint32_t iscsi_layers = 3;  // network, SCSI server, block driver
  std::uint32_t nfs_layers = 6;    // network, RPC/nfsd, VFS, FS, block, driver
  // Extra FS-layer traversals when an NFS request misses the server's
  // meta-data cache (multiple block reads per request; §5.4).
  std::uint32_t nfs_meta_miss_layers = 6;
  // Data movement cost per 4 KB at the server.  Writes cost more than
  // reads (allocation + journal + copy on the write path).
  sim::Duration server_per_page_read = sim::microseconds(45);
  sim::Duration server_per_page_write = sim::microseconds(110);

  // --- client side ---
  // Thin syscall + RPC client work per NFS operation.
  sim::Duration client_nfs_syscall = sim::microseconds(25);
  // The iSCSI client runs the entire file system + SCSI stack locally.
  sim::Duration client_fs_syscall = sim::microseconds(40);
  // Per-SCSI-command initiator processing (TCP/IP + iSCSI + SCSI).
  sim::Duration client_per_command = sim::microseconds(180);
  // Per-4 KB data movement at the client.
  sim::Duration client_per_page = sim::microseconds(30);
};

/// System half of the testbed configuration: everything that describes
/// the machines — protocol, device, cache and network knobs.  Fixed when
/// the stack is built.
struct SystemConfig {
  net::LinkConfig link;
  rpc::RpcConfig rpc;
  iscsi::SessionParams iscsi;
  block::Raid5Config raid;
  CpuCosts cpu;

  // Volume size exposed to the file system.  8 GB keeps simulation memory
  // modest while holding every workload in this repository.
  std::uint64_t volume_blocks = 8ull * 1024 * 1024 * 1024 / block::kBlockSize;

  // Client memory (512 MB): metadata + data caches of the local ext3 or
  // the NFS client cache.
  std::uint64_t client_cache_pages = 96 * 1024;        // 384 MB data
  std::uint64_t client_metadata_blocks = 24 * 1024;    // 96 MB metadata

  // Server memory (1 GB): ext3 caches for NFS, target cache for iSCSI.
  std::uint64_t server_cache_pages = 192 * 1024;       // 768 MB data
  std::uint64_t server_metadata_blocks = 48 * 1024;    // 192 MB metadata
  std::uint64_t target_cache_blocks = 224 * 1024;      // 896 MB target RAM

  // ext3 journal (32 MB) and commit interval (5 s), as in the paper.
  std::uint32_t journal_blocks = 8192;
  sim::Duration commit_interval = sim::seconds(5);

  // Ablation knobs (defaults match the paper's Linux 2.4 behaviour).
  std::uint32_t nfs_write_pool_slots = 16;
  std::uint32_t fs_readahead_max = 8;  // local ext3 read-ahead (pages)

  // vmstat sampling period for CPU utilization (paper: every 2 s).
  sim::Duration cpu_sample_period = sim::seconds(2);

  // Runtime invariant audits across the whole stack: event-queue dispatch
  // order (sim::Env), journal commit ordering, and ext3's directory index
  // against its blocks.  Off by default — audits add per-event and
  // per-lookup checks; tests turn them on.
  bool invariant_audits = false;
};

/// Think-time distribution of the open-loop client arrival process.
enum class ThinkTimeDist {
  kExponential,  // Poisson arrivals (memoryless)
  kPareto,       // heavy-tailed (bursts + long silences), the traced shape
};

/// Open-loop arrival process: each client independently issues its next
/// operation one think time after the previous *arrival* (not completion),
/// so offered load does not back off when the server saturates — queueing
/// delay becomes visible instead of silently throttling the workload.
struct ArrivalConfig {
  double ops_per_client_per_s = 0.5;  // paper §6 trace rate per client
  ThinkTimeDist think_time = ThinkTimeDist::kPareto;
  // Pareto tail index; 1 < shape <= 2 gives the infinite-variance burst
  // structure measured for interactive clients (mean stays calibrated to
  // ops_per_client_per_s via pareto_with_mean).
  double pareto_shape = 1.5;
};

/// Workload half of the testbed configuration: who drives the system and
/// how hard.  Supplied per run (a fleet sweep varies it point to point
/// over worlds built from one SystemConfig).
struct WorkloadConfig {
  std::uint64_t clients = 1;
  std::uint64_t seed = 42;
  ArrivalConfig arrival;

  // Sharing structure (paper §6, Figure 7): each op targets the shared
  // hot set with probability sharing_ratio, else the client's private
  // files.  Shared-object popularity is Zipf-distributed.
  double sharing_ratio = 0.25;
  std::uint32_t shared_objects = 16;
  double zipf_theta = 0.99;
  double shared_write_fraction = 0.05;   // rare shared writes (EECS-like)
  double private_write_fraction = 0.30;

  // Open-loop operation budget of one run/sweep point.  Fixed per point —
  // a 10^6-client point simulates the first `ops` arrivals of the fleet,
  // not a million times more work than a 1-client point.
  std::uint64_t ops = 4000;
};

/// Complete testbed configuration.  The split mirrors the two lifetimes:
/// `system` is fixed at stack build time, `workload` varies per run.
struct TestbedConfig {
  WorkloadConfig workload;
  SystemConfig system;
};

}  // namespace netstore::core
