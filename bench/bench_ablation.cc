// Ablation bench: the design knobs DESIGN.md calls out, toggled one at a
// time on the mechanisms the paper credits for its results.
//
//   1. ext3 commit interval (update aggregation window): meta-data
//      messages per PostMark-style op vs interval.
//   2. NFS async write pool size (the "pseudo-synchronous" cliff).
//   3. Client read-ahead window vs sequential read time.
//   4. NFS attribute-cache timeout (consistency checks vs staleness).
#include <cstdio>

#include "bench_common.h"
#include "core/testbed.h"
#include "workloads/large_io.h"

using namespace netstore;

namespace {

double postmark_like_msgs_per_op(core::SystemConfig cfg) {
  core::Testbed bed(core::Protocol::kIscsi, cfg);
  vfs::Vfs& v = bed.vfs();
  (void)v.mkdir("/pool", 0755);
  bed.settle(sim::seconds(15));
  bed.reset_counters();
  constexpr int kOps = 400;
  for (int i = 0; i < kOps; ++i) {
    const std::string f = "/pool/f" + std::to_string(i);
    auto fd = v.creat(f, 0644);
    std::vector<std::uint8_t> data(2048, 0x66);
    (void)v.write(*fd, 0, data);
    (void)v.close(*fd);
    if (i % 2 == 1) (void)v.unlink("/pool/f" + std::to_string(i - 1));
    bed.settle(sim::milliseconds(120));  // ~3.3 ops/s arrival rate
  }
  bed.settle(sim::seconds(40));
  return static_cast<double>(bed.snapshot().messages) / kOps;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace netstore;
  const bench::Options opts = bench::parse_args(argc, argv);
  bench::print_header("Ablations: the mechanisms behind the paper's results",
                      "design-choice sensitivity (no direct paper table)");
  obs::Report report("bench_ablation", "design-choice sensitivity");
  obs::ReportTable& abl = report.table(
      "ablation", {"knob", "setting", "metric", "value"});

  std::printf("\n[1] ext3 journal commit interval vs iSCSI meta-data "
              "messages/op\n    (update aggregation: longer window = more "
              "batching, more loss risk)\n");
  std::printf("%-14s %14s\n", "interval (s)", "msgs/op");
  for (int secs : {1, 2, 5, 15, 30}) {
    core::SystemConfig cfg;
    cfg.commit_interval = sim::seconds(secs);
    const double per_op = postmark_like_msgs_per_op(cfg);
    std::printf("%-14d %14.2f\n", secs, per_op);
    abl.row({"commit_interval", secs, "msgs_per_op", per_op});
  }

  std::printf("\n[2] NFS async write pool slots vs 32 MB sequential write "
              "time\n    (the bounded pool that degenerates to "
              "write-through — Table 4/Fig 6)\n");
  std::printf("%-14s %14s %14s\n", "slots", "LAN time (s)",
              "WAN-30ms (s)");
  for (std::uint32_t slots : {1u, 4u, 16u, 64u, 256u}) {
    double times[2];
    for (int wan = 0; wan < 2; ++wan) {
      core::SystemConfig cfg;
      cfg.nfs_write_pool_slots = slots;
      core::Testbed bed(core::Protocol::kNfsV3, cfg);
      if (wan) bed.set_injected_rtt(sim::milliseconds(30));
      workloads::LargeIoConfig io;
      io.file_mb = 32;
      times[wan] = run_large_write(bed, io).seconds;
    }
    std::printf("%-14u %14.2f %14.2f\n", slots, times[0], times[1]);
    abl.row({"write_pool_slots", static_cast<std::uint64_t>(slots),
             "lan_write_s", times[0]});
    abl.row({"write_pool_slots", static_cast<std::uint64_t>(slots),
             "wan30ms_write_s", times[1]});
  }

  std::printf("\n[3] client read-ahead window vs 32 MB sequential read time "
              "(iSCSI)\n");
  std::printf("%-14s %14s\n", "window (pages)", "time (s)");
  for (std::uint32_t window : {0u, 2u, 8u, 32u}) {
    core::SystemConfig cfg;
    cfg.fs_readahead_max = window;
    core::Testbed bed(core::Protocol::kIscsi, cfg);
    workloads::LargeIoConfig io;
    io.file_mb = 32;
    const auto r = run_large_read(bed, io);
    std::printf("%-14u %14.2f\n", window, r.seconds);
    abl.row({"readahead_pages", static_cast<std::uint64_t>(window),
             "seq_read_s", r.seconds});
  }

  std::printf("\n[4] NFS attribute timeout vs warm stat messages\n    "
              "(3 s is Linux's default meta-data window — §2.3)\n");
  std::printf("%-14s %14s\n", "timeout (s)", "msgs / 100 stats");
  for (int secs : {1, 3, 10, 30}) {
    sim::Env env;
    block::Raid5Config rcfg;
    rcfg.disk.block_count = 65536;
    block::Raid5Array raid(rcfg);
    block::LocalBlockDevice disk(env, raid);
    fs::Ext3Fs::mkfs(disk, {});
    fs::Ext3Fs fsx(env, disk, fs::Ext3Params{});
    fsx.mount();
    nfs::NfsServer server(env, fsx, nfs::ServerConfig{});
    net::Link link(env, net::LinkConfig{});
    rpc::RpcTransport rpc(env, link, rpc::RpcConfig{});
    nfs::ClientConfig ccfg;
    ccfg.attr_timeout = sim::seconds(secs);
    nfs::NfsClient client(env, rpc, server, ccfg);
    client.mount();
    (void)client.creat("/f", 0644);
    (void)client.stat("/f");
    rpc.reset_stats();
    for (int i = 0; i < 100; ++i) {
      env.advance(sim::seconds(2));  // stats arrive every 2 s
      (void)client.stat("/f");
    }
    std::printf("%-14d %14llu\n", secs,
                static_cast<unsigned long long>(rpc.stats().calls.value()));
    abl.row({"attr_timeout_s", secs, "msgs_per_100_stats",
             rpc.stats().calls.value()});
  }
  return bench::finish(opts, report);
}
