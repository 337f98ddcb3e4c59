// Figure 6: impact of WAN round-trip latency (NISTNet-style injected
// delay, 10..90 ms) on 128 MB sequential/random read and write times.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "workloads/large_io.h"

int main(int argc, char** argv) {
  using namespace netstore;
  const bench::Options opts = bench::parse_args(argc, argv);
  bench::print_header("Figure 6: effect of network latency",
                      "Radkov et al., FAST'04, Figure 6 (a)-(b)");
  obs::Report report("bench_fig6_latency",
                     "Radkov et al., FAST'04, Figure 6");
  obs::ReportTable& fig = report.table(
      "fig6", {"workload", "rtt_ms", "nfs_seq_s", "nfs_rand_s",
               "iscsi_seq_s", "iscsi_rand_s", "nfs_retransmissions"});

  const std::vector<int> rtts_ms = {10, 30, 50, 70, 90};

  std::printf("[reads]  completion time (s) for 128 MB\n");
  std::printf("%-8s | %12s %12s | %12s %12s | %6s\n", "RTT(ms)", "NFS seq",
              "NFS rand", "iSCSI seq", "iSCSI rand", "retx");
  std::printf("---------+---------------------------+---------------------"
              "------+-------\n");
  for (int rtt : rtts_ms) {
    double vals[4];
    std::uint64_t retx = 0;
    int i = 0;
    for (bool random : {false, true}) {
      for (core::Protocol p :
           {core::Protocol::kNfsV3, core::Protocol::kIscsi}) {
        auto bed = bench::quiesced_world(p);
        bed->set_injected_rtt(sim::milliseconds(rtt));
        workloads::LargeIoConfig cfg;
        cfg.random = random;
        const auto r = run_large_read(*bed, cfg);
        vals[(random ? 1 : 0) + (p == core::Protocol::kIscsi ? 2 : 0)] =
            r.seconds;
        if (p == core::Protocol::kNfsV3) retx += r.retransmissions;
        i++;
      }
    }
    std::printf("%-8d | %12.0f %12.0f | %12.0f %12.0f | %6llu\n", rtt,
                vals[0], vals[1], vals[2], vals[3],
                static_cast<unsigned long long>(retx));
    fig.row({"read", rtt, vals[0], vals[1], vals[2], vals[3], retx});
  }

  std::printf("\n[writes]  completion time (s) for 128 MB\n");
  std::printf("%-8s | %12s %12s | %12s %12s\n", "RTT(ms)", "NFS seq",
              "NFS rand", "iSCSI seq", "iSCSI rand");
  std::printf("---------+---------------------------+---------------------"
              "------\n");
  for (int rtt : rtts_ms) {
    double vals[4];
    for (bool random : {false, true}) {
      for (core::Protocol p :
           {core::Protocol::kNfsV3, core::Protocol::kIscsi}) {
        auto bed = bench::quiesced_world(p);
        bed->set_injected_rtt(sim::milliseconds(rtt));
        workloads::LargeIoConfig cfg;
        cfg.random = random;
        const auto r = run_large_write(*bed, cfg);
        vals[(random ? 1 : 0) + (p == core::Protocol::kIscsi ? 2 : 0)] =
            r.seconds;
      }
    }
    std::printf("%-8d | %12.0f %12.0f | %12.0f %12.0f\n", rtt, vals[0],
                vals[1], vals[2], vals[3]);
    fig.row({"write", rtt, vals[0], vals[1], vals[2], vals[3],
             std::uint64_t{0}});
  }
  std::printf(
      "\nPaper: reads grow with RTT for both, NFS faster-degrading (RPC\n"
      "retransmissions); writes — iSCSI nearly flat (asynchronous), NFS\n"
      "grows with RTT (bounded write pool => pseudo-synchronous).\n");
  return bench::finish(opts, report);
}
