// Table 4: sequential and random reads and writes of a 128 MB file in
// 4 KB chunks — completion times, message counts, bytes transferred.
#include <cstdio>

#include "bench_common.h"
#include "workloads/large_io.h"

int main(int argc, char** argv) {
  using namespace netstore;
  const bench::Options opts = bench::parse_args(argc, argv);
  bench::print_header("Table 4: 128 MB sequential/random reads and writes",
                      "Radkov et al., FAST'04, Table 4 (paper values in "
                      "parentheses)");
  obs::Report report("bench_table4_seqrand",
                     "Radkov et al., FAST'04, Table 4");
  obs::ReportTable& t4 = report.table(
      "table4", {"workload", "protocol", "seconds", "messages", "mb_on_wire",
                 "mean_write_kb"});

  struct Row {
    const char* name;
    bool write;
    bool random;
    // paper: {nfs_s, iscsi_s, nfs_msgs, iscsi_msgs, nfs_mb, iscsi_mb}
    double paper[6];
  };
  const Row rows[] = {
      {"Sequential reads", false, false, {35, 35, 33362, 32790, 153, 148}},
      {"Random reads", false, true, {64, 55, 32860, 32827, 153, 148}},
      {"Sequential writes", true, false, {17, 2, 32990, 1135, 151, 143}},
      {"Random writes", true, true, {21, 5, 33015, 1150, 151, 143}},
  };

  std::printf("%-18s | %18s | %22s | %20s\n", "", "time (s)", "messages",
              "MB on wire");
  std::printf("%-18s | %8s %9s | %10s %11s | %9s %10s\n", "workload", "NFSv3",
              "iSCSI", "NFSv3", "iSCSI", "NFSv3", "iSCSI");
  std::printf("-------------------+--------------------+-------------------"
              "-----+---------------------\n");

  for (const Row& row : rows) {
    workloads::LargeIoConfig cfg;
    cfg.random = row.random;

    auto nfs_bed = bench::quiesced_world(core::Protocol::kNfsV3);
    auto iscsi_bed = bench::quiesced_world(core::Protocol::kIscsi);
    core::Testbed& nfs = *nfs_bed;
    core::Testbed& iscsi = *iscsi_bed;
    const workloads::LargeIoResult rn =
        row.write ? run_large_write(nfs, cfg) : run_large_read(nfs, cfg);
    const workloads::LargeIoResult ri =
        row.write ? run_large_write(iscsi, cfg) : run_large_read(iscsi, cfg);

    std::printf(
        "%-18s | %4.0f(%3.0f) %4.0f(%3.0f) | %6llu(%5.0f) %6llu(%5.0f) | "
        "%4.0f(%3.0f) %5.0f(%3.0f)\n",
        row.name, rn.seconds, row.paper[0], ri.seconds, row.paper[1],
        static_cast<unsigned long long>(rn.messages), row.paper[2],
        static_cast<unsigned long long>(ri.messages), row.paper[3],
        static_cast<double>(rn.bytes) / 1e6, row.paper[4],
        static_cast<double>(ri.bytes) / 1e6, row.paper[5]);
    if (row.write && ri.mean_write_kb > 0) {
      std::printf("%-18s   mean iSCSI write request: %.0f KB (paper: 128 KB;"
                  " NFS: 4.7 KB)\n",
                  "", ri.mean_write_kb);
    }

    t4.row({row.name, "nfsv3", rn.seconds, rn.messages,
            static_cast<double>(rn.bytes) / 1e6, rn.mean_write_kb});
    t4.row({row.name, "iscsi", ri.seconds, ri.messages,
            static_cast<double>(ri.bytes) / 1e6, ri.mean_write_kb});
    // Per-request latency breakdown (network/protocol/cpu/cache/media) for
    // the measured phase of each run; reset_counters() inside the workload
    // cleared pre-measurement spans.
    report.add_trace_summary(std::string(row.name) + " | nfsv3",
                             nfs.tracer());
    report.add_trace_summary(std::string(row.name) + " | iscsi",
                             iscsi.tracer());
    report.add_snapshot(std::string(row.name) + " | nfsv3",
                        nfs.metrics().snapshot());
    report.add_snapshot(std::string(row.name) + " | iscsi",
                        iscsi.metrics().snapshot());
  }
  std::printf("\nmeasured (paper)\n");
  return bench::finish(opts, report);
}
