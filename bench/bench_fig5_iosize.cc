// Figure 5: network message overheads of read and write operations of
// varying sizes (128 B .. 64 KB): cold reads, warm reads, cold writes.
// Open/close bracket the measured operation, as in the paper's syscall
// traces.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "workloads/microbench.h"

int main(int argc, char** argv) {
  using namespace netstore;
  const bench::Options opts = bench::parse_args(argc, argv);
  bench::print_header("Figure 5: read/write message overhead vs I/O size",
                      "Radkov et al., FAST'04, Figure 5 (a)-(c)");
  obs::Report report("bench_fig5_iosize",
                     "Radkov et al., FAST'04, Figure 5");
  obs::ReportTable& fig = report.table(
      "fig5", {"mode", "bytes", "nfsv2", "nfsv3", "nfsv4", "iscsi"});

  const std::vector<std::uint32_t> sizes = {128,  256,   512,   1024, 2048,
                                            4096, 8192,  16384, 32768,
                                            65536};

  struct Mode {
    const char* name;
    bool write;
    bool warm;
  };
  const Mode modes[] = {{"cold reads", false, false},
                        {"warm reads", false, true},
                        {"cold writes", true, false}};

  for (const Mode& m : modes) {
    std::printf("\n[%s]\n", m.name);
    std::printf("%-8s | %8s %8s %8s %8s\n", "bytes", "v2", "v3", "v4",
                "iSCSI");
    std::printf("---------+------------------------------------\n");
    for (std::uint32_t size : sizes) {
      std::printf("%-8u |", size);
      std::vector<obs::Cell> row = {m.name,
                                    static_cast<std::uint64_t>(size)};
      for (core::Protocol p : bench::paper_protocols()) {
        auto bed = bench::quiesced_world(p);
        workloads::Microbench mb(*bed);
        const std::uint64_t msgs = mb.io_op(m.write, size, m.warm);
        std::printf(" %8llu", static_cast<unsigned long long>(msgs));
        row.emplace_back(msgs);
      }
      std::printf("\n");
      fig.row(std::move(row));
    }
  }
  std::printf(
      "\nPaper: cold reads — NFS lower for small sizes, exceeds iSCSI past\n"
      "8 KB (v2/v3 transfer limit); v4 uses larger transfers.  Warm reads —\n"
      "NFS pays only consistency checks, iSCSI only the atime update.\n"
      "Cold writes — iSCSI flat (journal aggregation), v2 grows past 8 KB.\n");
  return bench::finish(opts, report);
}
