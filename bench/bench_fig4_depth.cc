// Figure 4: effect of directory depth on network message overhead.
//
// mkdir / chdir / readdir at depths 0..16, cold and warm cache, for
// NFS v2/v3 (one extra LOOKUP per level), NFS v4 (LOOKUP + ACCESS per
// level) and iSCSI (directory inode + directory block per level).
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "workloads/microbench.h"

int main(int argc, char** argv) {
  using namespace netstore;
  const bench::Options opts = bench::parse_args(argc, argv);
  bench::print_header("Figure 4: directory-depth sensitivity",
                      "Radkov et al., FAST'04, Figure 4 (a)-(c)");
  obs::Report report("bench_fig4_depth",
                     "Radkov et al., FAST'04, Figure 4");
  obs::ReportTable& fig = report.table(
      "fig4", {"op", "depth", "cache", "nfsv3", "nfsv4", "iscsi"});

  const std::vector<std::string> ops = {"mkdir", "chdir", "readdir"};
  const std::vector<int> depths = {0, 2, 4, 6, 8, 10, 12, 14, 16};

  for (const std::string& op : ops) {
    std::printf("\n[%s]\n", op.c_str());
    std::printf("%-6s | %8s %8s %8s %8s | %8s %8s %8s %8s\n", "depth",
                "v2/3", "v4", "iSCSI", "", "v2/3", "v4", "iSCSI", "");
    std::printf("%-6s | %35s | %35s\n", "", "cold", "warm (1s spacing)");
    std::printf("-------+------------------------------------+---------------"
                "---------------------\n");
    for (int d : depths) {
      std::uint64_t cold[3];
      std::uint64_t warm[3];
      const core::Protocol protos[3] = {core::Protocol::kNfsV3,
                                        core::Protocol::kNfsV4,
                                        core::Protocol::kIscsi};
      for (int p = 0; p < 3; ++p) {
        auto bed = bench::quiesced_world(protos[p]);
        workloads::Microbench mb(*bed);
        cold[p] = mb.cold_op(op, d);
      }
      for (int p = 0; p < 3; ++p) {
        auto bed = bench::quiesced_world(protos[p]);
        workloads::Microbench mb(*bed);
        warm[p] = mb.warm_op(op, d, sim::seconds(1));
      }
      std::printf("%-6d | %8llu %8llu %8llu %8s | %8llu %8llu %8llu %8s\n", d,
                  static_cast<unsigned long long>(cold[0]),
                  static_cast<unsigned long long>(cold[1]),
                  static_cast<unsigned long long>(cold[2]), "",
                  static_cast<unsigned long long>(warm[0]),
                  static_cast<unsigned long long>(warm[1]),
                  static_cast<unsigned long long>(warm[2]), "");
      fig.row({op, d, "cold", cold[0], cold[1], cold[2]});
      fig.row({op, d, "warm", warm[0], warm[1], warm[2]});
    }
  }
  std::printf(
      "\nPaper: cold slopes ~1/level (v2/3), ~2/level (v4, iSCSI); warm\n"
      "counts flat in depth for iSCSI and v4, flat/small for v2/3.\n");
  return bench::finish(opts, report);
}
