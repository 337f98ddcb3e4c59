// Figure 3: benefit of meta-data update aggregation and caching in iSCSI.
//
// For eight operations, issue batches of 1..1024 consecutive calls
// starting from a cold cache and report the amortized network message
// overhead per operation.  The decay with batch size is the update
// aggregation the paper identifies as iSCSI's key advantage.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "workloads/microbench.h"

int main(int argc, char** argv) {
  using namespace netstore;
  const bench::Options opts = bench::parse_args(argc, argv);
  bench::print_header(
      "Figure 3: iSCSI meta-data update aggregation (amortized msgs/op)",
      "Radkov et al., FAST'04, Figure 3");
  obs::Report report("bench_fig3_batching",
                     "Radkov et al., FAST'04, Figure 3");
  obs::ReportTable& fig =
      report.table("fig3", {"batch", "op", "msgs_per_op"});

  const std::vector<std::string> ops = {"create", "link",   "rename",
                                        "chmod",  "stat",   "access",
                                        "mkdir",  "write"};
  const std::vector<std::uint32_t> batches = {1, 2, 4, 8, 16, 32, 64, 128,
                                              256, 512, 1024};

  std::printf("%-8s", "batch");
  for (const auto& op : ops) std::printf(" %8s", op.c_str());
  std::printf("\n");
  for (std::uint32_t n : batches) {
    std::printf("%-8u", n);
    for (const auto& op : ops) {
      auto bed = bench::quiesced_world(core::Protocol::kIscsi);
      workloads::Microbench mb(*bed);
      const double per_op = mb.batch_op(op, n);
      std::printf(" %8.3f", per_op);
      fig.row({static_cast<std::uint64_t>(n), op, per_op});
    }
    std::printf("\n");
  }
  std::printf(
      "\nPaper: all curves decay from ~6-7 msgs/op at batch=1 towards ~0-1\n"
      "at batch=1024; read-only ops (stat/access) decay as 1/N once the\n"
      "cache is warm, update ops via journal aggregation.\n");
  return bench::finish(opts, report);
}
