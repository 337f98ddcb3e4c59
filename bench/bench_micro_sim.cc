// google-benchmark micro-benchmarks of the simulator itself: throughput of
// the hot paths (FS operations over each protocol stack, RAID-5 writes,
// journal commits).  These guard against performance regressions in the
// simulation — they do not reproduce a paper table.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "block/mem_device.h"
#include "block/raid5.h"
#include "core/buffer_pool.h"
#include "core/testbed.h"
#include "fs/ext3.h"

namespace {

using namespace netstore;

void BM_Ext3CreateWriteUnlink(benchmark::State& state) {
  sim::Env env;
  block::MemBlockDevice dev(1 << 20);
  fs::Ext3Fs::mkfs(dev, {});
  fs::Ext3Fs fsys(env, dev, {});
  fsys.mount();
  std::vector<std::uint8_t> data(8192, 0xAA);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::string name = "f" + std::to_string(i++);
    auto ino = fsys.create(fs::kRootIno, name, 0644);
    benchmark::DoNotOptimize(ino);
    (void)fsys.write(*ino, 0, data);
    (void)fsys.unlink(fs::kRootIno, name);
  }
}
BENCHMARK(BM_Ext3CreateWriteUnlink);

void BM_TestbedMetaOp(benchmark::State& state) {
  const auto proto = static_cast<core::Protocol>(state.range(0));
  core::Testbed bed(proto);
  std::uint64_t i = 0;
  // mkdir/rmdir pairs: the working set stays bounded no matter how many
  // iterations the harness picks (an unbounded mkdir stream eventually
  // exhausts the simulated volume and trips the RAID LBA-bounds CHECK).
  for (auto _ : state) {
    const std::string name = "/d" + std::to_string(i++);
    (void)bed.vfs().mkdir(name, 0755);
    (void)bed.vfs().rmdir(name);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * i));
}
BENCHMARK(BM_TestbedMetaOp)
    ->Arg(static_cast<int>(core::Protocol::kNfsV3))
    ->Arg(static_cast<int>(core::Protocol::kIscsi));

void BM_Raid5SmallWrite(benchmark::State& state) {
  block::Raid5Config cfg;
  cfg.disk.block_count = 1 << 18;
  block::Raid5Array raid(cfg);
  core::BufRef blk = core::BufferPool::instance().alloc();
  blk.mutable_block().fill(0x55);
  sim::Time t = 0;
  std::uint64_t lba = 0;
  for (auto _ : state) {
    t = raid.write(t, (lba * 977) % (raid.block_count() - 1), {&blk, 1});
    lba++;
  }
}
BENCHMARK(BM_Raid5SmallWrite);

}  // namespace

// Same --json/--csv interface as the other bench binaries, mapped onto
// google-benchmark's native reporters (--benchmark_out=<path>).
int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  std::vector<std::string> translated;
  translated.push_back(args[0]);
  for (std::size_t i = 1; i < args.size(); ++i) {
    const bool is_json = args[i] == "--json";
    if (is_json || args[i] == "--csv") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "%s requires a path argument\n", args[i].c_str());
        return 2;
      }
      translated.push_back("--benchmark_out=" + args[++i]);
      translated.push_back(std::string("--benchmark_out_format=") +
                           (is_json ? "json" : "csv"));
    } else {
      translated.push_back(args[i]);
    }
  }
  std::vector<char*> cargv;
  cargv.reserve(translated.size());
  for (std::string& a : translated) cargv.push_back(a.data());
  int cargc = static_cast<int>(cargv.size());
  benchmark::Initialize(&cargc, cargv.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data())) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
