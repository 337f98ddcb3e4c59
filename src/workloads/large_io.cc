#include "workloads/large_io.h"

#include <stdexcept>
#include <vector>

namespace netstore::workloads {

namespace {

std::vector<std::uint64_t> chunk_order(const LargeIoConfig& cfg) {
  const std::uint64_t chunks = cfg.file_mb * 1024 * 1024 / cfg.chunk;
  if (!cfg.random) {
    std::vector<std::uint64_t> order(chunks);
    for (std::uint64_t i = 0; i < chunks; ++i) order[i] = i;
    return order;
  }
  sim::Rng rng(cfg.seed);
  return rng.permutation(chunks);
}

}  // namespace

LargeIoResult run_large_read(core::Testbed& bed, const LargeIoConfig& cfg) {
  vfs::Vfs& v = bed.vfs();
  const std::string path = "/bigfile";

  // Materialize the file (not measured).
  auto fd = v.creat(path, 0644);
  if (!fd) throw std::runtime_error("creat failed");
  std::vector<std::uint8_t> blk(256 * 1024);
  for (std::size_t i = 0; i < blk.size(); ++i) {
    blk[i] = static_cast<std::uint8_t>(i);
  }
  const std::uint64_t total = cfg.file_mb * 1024 * 1024;
  for (std::uint64_t off = 0; off < total; off += blk.size()) {
    if (!v.write(*fd, off, blk)) throw std::runtime_error("fill failed");
  }
  (void)v.fsync(*fd);
  (void)v.close(*fd);
  bed.settle(sim::seconds(40));  // age out every dirty page
  bed.cold_caches();

  const std::vector<std::uint64_t> order = chunk_order(cfg);
  bed.reset_counters();
  const sim::Time t0 = bed.env().now();

  auto rfd = v.open(path);
  if (!rfd) throw std::runtime_error("open failed");
  std::vector<std::uint8_t> sink(cfg.chunk);
  for (std::uint64_t c : order) {
    auto got = v.read(*rfd, c * cfg.chunk, sink);
    if (!got || *got != cfg.chunk) throw std::runtime_error("read failed");
  }
  (void)v.close(*rfd);

  const core::StatsSnapshot snap = bed.snapshot();
  LargeIoResult res;
  res.seconds = sim::to_seconds(bed.env().now() - t0);
  res.messages = snap.messages;
  res.bytes = snap.bytes;
  res.retransmissions = snap.retransmissions;
  return res;
}

LargeIoResult run_large_write(core::Testbed& bed, const LargeIoConfig& cfg) {
  vfs::Vfs& v = bed.vfs();
  // Uniquify the file name per run from the testbed's own clock (strictly
  // ahead of any previous run's creation time on this bed).  A process-wide
  // counter here would leak state across testbeds — two worlds built from
  // one config must create identical names (process-state lint).
  const std::string path = "/wfile" + std::to_string(bed.env().now());

  bed.settle(sim::seconds(40));
  bed.cold_caches();

  const std::vector<std::uint64_t> order = chunk_order(cfg);
  bed.reset_counters();
  const sim::Time t0 = bed.env().now();

  auto fd = v.creat(path, 0644);
  if (!fd) throw std::runtime_error("creat failed");
  std::vector<std::uint8_t> data(cfg.chunk, 0x42);
  std::uint64_t iscsi_cmds_before = 0;
  for (std::uint64_t c : order) {
    if (!v.write(*fd, c * cfg.chunk, data)) {
      throw std::runtime_error("write failed");
    }
  }
  (void)iscsi_cmds_before;
  (void)v.fsync(*fd);
  (void)v.close(*fd);

  const core::StatsSnapshot snap = bed.snapshot();
  LargeIoResult res;
  res.seconds = sim::to_seconds(bed.env().now() - t0);
  res.messages = snap.messages;
  res.bytes = snap.bytes;
  res.retransmissions = snap.retransmissions;
  if (!bed.is_nfs()) {
    const auto cmds = bed.initiator().write_commands();
    if (cmds > 0) {
      res.mean_write_kb = static_cast<double>(bed.initiator().write_bytes()) /
                          1024.0 / static_cast<double>(cmds);
    }
  }
  return res;
}

}  // namespace netstore::workloads
