// Spans, content, and the per-layer ledger of perfbench (see bench.h).
#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "bench.h"
#include "core/buffer_pool.h"
#include "sim/rng.h"

namespace perfbench {

namespace fs = netstore::fs;
namespace net = netstore::net;

const char* kind_name(Kind k) {
  static constexpr std::array<const char*, kKinds> kNames = {
      "bench.setup",      "bench.txn",       "bench.step",
      "bench.drain",      "bench.fleet",     "bench.check",
      "core.build",       "core.populate",   "core.settle",
      "core.cold_caches", "core.fleet.setup", "core.fleet.run",
      "vfs.creat",        "vfs.open",        "vfs.read",
      "vfs.write",        "vfs.close",       "vfs.unlink",
      "vfs.fsync",
  };
  return kNames[static_cast<std::size_t>(k)];
}

// --- spans -----------------------------------------------------------------

void Spans::open(Kind k) {
  const std::uint32_t parent = stack_.empty() ? kNone : stack_.back();
  const std::uint32_t request =
      parent == kNone ? ++requests_ : recs_[parent].request;
  stack_.push_back(static_cast<std::uint32_t>(recs_.size()));
  recs_.push_back(Record{k, parent, request, host_ns(), 0, 0, 0, 0});
}

void Spans::close() {
  Record& r = recs_[stack_.back()];
  stack_.pop_back();
  r.end_ns = host_ns();
  if (r.parent != kNone) recs_[r.parent].child_ns += r.end_ns - r.start_ns;
}

void Spans::note_counters(std::uint64_t link_messages,
                          std::uint64_t disk_requests) {
  Record& r = recs_[stack_.back()];
  r.link_messages = link_messages;
  r.disk_requests = disk_requests;
}

namespace {

std::uint64_t link_messages(core::Testbed& bed) {
  return bed.link().stats(net::Direction::kClientToServer).messages.value() +
         bed.link().stats(net::Direction::kServerToClient).messages.value();
}

std::uint64_t disk_requests(core::Testbed& bed) {
  std::uint64_t n = 0;
  for (std::uint32_t i = 0; i < bed.raid().config().num_disks; ++i) {
    n += bed.raid().disk(i).requests_serviced();
  }
  return n;
}

}  // namespace

RequestSpan::RequestSpan(Spans& s, Kind k, core::Testbed& bed)
    : span_(s, k), spans_(s), bed_(bed) {
  if (!s.on()) return;
  msgs_ = link_messages(bed);
  disk_ = disk_requests(bed);
}

RequestSpan::~RequestSpan() {
  if (!spans_.on()) return;
  spans_.note_counters(link_messages(bed_) - msgs_,
                       disk_requests(bed_) - disk_);
}

// --- content ---------------------------------------------------------------

Content::Content(std::uint64_t seed) : seed_(seed), buf_(2 * kPeriod) {
  std::uint64_t x = sim::mix64(seed ^ 0x636f6e74656e7473ull);
  for (std::size_t i = 0; i < kPeriod; i += 8) {
    x = sim::mix64(x + 0x9e3779b97f4a7c15ull);
    std::memcpy(buf_.data() + i, &x, std::min<std::size_t>(8, kPeriod - i));
  }
  std::memcpy(buf_.data() + kPeriod, buf_.data(), kPeriod);
}

std::span<const std::uint8_t> Content::expect(std::uint64_t key,
                                              std::uint64_t off,
                                              std::size_t n) const {
  if (n > kPeriod) throw std::invalid_argument("content window too large");
  const std::uint64_t start = sim::mix64(seed_ ^ sim::mix64(key)) % kPeriod;
  return {buf_.data() + (start + off) % kPeriod, n};
}

bool Content::matches(std::uint64_t key, std::uint64_t off,
                      std::span<const std::uint8_t> got) {
  const std::span<const std::uint8_t> want = expect(key, off, got.size());
  if (++checks_ == corrupt_at_ && !want.empty()) {
    std::vector<std::uint8_t> bad(want.begin(), want.end());
    bad[bad.size() / 2] ^= 0x5a;
    return std::memcmp(bad.data(), got.data(), got.size()) == 0;
  }
  return std::memcmp(want.data(), got.data(), got.size()) == 0;
}

// --- ledger ----------------------------------------------------------------

namespace {

// Registry counters the ledger follows; a key a testbed lacks reads 0.
constexpr const char* kRegistryCounters[] = {
    "sim.timer.scheduled",
    "sim.timer.fired",
    "sim.timer.cascades",
    "link.c2s.messages",
    "link.c2s.bytes",
    "link.s2c.messages",
    "link.s2c.bytes",
    "iscsi.initiator.exchanges",
    "iscsi.initiator.write_commands",
    "iscsi.initiator.write_bytes",
    "iscsi.target.cache.hits",
    "iscsi.target.cache.misses",
    "rpc.calls",
    "rpc.retransmissions",
    "nfs.client.lookups",
    "nfs.client.revalidations",
    "nfs.server.requests",
    "fleet.forced_revalidations",
    "fleet.ops",
    "fleet.shared_ops",
};

constexpr const char* kComponents[] = {"network", "cpu", "media", "protocol",
                                       "cache"};

// The file system whose caches serve the workload: the server's on NFS,
// the client's on iSCSI.
fs::Ext3Fs& serving_fs(core::Testbed& bed) {
  return bed.is_nfs() ? bed.server_fs() : bed.client_fs();
}

Values read_counters(core::Testbed& bed) {
  Values v;
  const netstore::obs::MetricsRegistry& reg = bed.metrics();
  for (const char* key : kRegistryCounters) {
    v[key] = reg.contains(key)
                 ? static_cast<double>(bed.metrics().counter(key).value())
                 : 0.0;
  }
  fs::Ext3Fs& f = serving_fs(bed);
  const fs::PageCacheStats& ps = f.pages().stats();
  v["fs.pages.hits"] = static_cast<double>(ps.hits.value());
  v["fs.pages.misses"] = static_cast<double>(ps.misses.value());
  v["fs.pages.writeback_pages"] = static_cast<double>(ps.writeback_pages.value());
  v["fs.pages.readahead_pages"] = static_cast<double>(ps.readahead_pages.value());
  v["fs.bcache.hits"] = static_cast<double>(f.bcache().hits().value());
  v["fs.bcache.misses"] = static_cast<double>(f.bcache().misses().value());
  const fs::JournalStats& js = f.journal().stats();
  v["fs.journal.commits"] = static_cast<double>(js.commits.value());
  v["fs.journal.blocks_logged"] = static_cast<double>(js.blocks_logged.value());
  v["fs.journal.checkpoint_writes"] =
      static_cast<double>(js.checkpoint_writes.value());
  v["block.disk.requests"] = static_cast<double>(disk_requests(bed));
  const netstore::core::BufferPool& pool =
      netstore::core::BufferPool::instance();
  v["pool.copies"] = static_cast<double>(pool.copies());
  v["pool.bytes_copied"] = static_cast<double>(pool.bytes_copied());
  v["pool.unshare_ops"] = static_cast<double>(pool.unshare_ops());
  v["pool.alloc_fallbacks"] = static_cast<double>(pool.alloc_fallbacks());
  v["sim.virt_s"] = sim::to_seconds(bed.env().now());
  return v;
}

}  // namespace

void Ledger::begin(core::Testbed& bed) { before_ = read_counters(bed); }

void Ledger::end(core::Testbed& bed) {
  for (const auto& [key, after] : read_counters(bed)) {
    totals_[key] += after - before_[key];
  }
}

void Ledger::finish(core::Testbed& bed) {
  fs::Ext3Fs& f = serving_fs(bed);
  totals_["fs.pages.resident"] += static_cast<double>(f.pages().resident_pages());
  totals_["fs.pages.dirty"] += static_cast<double>(f.pages().dirty_pages());
  totals_["pool.slabs"] =
      static_cast<double>(netstore::core::BufferPool::instance().slabs());
  // Simulated per-syscall latency from the testbed's tracer: component
  // sums pooled over testbeds (turned into means by the workload), and
  // the percentiles of the last testbed (used where the benchmark does not
  // issue the system calls itself).
  netstore::obs::MetricsRegistry& reg = bed.metrics();
  if (!reg.contains("trace.total_us")) return;
  const sim::Sampler::Summary total = reg.sampler("trace.total_us").summary();
  totals_["x.trace.syscalls"] += static_cast<double>(total.count);
  totals_["x.trace.total_us.p50"] = total.p50;
  totals_["x.trace.total_us.p99"] = total.p99;
  for (const char* c : kComponents) {
    const std::string key = std::string("trace.component.") + c + "_us";
    if (!reg.contains(key)) continue;
    const sim::Sampler::Summary s = reg.sampler(key).summary();
    totals_["x." + key + ".sum"] += s.mean * static_cast<double>(s.count);
  }
}

const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> n;
    for (const char* op :
         {"creat", "open", "read", "write", "close", "unlink", "fsync"}) {
      for (const char* m : {"calls", "host_s", "host_us_p50", "host_us_p99"}) {
        n.push_back(std::string("vfs.") + op + "." + m);
      }
    }
    for (const char* m :
         {"core.build_s", "core.populate_s", "core.settle_s",
          "core.cold_caches_s", "core.fleet.setup_s", "core.fleet.run_s",
          "core.host_us_per_op",
          "fs.pages.hits", "fs.pages.misses", "fs.pages.writeback_pages",
          "fs.pages.readahead_pages", "fs.pages.resident", "fs.pages.dirty",
          "fs.bcache.hits", "fs.bcache.misses", "fs.journal.commits",
          "fs.journal.blocks_logged", "fs.journal.checkpoint_writes",
          "block.disk.requests", "pool.copies", "pool.bytes_copied",
          "pool.unshare_ops", "pool.alloc_fallbacks", "pool.slabs",
          "iscsi.initiator.exchanges", "iscsi.initiator.write_commands",
          "iscsi.initiator.write_bytes", "iscsi.target.cache.hits",
          "iscsi.target.cache.misses", "nfs.client.lookups",
          "nfs.client.revalidations", "nfs.server.requests",
          "fleet.forced_revalidations", "rpc.calls", "rpc.retransmissions",
          "link.c2s.messages", "link.c2s.bytes", "link.s2c.messages",
          "link.s2c.bytes", "sim.timer.scheduled", "sim.timer.fired",
          "sim.timer.cascades", "sim.virt_s", "sim.host_ns_per_event",
          "trace.total_us.p50", "trace.total_us.p99"}) {
      n.emplace_back(m);
    }
    for (const char* c : kComponents) {
      n.push_back(std::string("trace.component.") + c + "_us");
    }
    n.emplace_back("obs.trace_overhead");
    n.emplace_back("bench.self_s");
    return n;
  }();
  return kNames;
}

std::uint64_t digest(const Values& layer) {
  // Simulated quantities only.  Host-side implementation counters (the
  // timer engine's sim.timer.*, the buffer pool's pool.*) are left out so
  // that a change to the simulator's machinery alone keeps the digest.
  static constexpr const char* kPrefixes[] = {
      "fs.",    "block.", "iscsi.", "nfs.",   "fleet.",  "rpc.",
      "link.",  "trace.", "sim.virt_s",       "sim.setup_virt_s",
      "bench.ops",       "x.trace.",
  };
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const char* s, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(s[i]);
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& [key, value] : layer) {
    const bool simulated =
        std::any_of(std::begin(kPrefixes), std::end(kPrefixes),
                    [&key](const char* p) { return key.rfind(p, 0) == 0; }) ||
        (key.rfind("vfs.", 0) == 0 && key.size() > 6 &&
         key.compare(key.size() - 6, 6, ".calls") == 0);
    if (!simulated) continue;
    char line[160];
    const int n =
        std::snprintf(line, sizeof line, "%s=%.17g\n", key.c_str(), value);
    mix(line, static_cast<std::size_t>(n));
  }
  return h;
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

void add_span_totals(const Spans& spans, Values& layer) {
  std::array<std::int64_t, kKinds> incl{};
  std::array<std::int64_t, kKinds> self{};
  std::array<std::vector<double>, kKinds> call_us;
  const std::vector<Spans::Record>& recs = spans.records();
  std::vector<Kind> root(recs.size());  // parents precede their children
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Spans::Record& r = recs[i];
    root[i] = r.parent == Spans::kNone ? r.kind : root[r.parent];
    // System calls count toward vfs.* in the measured phase only; the
    // set-up's calls are part of core.populate.
    if (r.kind >= kFirstVfs && root[i] == Kind::kSetup) continue;
    const auto k = static_cast<std::size_t>(r.kind);
    const std::int64_t d = r.end_ns - r.start_ns;
    incl[k] += d;
    self[k] += d - r.child_ns;
    if (r.kind >= kFirstVfs) call_us[k].push_back(static_cast<double>(d) / 1e3);
  }
  for (std::size_t k = 0; k < kKinds; ++k) {
    const std::string name = kind_name(static_cast<Kind>(k));
    layer["span." + name + ".self_s"] = static_cast<double>(self[k]) / 1e9;
    if (static_cast<Kind>(k) >= kFirstVfs) {
      layer[name + ".host_s"] = static_cast<double>(incl[k]) / 1e9;
      layer[name + ".host_us_p50"] = percentile(call_us[k], 50);
      layer[name + ".host_us_p99"] = percentile(call_us[k], 99);
    } else if (name.rfind("core.", 0) == 0) {
      layer[name + "_s"] = static_cast<double>(incl[k]) / 1e9;
    }
  }
  std::int64_t bench_self = 0;
  for (Kind k :
       {Kind::kTxn, Kind::kStep, Kind::kDrain, Kind::kFleet, Kind::kCheck}) {
    bench_self += self[static_cast<std::size_t>(k)];
  }
  layer["bench.self_s"] = static_cast<double>(bench_self) / 1e9;
}

bool write_trace(const Spans& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Spans::Record>& recs = spans.records();
  const std::int64_t t0 = recs.empty() ? 0 : recs.front().start_ns;
  std::fprintf(f,
               "span,parent,request,kind,start_ns,end_ns,self_ns,"
               "link_messages,disk_requests\n");
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Spans::Record& r = recs[i];
    std::fprintf(f, "%zu,%lld,%u,%s,%lld,%lld,%lld,%" PRIu64 ",%" PRIu64 "\n",
                 i, r.parent == Spans::kNone ? -1LL : static_cast<long long>(r.parent),
                 r.request, kind_name(r.kind),
                 static_cast<long long>(r.start_ns - t0),
                 static_cast<long long>(r.end_ns - t0),
                 static_cast<long long>(r.end_ns - r.start_ns - r.child_ns),
                 r.link_messages, r.disk_requests);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
