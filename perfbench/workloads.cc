// The four perfbench workloads.  Each repetition builds its testbeds from
// scratch, so every repetition of one seed simulates exactly the same
// thing; main.cc checks that with the digest.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>

#include "bench.h"
#include "core/fleet.h"
#include "sim/rng.h"

namespace perfbench {

namespace {

constexpr std::size_t kVfsOps = kKinds - static_cast<std::size_t>(kFirstVfs);
constexpr std::uint32_t kChunk = 4096;

/// State of one repetition.
struct Run {
  Run(const Params& params, Spans& s)
      : p(params), spans(s), content(params.seed) {
    content.corrupt_check(params.corrupt_at);
  }

  [[nodiscard]] std::uint64_t scaled(std::uint64_t n) const {
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(static_cast<double>(n) *
                                                   p.scale)));
  }
  /// A generator stream for `tag`, derived from the seed.
  [[nodiscard]] sim::Rng rng(std::uint64_t tag) const {
    return sim::Rng(sim::mix64(p.seed ^ sim::mix64(tag)));
  }
  void count(bool ok) {
    rep.attempted++;
    if (!ok) rep.failed++;
  }
  /// Adds a testbed's set-up [t0, t1) and measured phase [t1, t2).
  void add_times(std::int64_t t0, std::int64_t t1, std::int64_t t2) {
    rep.setup_s += static_cast<double>(t1 - t0) / 1e9;
    rep.wall_s += static_cast<double>(t2 - t1) / 1e9;
  }

  const Params& p;
  Spans& spans;
  Content content;
  Ledger ledger;
  Rep rep;
  // The measured phase's system calls: simulated latency (µs) of each,
  // and how many of each kind.
  bool measuring = false;
  std::vector<double> sim_us;
  std::array<std::uint64_t, kVfsOps> calls{};
};

/// The benchmark's system calls.  Each is one vfs.* span, counts toward
/// vfs.<op>.calls and records its simulated latency.  Reads are checked
/// byte for byte outside the span, so the check is the benchmark's own
/// time.
class Calls {
 public:
  Calls(core::Testbed& bed, Run& run) : bed_(bed), run_(run) {}

  std::optional<vfs::Fd> creat(const std::string& path) {
    auto fd = call(Kind::kCreat, [&] { return bed_.vfs().creat(path, 0644); });
    return fd ? std::optional<vfs::Fd>(*fd) : std::nullopt;
  }
  std::optional<vfs::Fd> open(const std::string& path) {
    auto fd = call(Kind::kOpen, [&] { return bed_.vfs().open(path); });
    return fd ? std::optional<vfs::Fd>(*fd) : std::nullopt;
  }
  bool close(vfs::Fd fd) {
    return call(Kind::kClose, [&] { return bed_.vfs().close(fd); }).ok();
  }
  bool unlink(const std::string& path) {
    return call(Kind::kUnlink, [&] { return bed_.vfs().unlink(path); }).ok();
  }
  bool fsync(vfs::Fd fd) {
    return call(Kind::kFsync, [&] { return bed_.vfs().fsync(fd); }).ok();
  }
  /// Writes bytes [off, off + n) of file `key`.
  bool write(vfs::Fd fd, std::uint64_t key, std::uint64_t off,
             std::uint32_t n) {
    const std::span<const std::uint8_t> data = run_.content.expect(key, off, n);
    auto got = call(Kind::kWrite, [&] { return bed_.vfs().write(fd, off, data); });
    return got && *got == n;
  }
  /// Reads buf.size() bytes at `off` and checks them against file `key`.
  bool read(vfs::Fd fd, std::uint64_t key, std::uint64_t off,
            std::span<std::uint8_t> buf) {
    auto got = call(Kind::kRead, [&] { return bed_.vfs().read(fd, off, buf); });
    return got && *got == buf.size() && run_.content.matches(key, off, buf);
  }

 private:
  template <typename F>
  auto call(Kind k, F&& f) -> decltype(f()) {
    Span span(run_.spans, k);
    const sim::Time t0 = bed_.env().now();
    auto r = f();
    if (run_.measuring) {
      run_.calls[static_cast<std::size_t>(k) -
                 static_cast<std::size_t>(kFirstVfs)]++;
      run_.sim_us.push_back(static_cast<double>(bed_.env().now() - t0) / 1e3);
    }
    return r;
  }

  core::Testbed& bed_;
  Run& run_;
};

std::unique_ptr<core::Testbed> build(Run& run, core::Protocol proto) {
  Span s(run.spans, Kind::kBuild);
  return std::make_unique<core::Testbed>(proto);
}

void settle(Run& run, core::Testbed& bed, std::int64_t seconds) {
  Span s(run.spans, Kind::kSettle);
  bed.settle(sim::seconds(seconds));
}

/// Closes the set-up of a testbed: starts counting system calls, clears
/// the tracer so its summaries cover the measured phase, and notes the
/// set-up's virtual time.
void start_measuring(Run& run, core::Testbed& bed) {
  run.measuring = true;
  bed.reset_counters();
  run.ledger.values()["sim.setup_virt_s"] += sim::to_seconds(bed.env().now());
}

// --- PostMark --------------------------------------------------------------

/// PostMark (paper §5.1): a pool of small files in one directory, then
/// transactions that are create or delete, read or append, each 25%, with
/// uniform file choice.  One client, closed loop.
class Postmark {
 public:
  Postmark(Run& run, core::Protocol proto, std::uint64_t pool,
           std::uint64_t txns)
      : run_(run), proto_(proto), pool_size_(pool), txns_(txns),
        rng_(run.rng(0x706d)) {}

  void run() {
    const std::int64_t t0 = host_ns();
    std::unique_ptr<core::Testbed> bed;
    {
      Span setup(run_.spans, Kind::kSetup);
      bed = build(run_, proto_);
      Calls calls(*bed, run_);
      {
        Span s(run_.spans, Kind::kPopulate);
        run_.count(bed->vfs().mkdir("/pm", 0755).ok());
        for (std::uint64_t i = 0; i < pool_size_; ++i) {
          run_.count(create(calls));
        }
      }
      settle(run_, *bed, 6);
    }
    start_measuring(run_, *bed);
    run_.ledger.begin(*bed);
    const std::int64_t t1 = host_ns();
    Calls calls(*bed, run_);
    for (std::uint64_t t = 0; t < txns_; ++t) {
      RequestSpan r(run_.spans, Kind::kTxn, *bed);
      run_.count(transaction(calls));
    }
    {
      RequestSpan r(run_.spans, Kind::kDrain, *bed);
      settle(run_, *bed, 12);
    }
    run_.add_times(t0, t1, host_ns());
    run_.ledger.end(*bed);
    run_.ledger.finish(*bed);
    run_.rep.ops += txns_;
  }

 private:
  struct File {
    std::uint64_t id;
    std::uint64_t size;
  };

  static std::string path(std::uint64_t id) {
    return "/pm/f" + std::to_string(id);
  }
  std::uint32_t rand_size() {
    return static_cast<std::uint32_t>(rng_.uniform_range(512, 16 * 1024));
  }

  bool transaction(Calls& calls) {
    const bool create_or_delete = rng_.chance(0.5);
    const bool first = rng_.chance(0.5);
    if (create_or_delete && first) return create(calls);
    if (files_.empty()) return true;
    const std::size_t idx = rng_.uniform(files_.size());
    if (create_or_delete) return remove(calls, idx);
    return first ? read(calls, files_[idx]) : append(calls, files_[idx]);
  }

  bool create(Calls& calls) {
    const File f{next_id_++, rand_size()};
    const std::optional<vfs::Fd> fd = calls.creat(path(f.id));
    if (!fd) return false;
    const bool wrote = calls.write(*fd, f.id, 0, static_cast<std::uint32_t>(f.size));
    const bool ok = calls.close(*fd) && wrote;
    if (ok) files_.push_back(f);
    return ok;
  }

  bool remove(Calls& calls, std::size_t idx) {
    const bool ok = calls.unlink(path(files_[idx].id));
    files_[idx] = files_.back();
    files_.pop_back();
    return ok;
  }

  bool read(Calls& calls, const File& f) {
    const std::optional<vfs::Fd> fd = calls.open(path(f.id));
    if (!fd) return false;
    bool ok = true;
    for (std::uint64_t off = 0; ok && off < f.size; off += kChunk) {
      const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, f.size - off));
      ok = calls.read(*fd, f.id, off, std::span(buf_).first(n));
    }
    return calls.close(*fd) && ok;
  }

  bool append(Calls& calls, File& f) {
    const std::optional<vfs::Fd> fd = calls.open(path(f.id));
    if (!fd) return false;
    const std::uint32_t amount = rand_size() / 2 + 1;
    const bool wrote = calls.write(*fd, f.id, f.size, amount);
    if (wrote) f.size += amount;
    return calls.close(*fd) && wrote;
  }

  Run& run_;
  core::Protocol proto_;
  std::uint64_t pool_size_;
  std::uint64_t txns_;
  sim::Rng rng_;
  std::vector<File> files_;
  std::uint64_t next_id_ = 0;
  std::array<std::uint8_t, kChunk> buf_{};
};

// --- seqrand ---------------------------------------------------------------

/// Table 4's shape: one file, then per pass a cold sequential read, a cold
/// random read, a sequential overwrite + fsync and a random overwrite +
/// fsync, in 4 KB calls.  Version v of the file is content key v; reads
/// check the version the last overwrite left.
void seqrand_one(Run& run, core::Protocol proto, std::uint64_t blocks,
                 std::uint64_t passes) {
  const std::string path = "/seq";
  std::vector<std::uint64_t> order(blocks);
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::uint64_t> shuffled = order;
  sim::Rng rng = run.rng(0x7365);
  rng.shuffle(shuffled);

  const std::int64_t t0 = host_ns();
  run.measuring = false;
  std::unique_ptr<core::Testbed> bed;
  std::uint64_t version = 0;
  {
    Span setup(run.spans, Kind::kSetup);
    bed = build(run, proto);
    Calls calls(*bed, run);
    {
      Span s(run.spans, Kind::kPopulate);
      constexpr std::uint32_t kFill = 32 * 1024;
      const std::optional<vfs::Fd> fd = calls.creat(path);
      bool ok = fd.has_value();
      for (std::uint64_t off = 0; ok && off < blocks * kChunk; off += kFill) {
        ok = calls.write(*fd, version, off,
                         static_cast<std::uint32_t>(std::min<std::uint64_t>(
                             kFill, blocks * kChunk - off)));
      }
      ok = ok && calls.fsync(*fd) && calls.close(*fd);
      run.count(ok);
    }
    settle(run, *bed, 12);
  }
  start_measuring(run, *bed);
  const std::int64_t t1 = host_ns();
  Calls calls(*bed, run);
  std::array<std::uint8_t, kChunk> buf{};
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    for (int step = 0; step < 4; ++step) {
      RequestSpan r(run.spans, Kind::kStep, *bed);
      {
        Span s(run.spans, Kind::kColdCaches);
        bed->cold_caches();
      }
      run.ledger.begin(*bed);
      const bool write = step >= 2;
      const std::vector<std::uint64_t>& blks = step % 2 == 0 ? order : shuffled;
      if (write) version++;
      const std::optional<vfs::Fd> fd = calls.open(path);
      run.count(fd.has_value());
      if (fd) {
        for (const std::uint64_t b : blks) {
          run.count(write ? calls.write(*fd, version, b * kChunk, kChunk)
                          : calls.read(*fd, version, b * kChunk, buf));
        }
        run.count((!write || calls.fsync(*fd)) && calls.close(*fd));
      }
      run.ledger.end(*bed);
    }
  }
  run.add_times(t0, t1, host_ns());
  run.ledger.finish(*bed);
  run.rep.ops += passes * 4 * blocks;
}

// --- fleet -----------------------------------------------------------------

/// Checks the namespace the fleet leaves behind; Fleet discards the results
/// of its own calls, so a fault shows here.  Each shared object must be
/// listed and stat as a regular file, and the shared directory must hold
/// nothing else.  Each private file must be named c<client>_f<k> for one of
/// the fleet's clients, with that client's f<k-1> listed too, and stat as a
/// regular file.
void check_fleet(Run& run, core::Testbed& world,
                 const core::WorkloadConfig& wl) {
  RequestSpan r(run.spans, Kind::kCheck, world);
  vfs::Vfs& v = world.vfs();
  auto listed = [&v](const std::string& dir) {
    std::set<std::string> names;
    const auto entries = v.readdir(dir);
    if (entries) {
      for (const netstore::fs::DirEntry& e : *entries) {
        if (e.name != "." && e.name != "..") names.insert(e.name);
      }
    }
    return names;
  };
  auto regular = [&v](const std::string& path) {
    const auto attr = v.stat(path);
    return attr && attr->type() == netstore::fs::FileType::kRegular;
  };
  auto private_name = [](unsigned long long client, unsigned long long k) {
    char name[48];
    std::snprintf(name, sizeof name, "c%llu_f%llu", client, k);
    return std::string(name);
  };

  const std::set<std::string> shared = listed("/fleet_shared");
  std::size_t expected = 0;
  for (std::uint32_t d = 0; d < wl.shared_objects; ++d) {
    std::string name = "o";
    name += std::to_string(d);
    const bool found = shared.count(name) == 1;
    expected += found ? 1 : 0;
    run.count(found && regular("/fleet_shared/" + name));
  }
  run.count(expected == shared.size());

  const std::set<std::string> priv = listed("/fleet_priv");
  for (const std::string& name : priv) {
    unsigned long long client = 0;
    unsigned long long k = 0;
    const bool named =
        std::sscanf(name.c_str(), "c%llu_f%llu", &client, &k) == 2 &&
        name == private_name(client, k) && client < wl.clients;
    run.count(named &&
              (k == 0 || priv.count(private_name(client, k - 1)) == 1) &&
              regular("/fleet_priv/" + name));
  }
}

/// core::Fleet over one NFSv3 world: flyweight clients with open-loop
/// Pareto arrivals, a quarter of operations on a Zipf-popular shared set.
void fleet_nfs(Run& run, std::uint64_t clients, std::uint64_t ops) {
  const std::int64_t t0 = host_ns();
  std::unique_ptr<core::Fleet> fleet;
  {
    Span setup(run.spans, Kind::kSetup);
    std::unique_ptr<core::Testbed> bed = build(run, core::Protocol::kNfsV3);
    core::WorkloadConfig wl;
    wl.clients = clients;
    wl.seed = run.p.seed;
    wl.ops = ops;
    wl.arrival.ops_per_client_per_s = 0.5;
    wl.arrival.think_time = core::ThinkTimeDist::kPareto;
    wl.arrival.pareto_shape = 1.5;
    wl.sharing_ratio = 0.25;
    wl.shared_objects = 16;
    wl.zipf_theta = 0.99;
    wl.shared_write_fraction = 0.05;
    wl.private_write_fraction = 0.30;
    fleet = std::make_unique<core::Fleet>(std::move(bed), wl);
    Span s(run.spans, Kind::kFleetSetup);
    fleet->setup();
  }
  core::Testbed& world = fleet->world();
  const core::WorkloadConfig& wl = fleet->workload();
  run.ledger.values()["sim.setup_virt_s"] += sim::to_seconds(world.env().now());
  run.ledger.begin(world);
  const std::int64_t t1 = host_ns();
  {
    RequestSpan r(run.spans, Kind::kFleet, world);
    Span s(run.spans, Kind::kFleetRun);
    fleet->run();
  }
  run.add_times(t0, t1, host_ns());
  run.ledger.end(world);
  run.ledger.finish(world);
  run.rep.ops += fleet->ops_completed();
  if (run.p.corrupt_at != 0) {
    // Test hook: a lost shared object, which the checks must catch.
    (void)world.vfs().unlink("/fleet_shared/o" +
                             std::to_string((run.p.corrupt_at - 1) %
                                            wl.shared_objects));
  }
  check_fleet(run, world, wl);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "postmark_nfs", "postmark_iscsi", "seqrand", "fleet_nfs"};
  return kNames;
}

Rep run_rep(const Params& p, Spans& spans) {
  spans.clear();
  Run run(p, spans);
  if (p.workload == "postmark_nfs") {
    Postmark(run, core::Protocol::kNfsV3, run.scaled(1000), run.scaled(20000))
        .run();
  } else if (p.workload == "postmark_iscsi") {
    Postmark(run, core::Protocol::kIscsi, run.scaled(5000), run.scaled(10000))
        .run();
  } else if (p.workload == "seqrand") {
    const std::uint64_t blocks = run.scaled(8 * 1024 * 1024 / kChunk);
    seqrand_one(run, core::Protocol::kNfsV3, blocks, 4);
    seqrand_one(run, core::Protocol::kIscsi, blocks, 4);
  } else if (p.workload == "fleet_nfs") {
    fleet_nfs(run, run.scaled(10000), run.scaled(10000));
  } else {
    throw std::invalid_argument("unknown workload: " + p.workload);
  }

  Values& layer = run.ledger.values();
  for (std::size_t i = 0; i < kVfsOps; ++i) {
    const std::string op = kind_name(static_cast<Kind>(i + static_cast<std::size_t>(kFirstVfs)));
    layer[op + ".calls"] = static_cast<double>(run.calls[i]);
  }
  // Per-syscall simulated latency: the benchmark's own calls where it
  // issues them, else (the fleet) the tracer's percentiles.
  if (!run.sim_us.empty()) {
    layer["trace.total_us.p50"] = percentile(run.sim_us, 50);
    layer["trace.total_us.p99"] = percentile(run.sim_us, 99);
  } else {
    layer["trace.total_us.p50"] = layer["x.trace.total_us.p50"];
    layer["trace.total_us.p99"] = layer["x.trace.total_us.p99"];
  }
  const double syscalls = std::max(1.0, layer["x.trace.syscalls"]);
  for (const char* c : {"network", "cpu", "media", "protocol", "cache"}) {
    const std::string key = std::string("trace.component.") + c + "_us";
    layer[key] = layer["x." + key + ".sum"] / syscalls;
  }
  layer["bench.ops"] = static_cast<double>(run.rep.ops);
  run.rep.digest = digest(layer);
  run.rep.traced = spans.on();
  if (spans.on()) add_span_totals(spans, layer);
  run.rep.layer = std::move(layer);
  return std::move(run.rep);
}

}  // namespace perfbench
