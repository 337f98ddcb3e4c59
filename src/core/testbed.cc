#include "core/testbed.h"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/check.h"

namespace netstore::core {

/// The one vfs::Instrumentation the testbed installs: opens/closes a trace
/// span around every syscall and charges the per-call client CPU cost
/// (clock advance via Vfs::ScopedSyscall, CPU window + trace attribution
/// here).  vfs::Syscall and obs::Op enumerate the same classes in the same
/// order, so the mapping is a cast.
class Testbed::ClientInstr final : public vfs::Instrumentation {
 public:
  using CostFn =
      std::function<sim::Duration(sim::Time, vfs::Syscall, std::uint32_t)>;

  ClientInstr(obs::Tracer& tracer, CostFn cost)
      : tracer_(tracer), cost_(std::move(cost)) {}

  sim::Duration syscall_cost(sim::Time at, vfs::Syscall kind,
                             std::uint32_t bytes) override {
    const sim::Duration d = cost_(at, kind, bytes);
    tracer_.charge(obs::Component::kCpu, d);
    return d;
  }

  void syscall_enter(sim::Time at, vfs::Syscall kind,
                     std::uint32_t /*bytes*/) override {
    spans_.push_back(tracer_.begin(static_cast<obs::Op>(kind), at));
  }

  void syscall_exit(sim::Time at, vfs::Syscall /*kind*/) override {
    NETSTORE_CHECK(!spans_.empty(), "syscall_exit without matching enter");
    tracer_.end(spans_.back(), at);
    spans_.pop_back();
  }

 private:
  obs::Tracer& tracer_;
  CostFn cost_;
  std::vector<obs::SpanId> spans_;  // innermost last (syscalls may nest)
};

const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::kNfsV2:
      return "NFS v2";
    case Protocol::kNfsV3:
      return "NFS v3";
    case Protocol::kNfsV4:
      return "NFS v4";
    case Protocol::kNfsV4Consistent:
      return "NFS v4 + consistent meta-data cache";
    case Protocol::kNfsV4Delegation:
      return "NFS v4 + directory delegation";
    case Protocol::kIscsi:
      return "iSCSI";
  }
  return "?";
}

Testbed::Testbed(Protocol protocol, TestbedConfig config)
    : protocol_(protocol),
      config_(config),
      server_cpu_(config.system.cpu_sample_period),
      client_cpu_(config.system.cpu_sample_period) {
  env_.set_audit(config_.system.invariant_audits);
  // Observability first: components built below may cache env pointers.
  env_.set_tracer(&tracer_);
  link_ = std::make_unique<net::Link>(env_, config_.system.link);
  // Size the array to hold the requested volume.
  config_.system.raid.disk.block_count =
      config_.system.volume_blocks / (config_.system.raid.num_disks - 1) +
      config_.system.raid.stripe_unit_blocks;
  raid_ = std::make_unique<block::Raid5Array>(config_.system.raid);

  if (protocol_ == Protocol::kIscsi) {
    build_iscsi();
  } else {
    build_nfs();
  }
  register_metrics();
}

Testbed::~Testbed() {
  if (config_.system.invariant_audits) {
    // Audited teardown: fire every deferred daemon event, then verify the
    // queue actually quiesced.
    env_.drain();
    env_.check_quiesced();
  }
}

void Testbed::quiesce() {
  // Fire every deferred daemon event, then wait out the asynchronous
  // writes those daemons issued (page flushes land in the initiator's
  // tagged queue / the client's write pool).  Waiting advances the clock,
  // which cannot schedule new events on an empty queue, but a daemon may
  // have re-armed while firing — loop until a full pass leaves the queue
  // empty.
  do {
    env_.drain();
    if (protocol_ == Protocol::kIscsi) {
      initiator_->flush();
    } else {
      nfs_client_->drain_pending_writes();
    }
  } while (env_.pending_events() > 0);
}

fs::Ext3Params Testbed::client_fs_params(const TestbedConfig& c) {
  fs::Ext3Params p;
  p.bcache_capacity_blocks = c.system.client_metadata_blocks;
  p.page_cache.capacity_pages = c.system.client_cache_pages;
  p.page_cache.dirty_high_water = c.system.client_cache_pages / 4;
  p.commit_interval = c.system.commit_interval;
  p.readahead_max = c.system.fs_readahead_max;
  if (p.readahead_max == 0) p.readahead_min = 0;
  p.invariant_audits = c.system.invariant_audits;
  return p;
}

void Testbed::build_iscsi() {
  target_cache_ = std::make_unique<block::TimedCache>(
      *raid_, config_.system.target_cache_blocks, config_.system.target_cache_blocks / 2);
  target_cache_->set_tracer(&tracer_);
  target_ = std::make_unique<iscsi::Target>(*target_cache_,
                                            config_.system.volume_blocks);
  initiator_ =
      std::make_unique<iscsi::Initiator>(env_, *link_, *target_, config_.system.iscsi);
  target_->set_cost_hook(
      [this](sim::Time at, bool is_write, std::uint32_t nblocks) {
        const sim::Duration d =
            config_.system.cpu.server_layer * config_.system.cpu.iscsi_layers +
            (is_write ? config_.system.cpu.server_per_page_write
                      : config_.system.cpu.server_per_page_read) *
                nblocks;
        server_cpu_.charge(at, d);
        tracer_.charge(obs::Component::kCpu, d);
        return d;
      });
  initiator_->set_cost_hook([this](sim::Time at, bool, std::uint32_t) {
    const sim::Duration d = config_.system.cpu.client_per_command;
    client_cpu_.charge(at, d);
    tracer_.charge(obs::Component::kCpu, d);
    return d;
  });
  initiator_->login();

  fs::MkfsOptions mkfs;
  mkfs.journal_blocks = config_.system.journal_blocks;
  fs::Ext3Fs::mkfs(*initiator_, mkfs);

  client_fs_ =
      std::make_unique<fs::Ext3Fs>(env_, *initiator_, client_fs_params(config_));
  client_fs_->mount();

  auto local = std::make_unique<vfs::LocalVfs>(env_, *client_fs_);
  instr_ = std::make_unique<ClientInstr>(
      tracer_, [this](sim::Time at, vfs::Syscall, std::uint32_t bytes) {
        const sim::Duration d =
            config_.system.cpu.client_fs_syscall +
            config_.system.cpu.client_per_page *
                ((bytes + block::kBlockSize - 1) / block::kBlockSize);
        client_cpu_.charge(at, d);
        return d;
      });
  local->set_instrumentation(instr_.get());
  vfs_ = std::move(local);
}

nfs::ClientConfig Testbed::nfs_client_config() const {
  nfs::ClientConfig c;
  switch (protocol_) {
    case Protocol::kNfsV2:
      c.version = nfs::Version::kV2;
      break;
    case Protocol::kNfsV3:
      c.version = nfs::Version::kV3;
      break;
    case Protocol::kNfsV4:
      c.version = nfs::Version::kV4;
      break;
    case Protocol::kNfsV4Consistent:
      c.version = nfs::Version::kV4;
      c.consistent_metadata_cache = true;
      break;
    case Protocol::kNfsV4Delegation:
      c.version = nfs::Version::kV4;
      c.consistent_metadata_cache = true;
      c.directory_delegation = true;
      break;
    default:
      throw std::logic_error("not an NFS protocol");
  }
  c.page_cache_capacity = config_.system.client_cache_pages;
  c.write_pool_slots = config_.system.nfs_write_pool_slots;
  return c;
}

void Testbed::build_nfs() {
  server_disk_ = std::make_unique<block::LocalBlockDevice>(env_, *raid_);

  fs::MkfsOptions mkfs;
  mkfs.journal_blocks = config_.system.journal_blocks;
  fs::Ext3Fs::mkfs(*server_disk_, mkfs);

  fs::Ext3Params p;
  p.bcache_capacity_blocks = config_.system.server_metadata_blocks;
  p.page_cache.capacity_pages = config_.system.server_cache_pages;
  p.page_cache.dirty_high_water = config_.system.server_cache_pages / 4;
  p.commit_interval = config_.system.commit_interval;
  p.invariant_audits = config_.system.invariant_audits;
  server_fs_ = std::make_unique<fs::Ext3Fs>(env_, *server_disk_, p);
  server_fs_->mount();

  nfs::ServerConfig sc;
  sc.sync_data = protocol_ == Protocol::kNfsV2;
  nfs_server_ = std::make_unique<nfs::NfsServer>(env_, *server_fs_, sc);
  nfs_server_->set_cost_hook(
      [this](sim::Time at, nfs::Proc proc, std::uint32_t bytes) {
        std::uint32_t layers = config_.system.cpu.nfs_layers;
        // Meta-data requests that miss the server cache traverse the
        // VFS/FS/block layers repeatedly (paper §5.4).
        const bool is_meta = proc != nfs::Proc::kRead &&
                             proc != nfs::Proc::kWrite &&
                             proc != nfs::Proc::kCommit;
        if (is_meta) layers += config_.system.cpu.nfs_meta_miss_layers / 2;
        sim::Duration d = config_.system.cpu.server_layer * layers;
        // `bytes` is request plus reply payload (file handle, arguments
        // and attributes around the data), so a 4 KB READ or WRITE rounds
        // up to two pages of per-page cost.
        if (!is_meta) {
          const sim::Duration per_page =
              proc == nfs::Proc::kWrite ? config_.system.cpu.server_per_page_write
                                        : config_.system.cpu.server_per_page_read;
          d += per_page *
               ((bytes + block::kBlockSize - 1) / block::kBlockSize);
        }
        server_cpu_.charge(at, d);
        tracer_.charge(obs::Component::kCpu, d);
        return d;
      });

  rpc_ = std::make_unique<rpc::RpcTransport>(env_, *link_, config_.system.rpc);
  nfs_client_ = std::make_unique<nfs::NfsClient>(env_, *rpc_, *nfs_server_,
                                                 nfs_client_config());
  nfs_client_->mount();

  auto v = std::make_unique<vfs::NfsVfs>(env_, *nfs_client_);
  instr_ = std::make_unique<ClientInstr>(
      tracer_, [this](sim::Time at, vfs::Syscall, std::uint32_t bytes) {
        const sim::Duration d =
            config_.system.cpu.client_nfs_syscall +
            config_.system.cpu.client_per_page *
                ((bytes + block::kBlockSize - 1) / block::kBlockSize) / 2;
        client_cpu_.charge(at, d);
        return d;
      });
  v->set_instrumentation(instr_.get());
  vfs_ = std::move(v);
}

namespace {

double hit_ratio(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t total = hits + misses;
  return total == 0 ? 0.0 : static_cast<double>(hits) / total;
}

}  // namespace

StatsSnapshot Testbed::snapshot() const {
  StatsSnapshot s;
  s.now = env_.now();

  const net::TrafficStats& c2s =
      link_->stats(net::Direction::kClientToServer);
  const net::TrafficStats& s2c =
      link_->stats(net::Direction::kServerToClient);
  s.c2s_messages = c2s.messages.value();
  s.c2s_bytes = c2s.bytes.value();
  s.s2c_messages = s2c.messages.value();
  s.s2c_bytes = s2c.bytes.value();
  s.raw_messages = s.c2s_messages + s.s2c_messages;
  s.bytes = s.c2s_bytes + s.s2c_bytes;

  if (protocol_ == Protocol::kIscsi) {
    s.messages = initiator_->exchanges();
    s.retransmissions = 0;
    s.client_cache_hit_ratio =
        hit_ratio(client_fs_->pages().stats().hits.value(),
                  client_fs_->pages().stats().misses.value());
    s.server_cache_hit_ratio = hit_ratio(target_cache_->hits().value(),
                                         target_cache_->misses().value());
  } else {
    s.messages = rpc_->stats().calls.value();
    s.retransmissions = rpc_->stats().retransmissions.value();
    s.server_cache_hit_ratio =
        hit_ratio(server_fs_->pages().stats().hits.value(),
                  server_fs_->pages().stats().misses.value());
  }

  s.server_cpu_busy = server_cpu_.total_busy();
  s.client_cpu_busy = client_cpu_.total_busy();
  return s;
}

void Testbed::register_metrics() {
  // Event-queue telemetry: host-side scheduling work, not simulated
  // behaviour.
  sim::TimerStats& ts = env_.mutable_timer_stats();
  metrics_.adopt_counter("sim.timer.scheduled", ts.scheduled);
  metrics_.adopt_counter("sim.timer.fired", ts.fired);

  metrics_.adopt_counter(
      "link.c2s.messages",
      link_->mutable_stats(net::Direction::kClientToServer).messages);
  metrics_.adopt_counter(
      "link.c2s.bytes",
      link_->mutable_stats(net::Direction::kClientToServer).bytes);
  metrics_.adopt_counter(
      "link.s2c.messages",
      link_->mutable_stats(net::Direction::kServerToClient).messages);
  metrics_.adopt_counter(
      "link.s2c.bytes",
      link_->mutable_stats(net::Direction::kServerToClient).bytes);

  if (protocol_ == Protocol::kIscsi) {
    metrics_.adopt_counter("iscsi.initiator.exchanges",
                           initiator_->exchanges_counter());
    metrics_.adopt_counter("iscsi.initiator.write_commands",
                           initiator_->write_commands_counter());
    metrics_.adopt_counter("iscsi.initiator.write_bytes",
                           initiator_->write_bytes_counter());
    metrics_.adopt_counter("iscsi.target.cache.hits",
                           target_cache_->hits_counter());
    metrics_.adopt_counter("iscsi.target.cache.misses",
                           target_cache_->misses_counter());
  } else {
    rpc::RpcStats& rs = rpc_->mutable_stats();
    metrics_.adopt_counter("rpc.calls", rs.calls);
    metrics_.adopt_counter("rpc.retransmissions", rs.retransmissions);
    nfs::ClientStats& cs = nfs_client_->mutable_stats();
    metrics_.adopt_counter("nfs.client.lookups", cs.lookups);
    metrics_.adopt_counter("nfs.client.revalidations", cs.revalidations);
    metrics_.adopt_counter("nfs.client.batched_ops", cs.batched_ops);
    metrics_.adopt_counter("nfs.client.batch_flushes", cs.batch_flushes);
    metrics_.adopt_counter("nfs.server.requests",
                           nfs_server_->requests_counter());
  }

  metrics_.adopt_sampler("trace.total_us", tracer_.total_us());
  for (std::size_t i = 0; i < obs::kComponentCount; ++i) {
    const auto c = static_cast<obs::Component>(i);
    metrics_.adopt_sampler(
        std::string("trace.component.") + obs::to_string(c) + "_us",
        tracer_.component_us(c));
  }
  for (std::size_t i = 0; i < obs::kOpCount; ++i) {
    const auto op = static_cast<obs::Op>(i);
    metrics_.adopt_sampler(
        std::string("trace.op.") + obs::to_string(op) + "_us",
        tracer_.op_total_us(op));
  }
}

void Testbed::reset_counters() {
  env_.mutable_timer_stats().reset();
  link_->reset_stats();
  if (protocol_ == Protocol::kIscsi) {
    initiator_->reset_stats();
  } else {
    rpc_->reset_stats();
  }
  server_cpu_.begin_window(env_.now());
  client_cpu_.begin_window(env_.now());
  // A fresh measurement phase also starts from a clean span history, so
  // Table 4's latency breakdown covers only the measured requests.
  tracer_.reset();
}

void Testbed::cold_caches() {
  if (protocol_ == Protocol::kIscsi) {
    client_fs_->unmount();
    target_->restart();
    client_fs_->mount();
  } else {
    nfs_client_->unmount();
    // Server restart: quiesce, drop every server-side cache.
    server_fs_->unmount();
    server_fs_->mount();
    nfs_client_->mount();
  }
}

void Testbed::settle(sim::Duration d) { env_.advance(d); }

void Testbed::crash_client() {
  if (protocol_ == Protocol::kIscsi) {
    client_fs_->crash();
  } else {
    nfs_client_->invalidate_caches();
  }
}

fs::Ext3Fs& Testbed::client_fs() {
  NETSTORE_CHECK(client_fs_, "no local fs on an NFS testbed");
  return *client_fs_;
}

fs::Ext3Fs& Testbed::server_fs() {
  NETSTORE_CHECK(server_fs_, "no server fs on an iSCSI testbed");
  return *server_fs_;
}

nfs::NfsClient& Testbed::nfs_client() {
  NETSTORE_CHECK(nfs_client_, "no NFS client on an iSCSI testbed");
  return *nfs_client_;
}

iscsi::Initiator& Testbed::initiator() {
  NETSTORE_CHECK(initiator_, "no initiator on an NFS testbed");
  return *initiator_;
}

iscsi::Target& Testbed::target() {
  NETSTORE_CHECK(target_, "no target on an NFS testbed");
  return *target_;
}

}  // namespace netstore::core
