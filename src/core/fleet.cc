#include "core/fleet.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace netstore::core {

namespace {

double to_us(sim::Duration d) { return static_cast<double>(d) / 1000.0; }

}  // namespace

Fleet::Fleet(std::unique_ptr<Testbed> world, WorkloadConfig workload)
    : workload_(workload),
      zipf_(std::max<std::uint32_t>(workload_.shared_objects, 1),
            workload_.zipf_theta),
      world_(std::move(world)) {
  NETSTORE_CHECK(world_ != nullptr, "Fleet needs a world to drive");
  NETSTORE_CHECK_GE(workload_.clients, std::uint64_t{1},
                    "a fleet needs at least one client");
  NETSTORE_CHECK_GE(workload_.shared_objects, 1u,
                    "shared hot set cannot be empty");
  NETSTORE_CHECK_GT(workload_.arrival.ops_per_client_per_s, 0.0,
                    "arrival rate must be positive");

  obs::MetricsRegistry& m = world_->metrics();
  ops_ = &m.counter("fleet.ops");
  shared_ops_ = &m.counter("fleet.shared_ops");
  forced_revals_ = &m.counter("fleet.forced_revalidations");
  response_us_ = &m.sampler("fleet.response_us");
  queue_delay_us_ = &m.sampler("fleet.queue_delay_us");
  service_us_ = &m.sampler("fleet.service_us");
  client_mean_us_ = &m.sampler("fleet.client_mean_us");
}

Fleet::~Fleet() = default;

std::string Fleet::shared_path(std::uint64_t obj) const {
  return "/fleet_shared/o" + std::to_string(obj);
}

std::string Fleet::private_path(std::uint64_t client,
                                std::uint32_t file) const {
  return "/fleet_priv/c" + std::to_string(client) + "_f" +
         std::to_string(file);
}

void Fleet::setup() {
  NETSTORE_CHECK(!setup_done_, "Fleet::setup() already ran");
  setup_done_ = true;

  vfs::Vfs& v = world_->vfs();
  NETSTORE_CHECK(v.mkdir("/fleet_shared", 0755).ok(),
                 "fleet shared dir exists — reuse of a fleet world?");
  NETSTORE_CHECK(v.mkdir("/fleet_priv", 0755).ok());
  for (std::uint32_t d = 0; d < workload_.shared_objects; ++d) {
    auto fd = v.creat(shared_path(d), 0644);
    NETSTORE_CHECK(fd.ok(), "creating the shared hot set failed");
    NETSTORE_CHECK(v.close(*fd).ok());
  }
  // Let the setup's deferred traffic (journal commits, write-back) land,
  // then measure only the steady phase.
  world_->settle(sim::seconds(15));
  world_->reset_counters();
  const sim::Time start = world_->env().now();

  // Flyweight client state: ~64 B each, so 1M clients fit in tens of MB.
  // Rng streams are decorrelated by full-avalanche mixing of (seed, id).
  clients_.resize(workload_.clients);
  std::vector<Arrival> first;
  first.reserve(clients_.size());
  for (std::uint64_t c = 0; c < workload_.clients; ++c) {
    Client& cl = clients_[c];
    cl.rng.reseed(sim::mix64(workload_.seed ^ sim::mix64(c + 1)));
    first.push_back(Arrival{start + think(cl), c});
  }
  // One heapify over every first arrival, not one push per client.
  arrivals_ = decltype(arrivals_)(Later{}, std::move(first));

  if (world_->is_nfs()) {
    // Per-(client, object) validation times: the flat matrix is the whole
    // per-client coherence state — 8 B per pair, bounded by the hot-set
    // size, never by the namespace.
    validated_.assign(clients_.size() * workload_.shared_objects, -1);
    last_write_.assign(workload_.shared_objects, -1);
  }
}

sim::Duration Fleet::think(Client& cl) {
  const double mean_s = 1.0 / workload_.arrival.ops_per_client_per_s;
  const double s =
      workload_.arrival.think_time == ThinkTimeDist::kExponential
          ? cl.rng.exponential(mean_s)
          : cl.rng.pareto_with_mean(workload_.arrival.pareto_shape, mean_s);
  return std::max<sim::Duration>(1, std::llround(s * 1e9));
}

void Fleet::force_revalidation_if_stale(std::uint64_t client,
                                        std::uint64_t obj,
                                        const std::string& path) {
  sim::Time& seen = validated_[client * workload_.shared_objects + obj];
  const sim::Time now = world_->env().now();
  const sim::Duration window = world_->nfs_client().config().attr_timeout;
  const bool stale =
      seen < 0 || seen < last_write_[obj] || now - seen >= window;
  if (stale && world_->nfs_client().expire_path_attrs(path)) {
    forced_revals_->add(1);
  }
}

void Fleet::do_op(std::uint64_t client, Client& cl) {
  vfs::Vfs& v = world_->vfs();
  sim::Env& env = world_->env();
  const sim::Time now = env.now();

  if (cl.rng.chance(workload_.sharing_ratio)) {
    shared_ops_->add(1);
    const std::uint64_t obj = zipf_.sample(cl.rng);
    const std::string path = shared_path(obj);
    const bool write = cl.rng.chance(workload_.shared_write_fraction);
    if (world_->is_nfs()) force_revalidation_if_stale(client, obj, path);
    if (write) {
      (void)v.utime(path, now, now);
      if (!last_write_.empty()) last_write_[obj] = env.now();
    } else {
      (void)v.stat(path);
    }
    if (world_->is_nfs()) {
      validated_[client * workload_.shared_objects + obj] = env.now();
    }
    return;
  }

  // Private working set, grown lazily: the first touch creates the file
  // (creat IS the operation), later writes alternate between extending
  // the set and touching an existing member.
  if (cl.rng.chance(workload_.private_write_fraction) ||
      cl.private_files == 0) {
    if (cl.private_files == 0 || cl.rng.chance(0.5)) {
      auto fd = v.creat(private_path(client, cl.private_files), 0644);
      if (fd.ok()) {
        (void)v.close(*fd);
        cl.private_files++;
      }
    } else {
      (void)v.utime(private_path(client, cl.rng.uniform(cl.private_files)),
                    now, now);
    }
  } else {
    (void)v.stat(private_path(client, cl.rng.uniform(cl.private_files)));
  }
}

void Fleet::run() {
  if (!setup_done_) setup();
  sim::Env& env = world_->env();

  for (std::uint64_t done = 0; done < workload_.ops; ++done) {
    const Arrival head = arrivals_.top();
    arrivals_.pop();
    Client& cl = clients_[head.client];

    // Open-loop queueing: an arrival in the future means the server is
    // idle (advance to it); one in the past has been waiting in queue.
    sim::Duration queue_delay = 0;
    if (env.now() < head.at) {
      env.advance_to(head.at);
    } else {
      queue_delay = env.now() - head.at;
    }

    const sim::Time t0 = env.now();
    do_op(head.client, cl);
    const sim::Duration service = env.now() - t0;
    const sim::Duration response = queue_delay + service;

    ops_->add(1);
    response_us_->record(to_us(response));
    queue_delay_us_->record(to_us(queue_delay));
    service_us_->record(to_us(service));
    cl.ops++;
    cl.sum_response_us += to_us(response);

    // Renewal on the *arrival* time, not completion: offered load is
    // independent of how slow the server was.
    arrivals_.push(Arrival{head.at + think(cl), head.client});
  }

  // Fairness digest: each active client's mean response, in id order.
  client_mean_us_->reset();
  for (const Client& cl : clients_) {
    if (cl.ops > 0) {
      client_mean_us_->record(cl.sum_response_us /
                              static_cast<double>(cl.ops));
    }
  }
}

std::uint64_t Fleet::ops_completed() const { return ops_->value(); }
std::uint64_t Fleet::shared_ops() const { return shared_ops_->value(); }
std::uint64_t Fleet::forced_revalidations() const {
  return forced_revals_->value();
}

std::uint64_t Fleet::active_clients() const {
  std::uint64_t n = 0;
  for (const Client& cl : clients_) n += cl.ops > 0;
  return n;
}

double Fleet::jain_fairness_index() const {
  double sum = 0, sum_sq = 0;
  std::uint64_t n = 0;
  for (const Client& cl : clients_) {
    if (cl.ops == 0) continue;
    const double x = cl.sum_response_us / static_cast<double>(cl.ops);
    sum += x;
    sum_sq += x * x;
    n++;
  }
  if (n == 0 || sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(n) * sum_sq);
}

}  // namespace netstore::core
