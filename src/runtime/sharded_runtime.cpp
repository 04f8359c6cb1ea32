#include "runtime/sharded_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <span>
#include <stdexcept>
#include <string>

#include "net/packet_batch.hpp"
#include "util/cycle_clock.hpp"
#include "util/hash.hpp"

namespace speedybox::runtime {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ShardedRuntime::ShardedRuntime(const ServiceChain& prototype,
                               std::size_t shard_count, RunConfig config,
                               std::size_t ring_capacity,
                               telemetry::Registry* registry,
                               std::string shard_label_prefix)
    : config_(config),
      ring_capacity_(ring_capacity),
      registry_(registry),
      label_prefix_(std::move(shard_label_prefix) + "shard") {
  if (shard_count == 0) shard_count = 1;
  if (config_.batch_size == 0) config_.batch_size = 1;
  // Keep a pristine replica so later scale-ups can clone fresh shards; the
  // caller's prototype is only borrowed for the constructor's duration.
  prototype_ = prototype.clone("");
  ensure_worker_shards(shard_count);
  active_count_ = shard_count;
  start_ns_ = steady_ns();
}

ShardedRuntime::~ShardedRuntime() { join_workers(); }

std::size_t ShardedRuntime::shard_of(
    const net::FiveTuple& tuple) const noexcept {
  return util::shard_index(tuple.symmetric_hash(), active_count_);
}

ServiceChain& ShardedRuntime::shard_chain(std::size_t shard) {
  return *shards_.at(shard)->chain;
}

double ShardedRuntime::max_ring_occupancy() const noexcept {
  double worst = 0.0;
  for (std::size_t s = 0; s < active_count_; ++s) {
    const util::SpscRing<Job>& ring = *shards_[s]->ring;
    const double fill = static_cast<double>(ring.size()) /
                        static_cast<double>(ring.capacity());
    worst = std::max(worst, fill);
  }
  return worst;
}

void ShardedRuntime::set_scale_hook(ScaleHook hook,
                                    std::uint64_t interval_packets) {
  scale_hook_ = std::move(hook);
  scale_interval_ = interval_packets == 0 ? 1 : interval_packets;
}

void ShardedRuntime::push(net::Packet packet) {
  if (joined_) {
    throw std::logic_error("ShardedRuntime::push after finish()");
  }
  Job job;
  job.index = next_index_++;
  if (const auto parsed = net::parse_packet(packet)) {
    job.tuple = net::extract_five_tuple(packet, *parsed);
  }
  // Unparseable packets have no flow; any fixed shard preserves their
  // relative order.
  const std::size_t shard_index =
      job.tuple ? shard_of(*job.tuple) : std::size_t{0};
  job.packet = std::move(packet);
  Shard& shard = *shards_[shard_index];
  shard.staging.push_back(std::move(job));
  if (shard.staging.size() >= config_.batch_size) {
    flush_shard(shard);
  }
  // Scaling decisions fire at exact packet counts, independent of batch
  // size or worker timing — the property the autoscale differential-
  // equivalence harness leans on.
  if (scale_hook_ && next_index_ % scale_interval_ == 0) {
    scale_hook_(*this);
  }
}

void ShardedRuntime::shed_jobs(std::span<Job> jobs) {
  for (Job& job : jobs) {
    job.packet.mark_dropped();
    PacketOutcome outcome;
    outcome.dropped = true;
    outcome.shed = true;
    dispatcher_shed_.push_back(
        {job.index, outcome, std::move(job.packet)});
  }
}

void ShardedRuntime::flush_shard(Shard& shard) {
  if (shard.staging.empty()) return;
  util::SpscRing<Job>& ring = *shard.ring;
  telemetry::ShardMetrics* metrics = shard.metrics;
  if (metrics != nullptr) {
    metrics->ring_burst_size.set(shard.staging.size());
  }
  std::span<Job> pending{shard.staging};
  // With overload enabled a pressured ring sheds the burst outright —
  // bounded queueing instead of unbounded dispatcher blocking. The shed
  // counters live dispatcher-side only (RunStats at finish()): the shard
  // worker owns the telemetry shed cells, and the single-writer contract
  // forbids the dispatcher touching them.
  if (overload_.enabled && ring.over_watermark()) {
    shed_jobs(pending);
    shard.staging.clear();
    if (metrics != nullptr) metrics->ring_occupancy.set(ring.size());
    return;
  }
  // A partial try_push_burst moves out exactly the slots it reports and
  // leaves the remainder intact, so the backpressure loop retries the
  // un-pushed tail until the worker frees room.
  bool waited = false;
  while (!pending.empty()) {
    const std::size_t pushed = ring.try_push_burst(pending);
    pending = pending.subspan(pushed);
    if (pending.empty()) break;
    if (overload_.enabled) {
      // Full ring under overload: shed the remainder, never block.
      shed_jobs(pending);
      break;
    }
    if (!waited) {
      waited = true;
      ++backpressure_waits_;
    }
    if (metrics != nullptr) metrics->backpressure_yields.add(1);
    std::this_thread::yield();
  }
  shard.staging.clear();
  // Dispatcher-owned gauge (see constructor comment): depth after this
  // flush, as the dispatcher sees it.
  if (metrics != nullptr) metrics->ring_occupancy.set(ring.size());
}

void ShardedRuntime::worker(Shard& shard) {
  const std::size_t burst = config_.batch_size;
  std::vector<Job> jobs(burst);
  std::vector<std::size_t> live;  // burst slots that carry real packets
  std::vector<PacketOutcome> outcomes;
  net::PacketBatch batch{burst};
  for (;;) {
    const std::size_t popped =
        shard.ring->try_pop_burst(std::span<Job>{jobs});
    if (popped == 0) {
      if ((done_.load(std::memory_order_acquire) ||
           shard.stop.load(std::memory_order_acquire)) &&
          shard.ring->empty()) {
        return;
      }
      std::this_thread::yield();
      continue;
    }
    batch.clear();
    live.clear();
    std::uint64_t marker_epoch = 0;
    for (std::size_t i = 0; i < popped; ++i) {
      if (jobs[i].drain_epoch != 0) {
        marker_epoch = std::max(marker_epoch, jobs[i].drain_epoch);
        continue;
      }
      jobs[i].packet.set_arrival_cycle(util::CycleClock::now());
      batch.push(&jobs[i].packet);
      live.push_back(i);
    }
    // After a fault the worker keeps popping (and discarding) jobs, so the
    // dispatcher's backpressure loop and quiesce() never wait on it;
    // finish() rethrows the fault once the worker is joined.
    if (!live.empty() && !shard.error) {
      try {
        shard.runner->process_batch(batch, outcomes);
        for (std::size_t k = 0; k < live.size(); ++k) {
          Job& job = jobs[live[k]];
          if (job.tuple) {
            *shard.flow_time_us.try_emplace(*job.tuple, 0.0).first +=
                util::CycleClock::to_us(outcomes[k].latency_cycles);
          }
          shard.processed.push_back(
              {job.index, outcomes[k], std::move(job.packet)});
        }
      } catch (...) {
        shard.error = std::current_exception();
      }
    }
    if (marker_epoch != 0) {
      // Everything queued ahead of the marker is fully processed; the
      // release store pairs with quiesce()'s acquire load so the
      // dispatcher sees every chain/state write this worker made.
      shard.drained_epoch.store(marker_epoch, std::memory_order_release);
    }
  }
}

void ShardedRuntime::start_worker(Shard& shard) {
  shard.stop.store(false, std::memory_order_relaxed);
  shard.thread = std::thread([this, target = &shard] { worker(*target); });
  shard.running = true;
}

void ShardedRuntime::ensure_worker_shards(std::size_t count) {
  while (shards_.size() < count) {
    const std::size_t s = shards_.size();
    auto shard = std::make_unique<Shard>();
    shard->chain = prototype_->clone("-shard" + std::to_string(s));
    shard->runner = std::make_unique<ChainRunner>(*shard->chain, config_);
    shard->ring = std::make_unique<util::SpscRing<Job>>(ring_capacity_);
    shard->staging.reserve(config_.batch_size);
    if (registry_ != nullptr) {
      shard->metrics = &registry_->create_shard(
          label_prefix_ + std::to_string(s), prototype_->nf_names());
      shard->metrics->ring_capacity.set(shard->ring->capacity());
      shard->runner->set_telemetry(shard->metrics);
    }
    if (overload_set_) {
      shard->runner->set_overload_policy(overload_);
      const auto capacity = static_cast<double>(shard->ring->capacity());
      shard->ring->set_watermarks(
          static_cast<std::size_t>(overload_.high_watermark * capacity),
          static_cast<std::size_t>(overload_.low_watermark * capacity));
    }
    shards_.push_back(std::move(shard));
  }
  for (std::size_t s = 0; s < count; ++s) {
    Shard& shard = *shards_[s];
    if (!shard.running) start_worker(shard);
  }
}

void ShardedRuntime::retire_worker_shards(std::size_t count) {
  for (std::size_t s = count; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    if (!shard.running) continue;
    flush_shard(shard);
    shard.stop.store(true, std::memory_order_release);
    shard.thread.join();
    shard.running = false;
  }
}

void ShardedRuntime::set_active_shard_count(std::size_t count) {
  if (count == 0 || count > shards_.size()) {
    throw std::logic_error(
        "ShardedRuntime::set_active_shard_count: count out of range");
  }
  for (std::size_t s = 0; s < count; ++s) {
    if (!shards_[s]->running) {
      throw std::logic_error(
          "ShardedRuntime::set_active_shard_count: shard " +
          std::to_string(s) + " is not running");
    }
  }
  active_count_ = count;
}

void ShardedRuntime::quiesce() {
  const std::uint64_t epoch = ++quiesce_epoch_;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    if (!shard.running) continue;  // retired: joined, nothing in flight
    flush_shard(shard);
    Job marker;
    marker.drain_epoch = epoch;
    // Markers are control traffic: they bypass the watermark shed (losing
    // one would deadlock the quiesce) and spin past a full ring.
    while (!shard.ring->try_push(std::move(marker))) {
      std::this_thread::yield();
    }
  }
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    if (!shard.running) continue;
    while (shard.drained_epoch.load(std::memory_order_acquire) < epoch) {
      std::this_thread::yield();
    }
  }
}

void ShardedRuntime::join_workers() {
  if (joined_) return;
  // Partial bursts still staged dispatcher-side must reach the rings
  // before the shutdown flag, or the workers would exit with packets
  // unprocessed.
  for (auto& shard : shards_) {
    if (shard->running) flush_shard(*shard);
  }
  done_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
    shard->running = false;
  }
  joined_ = true;
}

ShardedRunResult ShardedRuntime::finish() {
  join_workers();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s]->error) continue;
    try {
      std::rethrow_exception(shards_[s]->error);
    } catch (const std::exception& error) {
      std::throw_with_nested(std::runtime_error(
          "ShardedRuntime: shard " + std::to_string(s) +
          " worker threw: " + error.what()));
    } catch (...) {
      std::throw_with_nested(std::runtime_error(
          "ShardedRuntime: shard " + std::to_string(s) +
          " worker threw a non-standard exception"));
    }
  }
  ShardedRunResult result;
  result.wall_seconds =
      static_cast<double>(steady_ns() - start_ns_) / 1e9;
  result.outcomes.resize(next_index_);
  result.packets.resize(next_index_);
  result.shard_stats.reserve(shards_.size());
  result.shard_packets.reserve(shards_.size());
  // After live resharding a flow's packets may have been processed by more
  // than one shard, so per-flow times accumulate across shards by tuple
  // before becoming samples (a static run degenerates to the old
  // disjoint-keys merge).
  core::FlowTable<net::FiveTuple, double> flow_time;
  for (auto& shard : shards_) {
    const RunStats& stats = shard->runner->stats();
    result.shard_stats.push_back(stats);
    result.shard_packets.push_back(stats.packets);
    result.stats.merge_from(stats);
    result.aggregate_rate_mpps += stats.rate_mpps(config_.platform);
    for (Processed& rec : shard->processed) {
      result.outcomes[rec.index] = rec.outcome;
      result.packets[rec.index] = std::move(rec.packet);
    }
    shard->flow_time_us.for_each(
        [&flow_time](const net::FiveTuple& tuple, double time_us) {
          *flow_time.try_emplace(tuple, 0.0).first += time_us;
        });
    shard->processed.clear();
    shard->processed.shrink_to_fit();
  }
  flow_time.for_each([&result](const net::FiveTuple&, double time_us) {
    result.flow_time_us.add(time_us);
  });
  // Dispatcher-shed packets never reached a shard runner, so no shard's
  // `offered` counted them: add them to both sides of the conservation
  // identity (offered == packets + shed_total) exactly once.
  result.stats.overload.offered += dispatcher_shed_.size();
  result.stats.overload.shed_watermark += dispatcher_shed_.size();
  for (Processed& rec : dispatcher_shed_) {
    result.outcomes[rec.index] = rec.outcome;
    result.packets[rec.index] = std::move(rec.packet);
  }
  dispatcher_shed_.clear();
  dispatcher_shed_.shrink_to_fit();
  return result;
}

ShardedRunResult ShardedRuntime::run_packets(
    const std::vector<net::Packet>& packets) {
  for (const net::Packet& original : packets) {
    net::Packet packet = original;
    packet.reset_metadata();
    push(std::move(packet));
  }
  return finish();
}

ShardedRunResult ShardedRuntime::run_workload(
    const trace::Workload& workload) {
  for (std::size_t i = 0; i < workload.packet_count(); ++i) {
    push(workload.materialize(i));
  }
  return finish();
}

const RunStats& ShardedRuntime::run(const trace::Workload& workload) {
  last_result_ = run_workload(workload);
  return last_result_.stats;
}

const RunStats& ShardedRuntime::run(
    const std::vector<net::Packet>& packets,
    std::vector<net::Packet>* outputs) {
  last_result_ = run_packets(packets);
  if (outputs != nullptr) *outputs = last_result_.packets;
  return last_result_.stats;
}

void ShardedRuntime::attach_telemetry(telemetry::Registry* registry,
                                      const std::string& label) {
  if (next_index_ != 0) {
    throw std::logic_error(
        "ShardedRuntime::attach_telemetry after first push");
  }
  registry_ = registry;
  label_prefix_ = label + "/shard";
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    if (registry == nullptr) {
      shard.metrics = nullptr;
      shard.runner->set_telemetry(nullptr);
      continue;
    }
    shard.metrics = &registry->create_shard(
        label_prefix_ + std::to_string(s), shard.chain->nf_names());
    shard.metrics->ring_capacity.set(shard.ring->capacity());
    shard.runner->set_telemetry(shard.metrics);
  }
}

void ShardedRuntime::set_overload_policy(const OverloadConfig& config) {
  if (next_index_ != 0) {
    throw std::logic_error(
        "ShardedRuntime::set_overload_policy after first push");
  }
  overload_ = config;
  overload_set_ = true;
  for (auto& shard : shards_) {
    shard->runner->set_overload_policy(config);
    const auto capacity = static_cast<double>(shard->ring->capacity());
    shard->ring->set_watermarks(
        static_cast<std::size_t>(config.high_watermark * capacity),
        static_cast<std::size_t>(config.low_watermark * capacity));
  }
}

}  // namespace speedybox::runtime
