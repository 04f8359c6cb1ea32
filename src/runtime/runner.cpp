#include "runtime/runner.hpp"

#include <algorithm>
#include <unordered_set>

#include "core/flow_table.hpp"
#include "net/checksum.hpp"
#include "util/cycle_clock.hpp"
#include "util/field_count.hpp"

namespace speedybox::runtime {

/// Merge-site guard: merge_from below copies field by field, so a new
/// RunStats field that is not added there silently vanishes from every
/// sharded result. If this assert fires, extend merge_from (and, for a
/// counter that telemetry mirrors, telemetry/metrics.cpp's snapshot name
/// lists) and then bump the count.
static_assert(util::field_count<RunStats>() == 17,
              "RunStats changed: update RunStats::merge_from and this count");

double RunStats::rate_mpps(platform::PlatformKind) const {
  double bottleneck = 0.0;
  for (std::size_t i = 0; i < stage_cycle_sum.size(); ++i) {
    if (stage_cycle_count[i] == 0) continue;
    bottleneck = std::max(bottleneck, stage_cycle_sum[i] /
                                          static_cast<double>(
                                              stage_cycle_count[i]));
  }
  if (bottleneck <= 0.0) return 0.0;
  return util::CycleClock::frequency_hz() / bottleneck / 1e6;
}

void RunStats::merge_from(const RunStats& other) {
  latency_us_all.merge(other.latency_us_all);
  latency_us_initial.merge(other.latency_us_initial);
  latency_us_subsequent.merge(other.latency_us_subsequent);
  latency_us_subsequent_sequential.merge(
      other.latency_us_subsequent_sequential);
  work_cycles_initial.merge(other.work_cycles_initial);
  work_cycles_subsequent.merge(other.work_cycles_subsequent);
  platform_cycles_initial.merge(other.platform_cycles_initial);
  platform_cycles_subsequent.merge(other.platform_cycles_subsequent);

  packets += other.packets;
  drops += other.drops;
  events_triggered += other.events_triggered;

  const auto grow = [](auto& vec, std::size_t size) {
    if (vec.size() < size) vec.resize(size, 0);
  };
  grow(per_nf_cycle_sum, other.per_nf_cycle_sum.size());
  grow(per_nf_cycle_count, other.per_nf_cycle_count.size());
  for (std::size_t i = 0; i < other.per_nf_cycle_sum.size(); ++i) {
    per_nf_cycle_sum[i] += other.per_nf_cycle_sum[i];
  }
  for (std::size_t i = 0; i < other.per_nf_cycle_count.size(); ++i) {
    per_nf_cycle_count[i] += other.per_nf_cycle_count[i];
  }
  per_nf_mean_cycles.assign(per_nf_cycle_sum.size(), 0.0);
  for (std::size_t i = 0; i < per_nf_cycle_sum.size(); ++i) {
    if (i < per_nf_cycle_count.size() && per_nf_cycle_count[i] > 0) {
      per_nf_mean_cycles[i] = static_cast<double>(per_nf_cycle_sum[i]) /
                              static_cast<double>(per_nf_cycle_count[i]);
    }
  }

  grow(stage_cycle_sum, other.stage_cycle_sum.size());
  grow(stage_cycle_count, other.stage_cycle_count.size());
  for (std::size_t i = 0; i < other.stage_cycle_sum.size(); ++i) {
    stage_cycle_sum[i] += other.stage_cycle_sum[i];
  }
  for (std::size_t i = 0; i < other.stage_cycle_count.size(); ++i) {
    stage_cycle_count[i] += other.stage_cycle_count[i];
  }

  overload.merge_from(other.overload);
}

ChainRunner::ChainRunner(ServiceChain& chain, RunConfig config,
                         const platform::PlatformCosts& costs)
    : chain_(chain),
      config_(config),
      costs_(costs),
      batch_(std::max<std::size_t>(1, config.batch_size)) {
  per_nf_cycle_sum_.assign(chain.size(), 0);
  per_nf_cycle_count_.assign(chain.size(), 0);
  if (config_.overload.enabled) {
    controller_ = std::make_unique<OverloadController>(config_.overload);
  }
}

void ChainRunner::attach_telemetry(telemetry::Registry* registry,
                                   const std::string& label) {
  if (registry == nullptr) {
    set_telemetry(nullptr);
    return;
  }
  set_telemetry(&registry->create_shard(label, chain_.nf_names()));
}

void ChainRunner::set_overload_policy(const OverloadConfig& config) {
  config_.overload = config;
  controller_ = config.enabled
                    ? std::make_unique<OverloadController>(config)
                    : nullptr;
}

bool ChainRunner::ingress_admit(net::Packet& packet,
                                PacketOutcome& outcome) {
  if (controller_ == nullptr) return true;
  ++stats_.overload.offered;

  // Flow hash for the per-flow-fair band; under slo-early-drop, ask the
  // classifier (side-effect-free peek) and the Global MAT whether this
  // flow's consolidated rule is already a settled drop. All unmeasured:
  // shedding here is the near-zero-cycle path.
  std::uint64_t flow_hash = 0;
  bool doomed = false;
  if (const auto parsed = net::parse_packet(packet)) {
    const net::FiveTuple tuple = net::extract_five_tuple(packet, *parsed);
    flow_hash = tuple.hash();
    if (config_.speedybox &&
        config_.overload.policy == DropPolicy::kSloEarlyDrop) {
      if (const auto fid = chain_.classifier().peek(tuple)) {
        doomed = chain_.global_mat().rule_marked_drop(*fid);
      }
    }
  }

  const auto decision = controller_->offer(flow_hash, doomed);
  // The controller owns the authoritative episode counts; mirror them into
  // the mergeable stats (assignment, not increment — always current).
  stats_.overload.degraded_episodes = controller_->degraded_episodes();
  stats_.overload.degraded_episode_packets =
      controller_->degraded_episode_packets();
  if (metrics_ != nullptr) {
    metrics_->queue_depth.set(
        static_cast<std::uint64_t>(controller_->queue_depth()));
    if (const auto episode = controller_->take_finished_episode()) {
      metrics_->degraded_episode_packets.record(*episode);
    }
  } else {
    controller_->take_finished_episode();  // keep the latch drained
  }

  switch (decision) {
    case OverloadController::Decision::kAdmit:
      ++stats_.overload.admitted;
      if (metrics_ != nullptr) metrics_->admitted.add(1);
      return true;
    case OverloadController::Decision::kShedAdmission:
      ++stats_.overload.shed_admission;
      if (metrics_ != nullptr) metrics_->shed_admission.add(1);
      break;
    case OverloadController::Decision::kShedWatermark:
      ++stats_.overload.shed_watermark;
      if (metrics_ != nullptr) metrics_->shed_watermark.add(1);
      break;
    case OverloadController::Decision::kShedEarlyDrop:
      ++stats_.overload.shed_early_drop;
      if (metrics_ != nullptr) metrics_->shed_early_drop.add(1);
      break;
  }
  packet.mark_dropped();
  outcome.dropped = true;
  outcome.shed = true;
  return false;
}

void ChainRunner::add_stage_sample(std::size_t stage, std::uint64_t cycles) {
  if (stats_.stage_cycle_sum.size() <= stage) {
    stats_.stage_cycle_sum.resize(stage + 1, 0.0);
    stats_.stage_cycle_count.resize(stage + 1, 0);
  }
  stats_.stage_cycle_sum[stage] += static_cast<double>(cycles);
  ++stats_.stage_cycle_count[stage];
}

PacketOutcome ChainRunner::process_original(net::Packet& packet) {
  PacketOutcome outcome;
  // Telemetry (incl. span sampling decisions) stays outside the measured
  // segments: each NF is timed with its own timer pair, so everything the
  // hooks do between segments never shows up in the reported cycles.
  telemetry::SpanRecorder* spans =
      metrics_ != nullptr && metrics_->spans.enabled() ? &metrics_->spans
                                                       : nullptr;
  bool trace = false;
  // Stats-only init/sub tagging, outside the measured region.
  if (const auto parsed = net::parse_packet(packet)) {
    const net::FiveTuple tuple = net::extract_five_tuple(packet, *parsed);
    outcome.initial = seen_tuples_.insert(tuple).second;
    if (parsed->has_fin_or_rst()) seen_tuples_.erase(tuple);
    if (spans != nullptr && spans->should_sample(tuple.hash())) {
      trace = true;
      spans->begin(tuple.hash(), net::kInvalidFid, util::CycleClock::now());
    }
  }

  const bool onvm = config_.platform == platform::PlatformKind::kOnvm;
  const std::uint64_t hop =
      onvm ? costs_.onvm_ring_hop_cycles : costs_.bess_hop_cycles;
  // Scalar = a burst of one: the packet carries the whole rx fixed cost.
  const std::uint64_t ingress = costs_.rx_burst_fixed_cycles;

  for (std::size_t i = 0; i < chain_.size(); ++i) {
    const std::uint64_t t0 = util::CycleClock::now();
    chain_.nf(i).process(packet, nullptr);
    const std::uint64_t cycles =
        util::CycleClock::segment(t0, util::CycleClock::now());

    outcome.work_cycles += cycles;
    outcome.latency_cycles += cycles + hop;
    if (config_.measure_per_nf) {
      per_nf_cycle_sum_[i] += cycles + hop;
      ++per_nf_cycle_count_[i];
    }
    if (metrics_ != nullptr && i < metrics_->per_nf.size()) {
      metrics_->per_nf[i].packets.add(1);
      metrics_->per_nf[i].cycles.record(cycles);
    }
    if (trace) {
      spans->event(telemetry::SpanStage::kNf, outcome.work_cycles,
                   static_cast<int>(i));
    }
    // ONVM pipeline: each NF core is a stage (steady state only); the
    // first stage fronts the rx burst.
    if (onvm && !outcome.initial) {
      add_stage_sample(i, cycles + hop + (i == 0 ? ingress : 0));
    }

    if (packet.dropped()) {
      outcome.dropped = true;
      outcome.faulted = packet.faulted();
      break;
    }
  }
  outcome.latency_cycles += ingress;
  outcome.platform_cycles = outcome.latency_cycles;
  // BESS run-to-completion: one logical stage.
  if (!onvm && !outcome.initial) add_stage_sample(0, outcome.latency_cycles);
  if (trace) {
    spans->finish(/*fast_path=*/false, outcome.dropped,
                  outcome.work_cycles);
  }
  return outcome;
}

void ChainRunner::run_recording_path(
    net::Packet& packet,
    const core::PacketClassifier::Classification& classification,
    std::uint64_t classify_cycles, std::uint64_t t_start,
    std::uint64_t ingress_cycles, PacketOutcome& outcome) {
  const bool onvm = config_.platform == platform::PlatformKind::kOnvm;
  const std::uint64_t hop =
      onvm ? costs_.onvm_ring_hop_cycles : costs_.bess_hop_cycles;

  outcome.work_cycles = classify_cycles;
  outcome.latency_cycles = classify_cycles + ingress_cycles;
  // Slow path: each segment below has its own timer pair, so telemetry
  // between segments stays invisible to the reported cycles.
  telemetry::SpanRecorder* spans =
      metrics_ != nullptr && metrics_->spans.enabled() ? &metrics_->spans
                                                       : nullptr;
  bool trace = false;
  if (metrics_ != nullptr) {
    metrics_->classify_cycles.record(classify_cycles);
    if (spans != nullptr && spans->should_sample(classification.fid)) {
      trace = true;
      spans->begin(classification.fid, classification.fid, t_start);
      spans->event(telemetry::SpanStage::kClassify, classify_cycles);
    }
  }
  // Recording pass down the original chain, then consolidation.
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    core::SpeedyBoxContext ctx{chain_.local_mat(i),
                               chain_.global_mat().event_table(),
                               classification.fid};
    const std::uint64_t t0 = util::CycleClock::now();
    chain_.nf(i).process(packet, &ctx);
    const std::uint64_t cycles =
        util::CycleClock::segment(t0, util::CycleClock::now());
    outcome.work_cycles += cycles;
    outcome.latency_cycles += cycles + hop;
    if (metrics_ != nullptr && i < metrics_->per_nf.size()) {
      metrics_->per_nf[i].packets.add(1);
      metrics_->per_nf[i].cycles.record(cycles);
    }
    if (trace) {
      spans->event(telemetry::SpanStage::kNf, outcome.work_cycles,
                   static_cast<int>(i));
    }
    if (packet.dropped()) {
      outcome.dropped = true;
      outcome.faulted = packet.faulted();
      break;
    }
  }
  const std::uint64_t t0 = util::CycleClock::now();
  chain_.global_mat().consolidate_flow(classification.fid);
  const std::uint64_t consolidate_cycles =
      util::CycleClock::segment(t0, util::CycleClock::now());
  outcome.work_cycles += consolidate_cycles;
  outcome.latency_cycles += consolidate_cycles;
  outcome.platform_cycles = outcome.latency_cycles;
  if (metrics_ != nullptr) {
    metrics_->consolidations.add(1);
    metrics_->consolidate_cycles.record(consolidate_cycles);
    metrics_->active_flows.set(chain_.classifier().active_flows());
    const core::FlowTableStats ft = chain_.flow_table_stats();
    metrics_->set_flow_table(ft.entries, ft.capacity, ft.slab_bytes,
                             ft.max_probe, ft.resize_steps);
  }
  if (trace) {
    spans->event(telemetry::SpanStage::kConsolidate, outcome.work_cycles);
    spans->finish(/*fast_path=*/false, outcome.dropped,
                  outcome.work_cycles);
  }
}

void ChainRunner::run_fast_path(
    net::Packet& packet,
    const core::PacketClassifier::Classification& classification,
    std::uint64_t t_start, std::uint64_t classify_cycles_ahead,
    std::uint64_t ingress_cycles, PacketOutcome& outcome) {
  const bool onvm = config_.platform == platform::PlatformKind::kOnvm;
  const std::uint64_t hop =
      onvm ? costs_.onvm_ring_hop_cycles : costs_.bess_hop_cycles;

  // Fast path: Global MAT (event check + consolidated HA + SF batches).
  const auto result = chain_.global_mat().process(
      packet, /*measure_batches=*/true, &classification.parsed);
  // Remove this measurement's own overhead plus that of the timer pairs
  // GlobalMat used internally for batch attribution, then add back the
  // classifier cycles measured outside this region (the batched pass times
  // classification once per burst; scalar callers pass 0 and start the
  // region before classify).
  const std::uint64_t raw = util::CycleClock::now() - t_start;
  const std::uint64_t timer_cost =
      util::CycleClock::timer_overhead() * (1 + result.timer_pairs);
  const std::uint64_t total =
      classify_cycles_ahead + (raw > timer_cost ? raw - timer_cost : 0);

  outcome.dropped = result.dropped;
  outcome.degraded = result.degraded_rule;
  outcome.events_triggered = result.events_triggered;
  outcome.work_cycles = total;
  outcome.platform_cycles = total + hop + ingress_cycles;

  // Latency model: everything except the state functions (classifier,
  // event check, consolidated header action) is serial; state functions
  // contribute their Table-I critical path plus one fork/join per
  // multi-batch group — adaptively: a group is only dispatched in
  // parallel when the overlap actually beats the fork/join cost, so
  // parallelism never makes latency worse. With parallelism modeling off
  // (Fig. 7 ablation) state functions count sequentially.
  const std::uint64_t serial =
      total > result.sf_total_cycles ? total - result.sf_total_cycles : 0;
  std::uint64_t sf_cycles = result.sf_total_cycles;
  if (config_.model_parallelism && result.multi_batch_groups > 0) {
    const std::uint64_t parallel =
        result.sf_critical_path_cycles +
        costs_.fork_join_cycles *
            static_cast<std::uint64_t>(result.multi_batch_groups);
    sf_cycles = std::min(sf_cycles, parallel);
  }
  outcome.fast_path = true;
  outcome.latency_cycles = serial + sf_cycles + hop + ingress_cycles;
  outcome.latency_cycles_sequential =
      serial + result.sf_total_cycles + hop + ingress_cycles;

  // Rate model stages (steady state): the serial front end and the
  // state-function execution pipeline against each other on ONVM; on
  // BESS the whole fast path is one logical stage. The front end fronts
  // the rx burst, so its stage carries the ingress share.
  if (onvm) {
    add_stage_sample(0, serial + hop + ingress_cycles);
    if (sf_cycles > 0) add_stage_sample(1, sf_cycles);
  } else {
    add_stage_sample(0, outcome.latency_cycles);
  }

  // Fast path: one timer pair brackets the whole path, so every hook —
  // including the sampling decision — runs after the closing now().
  // Span events are rebuilt from the already-measured splits.
  telemetry::SpanRecorder* spans =
      metrics_ != nullptr && metrics_->spans.enabled() ? &metrics_->spans
                                                       : nullptr;
  if (spans != nullptr && spans->should_sample(classification.fid)) {
    spans->begin(classification.fid, classification.fid, t_start);
    spans->event(telemetry::SpanStage::kHeaderAction, serial);
    if (result.sf_total_cycles > 0) {
      spans->event(telemetry::SpanStage::kStateFunctions, total);
    }
    spans->finish(/*fast_path=*/true, outcome.dropped, total);
  }
}

void ChainRunner::apply_teardown(
    const core::PacketClassifier::Classification& classification) {
  // Flow teardown (FIN/RST): free all rules and the FID (§VI-B).
  if (!classification.teardown) return;
  chain_.global_mat().erase_flow(classification.fid);
  chain_.classifier().release_flow(classification.fid);
  if (metrics_ != nullptr) {
    metrics_->teardowns.add(1);
    metrics_->active_flows.set(chain_.classifier().active_flows());
    const core::FlowTableStats ft = chain_.flow_table_stats();
    metrics_->set_flow_table(ft.entries, ft.capacity, ft.slab_bytes,
                             ft.max_probe, ft.resize_steps);
  }
}

PacketOutcome ChainRunner::process_speedybox(net::Packet& packet) {
  PacketOutcome outcome;
  // One timer pair covers classification AND the fast path, so per-packet
  // measurement overhead matches the original path's per-NF timers.
  // Scalar = a burst of one: the packet carries the whole rx fixed cost.
  const std::uint64_t ingress = costs_.rx_burst_fixed_cycles;
  const std::uint64_t t_start = util::CycleClock::now();
  const auto classification = chain_.classifier().classify(packet);
  if (!classification) {
    packet.mark_dropped();
    outcome.dropped = true;
    outcome.work_cycles = util::CycleClock::now() - t_start;
    outcome.platform_cycles = outcome.latency_cycles =
        outcome.work_cycles + ingress;
    return outcome;
  }

  outcome.initial =
      classification->path == core::PacketClassifier::Path::kInitial;
  if (outcome.initial && recording_suspended()) {
    // Graceful degradation (DESIGN.md §9): no recording traversal — the
    // flow gets a pre-consolidated pure-forward default rule and this
    // packet executes it on the fast path. The install cost lands inside
    // the measured region, which is honest: degraded initials pay it.
    chain_.global_mat().install_default_rule(classification->fid);
    ++stats_.overload.degraded_flows;
    if (metrics_ != nullptr) metrics_->degraded_flows.add(1);
    run_fast_path(packet, *classification, t_start,
                  /*classify_cycles_ahead=*/0, ingress, outcome);
  } else if (outcome.initial) {
    const std::uint64_t classify_cycles =
        util::CycleClock::segment(t_start, util::CycleClock::now());
    run_recording_path(packet, *classification, classify_cycles, t_start,
                       ingress, outcome);
  } else {
    run_fast_path(packet, *classification, t_start,
                  /*classify_cycles_ahead=*/0, ingress, outcome);
  }
  apply_teardown(*classification);
  return outcome;
}

PacketOutcome ChainRunner::process_packet(net::Packet& packet) {
  if (controller_ != nullptr) {
    PacketOutcome shed_outcome;
    if (!ingress_admit(packet, shed_outcome)) return shed_outcome;
  }
  const PacketOutcome outcome = config_.speedybox
                                    ? process_speedybox(packet)
                                    : process_original(packet);
  account(outcome);
  return outcome;
}

void ChainRunner::process_batch(net::PacketBatch& batch,
                                std::vector<PacketOutcome>& outcomes) {
  outcomes.assign(batch.size(), PacketOutcome{});
  if (batch.empty()) return;
  if (controller_ != nullptr) {
    // Ingress gate, in slot order, before any chain work: shed slots are
    // masked out of the traversal (they never entered the data path and
    // are not counted in RunStats.packets).
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!batch.valid(i)) continue;
      if (!ingress_admit(batch.packet(i), outcomes[i])) batch.mask(i);
    }
  }
  if (metrics_ != nullptr) metrics_->batch_occupancy.record(batch.size());
  if (config_.speedybox) {
    process_speedybox_batch(batch, outcomes);
  } else {
    process_original_batch(batch, outcomes);
  }
}

void ChainRunner::process_original_batch(
    net::PacketBatch& batch, std::vector<PacketOutcome>& outcomes) {
  const bool onvm = config_.platform == platform::PlatformKind::kOnvm;
  const std::uint64_t hop =
      onvm ? costs_.onvm_ring_hop_cycles : costs_.bess_hop_cycles;
  const std::size_t n = batch.size();

  // Pre-pass in slot order, outside the measured regions: stats-side
  // init/sub tagging and span sampling, exactly the per-packet bookkeeping
  // the scalar path does before its NF loop. The insert/erase sequence on
  // seen_tuples_ only depends on the tuple order, which slots preserve.
  telemetry::SpanRecorder* spans =
      metrics_ != nullptr && metrics_->spans.enabled() ? &metrics_->spans
                                                       : nullptr;
  std::vector<std::uint8_t>& traced = slot_traced_;
  traced.assign(n, 0);
  // Slots already masked when the batch arrives are skipped end to end —
  // only slots live here are processed and accounted.
  std::vector<std::uint8_t>& entered_batch = slot_entered_batch_;
  entered_batch.assign(n, 0);
  std::size_t live_entry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    entered_batch[i] = batch.valid(i) ? 1 : 0;
    if (!batch.valid(i)) continue;
    ++live_entry;
    if (const auto parsed = net::parse_packet(batch.packet(i))) {
      const net::FiveTuple tuple =
          net::extract_five_tuple(batch.packet(i), *parsed);
      outcomes[i].initial = seen_tuples_.insert(tuple).second;
      if (parsed->has_fin_or_rst()) seen_tuples_.erase(tuple);
      if (spans != nullptr && spans->should_sample(tuple.hash())) {
        traced[i] = 1;
        spans->begin(tuple.hash(), net::kInvalidFid,
                     util::CycleClock::now());
      }
    }
  }

  // One rx-burst fixed cost per batch, shared by the packets that entered
  // it — the vector-I/O amortization (a burst of one pays it all).
  const std::uint64_t ingress =
      live_entry > 0 ? costs_.rx_burst_fixed_cycles / live_entry : 0;

  // NF-major traversal: NF k processes the whole burst (one timer pair per
  // NF per batch), then hands it to NF k+1 — the BESS/VPP execution shape.
  // Per-flow packet order within each NF is slot order, and no state is
  // shared across NFs on the original path, so every NF sees exactly the
  // state and bytes it would packet-at-a-time. A slot masked by NF k
  // (dropped) skips NFs k+1.. — the scalar early exit.
  std::vector<std::uint8_t>& entered = slot_entered_;
  entered.assign(n, 0);
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    std::size_t live = 0;
    for (std::size_t s = 0; s < n; ++s) {
      entered[s] = batch.valid(s) ? 1 : 0;
      live += entered[s];
    }
    if (live == 0) break;

    const std::uint64_t t0 = util::CycleClock::now();
    chain_.nf(i).process_batch(batch, {});
    const std::uint64_t cycles =
        util::CycleClock::segment(t0, util::CycleClock::now());
    // Per-packet attribution: equal share of the batch segment (the batch
    // amortizes the timer pair; at batch size 1 this is the scalar number).
    const std::uint64_t share = cycles / live;

    for (std::size_t s = 0; s < n; ++s) {
      if (entered[s] == 0) continue;
      outcomes[s].work_cycles += share;
      outcomes[s].latency_cycles += share + hop;
      if (config_.measure_per_nf) {
        per_nf_cycle_sum_[i] += share + hop;
        ++per_nf_cycle_count_[i];
      }
      if (metrics_ != nullptr && i < metrics_->per_nf.size()) {
        metrics_->per_nf[i].packets.add(1);
        metrics_->per_nf[i].cycles.record(share);
      }
      if (traced[s] != 0) {
        spans->event(telemetry::SpanStage::kNf, outcomes[s].work_cycles,
                     static_cast<int>(i));
      }
      if (onvm && !outcomes[s].initial) {
        add_stage_sample(i, share + hop + (i == 0 ? ingress : 0));
      }
      if (batch.packet(s).dropped()) {
        outcomes[s].dropped = true;
        outcomes[s].faulted = batch.packet(s).faulted();
      }
    }
  }

  for (std::size_t s = 0; s < n; ++s) {
    if (entered_batch[s] == 0) continue;
    outcomes[s].latency_cycles += ingress;
    outcomes[s].platform_cycles = outcomes[s].latency_cycles;
    if (!onvm && !outcomes[s].initial) {
      add_stage_sample(0, outcomes[s].latency_cycles);
    }
    if (traced[s] != 0) {
      spans->finish(/*fast_path=*/false, outcomes[s].dropped,
                    outcomes[s].work_cycles);
    }
    account(outcomes[s]);
  }
}

void ChainRunner::process_speedybox_batch(
    net::PacketBatch& batch, std::vector<PacketOutcome>& outcomes) {
  const std::size_t n = batch.size();

  // Stateless pre-pass: parse + checksum-validate every live packet once
  // for the whole traversal (what the scalar classifier does per packet).
  auto& parsed = slot_parsed_;
  auto& tuples = slot_tuples_;
  parsed.assign(n, std::nullopt);
  tuples.assign(n, net::FiveTuple{});
  std::size_t live_entry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!batch.valid(i)) continue;
    ++live_entry;
    const net::Packet& packet = batch.packet(i);
    auto p = net::parse_packet(packet);
    if (p && net::verify_ipv4_checksum(packet, p->l3_offset)) {
      tuples[i] = net::extract_five_tuple(packet, *p);
      parsed[i] = *p;
    }
  }
  // One rx-burst fixed cost per batch, shared by the packets that entered
  // it — the vector-I/O amortization (a burst of one pays it all).
  const std::uint64_t ingress =
      live_entry > 0 ? costs_.rx_burst_fixed_cycles / live_entry : 0;

  // Segment loop. Classification is stateful (flow-table inserts, teardown
  // releases), so the burst is classified front-to-back and cut at the one
  // ordering hazard: a packet whose 5-tuple was torn down (FIN/RST) by an
  // EARLIER slot of the same segment must not be classified until that
  // teardown has executed — scalar would see it as a fresh flow. Everything
  // else (initial-then-subsequent of one flow, cross-flow interleavings)
  // classifies identically up front because execution never touches the
  // classifier outside apply_teardown.
  auto& classifications = slot_classifications_;
  classifications.assign(n, std::nullopt);
  std::vector<net::FiveTuple>& torn = torn_tuples_;
  std::size_t begin = 0;
  while (begin < n) {
    torn.clear();
    // Pass 1: classify the segment under ONE timer pair — the classifier
    // cost amortizes across the burst instead of paying a pair per packet.
    std::size_t end = begin;
    std::size_t classified = 0;
    const std::uint64_t t0 = util::CycleClock::now();
    for (; end < n; ++end) {
      if (!batch.valid(end)) continue;
      if (parsed[end] &&
          std::find(torn.begin(), torn.end(), tuples[end]) != torn.end()) {
        break;  // flush boundary: reuse of a just-torn-down tuple
      }
      classifications[end] = chain_.classifier().classify(
          batch.packet(end), parsed[end] ? &*parsed[end] : nullptr);
      ++classified;
      if (classifications[end] && classifications[end]->teardown) {
        torn.push_back(tuples[end]);
      }
    }
    const std::uint64_t classify_segment =
        util::CycleClock::segment(t0, util::CycleClock::now());
    const std::uint64_t classify_share =
        classified > 0 ? classify_segment / classified : 0;

    // Pass 2: warm the Global MAT — prefetch the consolidated rule of
    // every fast-path slot before any of them executes.
    for (std::size_t i = begin; i < end; ++i) {
      if (!batch.valid(i) || !classifications[i]) continue;
      if (classifications[i]->path ==
          core::PacketClassifier::Path::kSubsequent) {
        chain_.global_mat().prefetch(classifications[i]->fid);
      }
    }

    // Pass 3: execute in slot order — recording packets take the scalar
    // recording pass (DESIGN.md §8: once per flow, and its Local MAT
    // writes must interleave exactly as scalar), fast-path packets run the
    // consolidated rule, teardowns release their flow, all exactly where
    // the scalar loop would.
    for (std::size_t i = begin; i < end; ++i) {
      if (!batch.valid(i)) continue;
      PacketOutcome& outcome = outcomes[i];
      if (!classifications[i]) {
        batch.packet(i).mark_dropped();
        outcome.dropped = true;
        outcome.work_cycles = classify_share;
        outcome.platform_cycles = outcome.latency_cycles =
            classify_share + ingress;
        batch.mask(i);
        account(outcome);
        continue;
      }
      const auto& classification = *classifications[i];
      outcome.initial =
          classification.path == core::PacketClassifier::Path::kInitial;
      if (outcome.initial && recording_suspended()) {
        chain_.global_mat().install_default_rule(classification.fid);
        ++stats_.overload.degraded_flows;
        if (metrics_ != nullptr) metrics_->degraded_flows.add(1);
        const std::uint64_t t_fast = util::CycleClock::now();
        run_fast_path(batch.packet(i), classification, t_fast,
                      classify_share, ingress, outcome);
      } else if (outcome.initial) {
        run_recording_path(batch.packet(i), classification, classify_share,
                           t0, ingress, outcome);
      } else {
        const std::uint64_t t_fast = util::CycleClock::now();
        run_fast_path(batch.packet(i), classification, t_fast,
                      classify_share, ingress, outcome);
      }
      apply_teardown(classification);
      if (outcome.dropped) batch.mask(i);
      account(outcome);
    }
    begin = end;
  }
}

void ChainRunner::account(const PacketOutcome& outcome) {
  ++stats_.packets;
  // Faulted packets are dropped too, but counted apart from policy/NF
  // drops so conservation (packets = delivered + drops + faulted) can
  // separate failures from behavior.
  if (outcome.faulted) {
    ++stats_.overload.faulted;
  } else if (outcome.dropped) {
    ++stats_.drops;
  }
  if (outcome.degraded) ++stats_.overload.degraded_packets;
  stats_.events_triggered += outcome.events_triggered;

  if (metrics_ != nullptr) {
    metrics_->packets.add(1);
    if (outcome.faulted) {
      metrics_->faulted.add(1);
    } else if (outcome.dropped) {
      metrics_->drops.add(1);
    }
    if (outcome.degraded) metrics_->degraded_packets.add(1);
    if (outcome.events_triggered > 0) {
      metrics_->events_triggered.add(outcome.events_triggered);
    }
    if (config_.speedybox) {
      metrics_->classifier_lookups.add(1);
      if (outcome.initial) {
        metrics_->mat_misses.add(1);
      } else if (outcome.fast_path) {
        metrics_->mat_hits.add(1);
      }
    }
    if (outcome.fast_path) {
      metrics_->fastpath_cycles.record(outcome.work_cycles);
    } else if (outcome.initial || !config_.speedybox) {
      metrics_->slowpath_cycles.record(outcome.work_cycles);
    }
  }

  double latency_us = util::CycleClock::to_us(outcome.latency_cycles);
  if (controller_ != nullptr) {
    // Queueing delay model (stats-only, DESIGN.md §9): a packet admitted
    // behind a virtual queue of depth d waits ~d service times. The EMA is
    // fed the pure service latency before the wait is added, so the model
    // never compounds itself. Bounded queue => bounded reported tail.
    service_ema_us_ = service_ema_us_ <= 0.0
                          ? latency_us
                          : 0.99 * service_ema_us_ + 0.01 * latency_us;
    latency_us += controller_->queue_depth() * service_ema_us_;
  }
  stats_.latency_us_all.add(latency_us);
  if (outcome.initial) {
    stats_.latency_us_initial.add(latency_us);
    stats_.work_cycles_initial.add(
        static_cast<double>(outcome.work_cycles));
    stats_.platform_cycles_initial.add(
        static_cast<double>(outcome.platform_cycles));
  } else {
    stats_.latency_us_subsequent.add(latency_us);
    stats_.work_cycles_subsequent.add(
        static_cast<double>(outcome.work_cycles));
    stats_.platform_cycles_subsequent.add(
        static_cast<double>(outcome.platform_cycles));
    if (outcome.fast_path) {
      stats_.latency_us_subsequent_sequential.add(
          util::CycleClock::to_us(outcome.latency_cycles_sequential));
    }
  }

  if (config_.measure_per_nf) {
    stats_.per_nf_cycle_sum = per_nf_cycle_sum_;
    stats_.per_nf_cycle_count = per_nf_cycle_count_;
    stats_.per_nf_mean_cycles.assign(per_nf_cycle_sum_.size(), 0.0);
    for (std::size_t i = 0; i < per_nf_cycle_sum_.size(); ++i) {
      if (per_nf_cycle_count_[i] > 0) {
        stats_.per_nf_mean_cycles[i] =
            static_cast<double>(per_nf_cycle_sum_[i]) /
            static_cast<double>(per_nf_cycle_count_[i]);
      }
    }
  }
}

std::size_t ChainRunner::expire_idle_flows(double max_idle_us) {
  if (!config_.speedybox) return 0;
  const std::vector<std::uint32_t> idle = chain_.classifier().collect_idle(
      util::CycleClock::now(),
      util::CycleClock::from_ns(max_idle_us * 1e3));
  for (const std::uint32_t fid : idle) {
    chain_.global_mat().erase_flow(fid);
    chain_.classifier().release_flow(fid);
  }
  return idle.size();
}

const RunStats& ChainRunner::run_packets(
    const std::vector<net::Packet>& packets,
    std::vector<net::Packet>* outputs) {
  // Per-flow time keyed by the pre-chain tuple: one slab record per flow,
  // one hash per packet.
  core::FlowTable<net::FiveTuple, double> flow_time;
  const std::size_t burst = batch_.capacity();
  std::vector<net::Packet> local(burst);
  std::vector<std::optional<net::FiveTuple>> tuples(burst);
  if (outputs != nullptr) {
    outputs->clear();
    outputs->reserve(packets.size());
  }
  for (std::size_t offset = 0; offset < packets.size();) {
    const std::size_t chunk = std::min(burst, packets.size() - offset);
    batch_.clear();
    for (std::size_t k = 0; k < chunk; ++k) {
      local[k] = packets[offset + k];
      local[k].reset_metadata();
      // Key flow time by the pre-chain tuple (unmeasured bookkeeping).
      tuples[k].reset();
      if (const auto parsed = net::parse_packet(local[k])) {
        tuples[k] = net::extract_five_tuple(local[k], *parsed);
      }
      local[k].set_arrival_cycle(util::CycleClock::now());
      batch_.push(&local[k]);
    }
    process_batch(batch_, batch_outcomes_);
    for (std::size_t k = 0; k < chunk; ++k) {
      if (tuples[k]) {
        *flow_time.try_emplace(*tuples[k], 0.0).first +=
            util::CycleClock::to_us(batch_outcomes_[k].latency_cycles);
      }
      if (outputs != nullptr) outputs->push_back(local[k]);
    }
    offset += chunk;
  }
  flow_time_us_.clear();
  flow_time.for_each([this](const net::FiveTuple&, double time_us) {
    flow_time_us_.add(time_us);
  });
  return stats_;
}

const RunStats& ChainRunner::run_workload(const trace::Workload& workload) {
  std::vector<double> flow_time_us(workload.flows.size(), 0.0);
  const std::size_t burst = batch_.capacity();
  std::vector<net::Packet> local(burst);
  const std::size_t total = workload.order.size();
  for (std::size_t offset = 0; offset < total;) {
    const std::size_t chunk = std::min(burst, total - offset);
    batch_.clear();
    for (std::size_t k = 0; k < chunk; ++k) {
      local[k] = workload.materialize(offset + k);
      local[k].set_arrival_cycle(util::CycleClock::now());
      batch_.push(&local[k]);
    }
    process_batch(batch_, batch_outcomes_);
    for (std::size_t k = 0; k < chunk; ++k) {
      flow_time_us[workload.order[offset + k].flow] +=
          util::CycleClock::to_us(batch_outcomes_[k].latency_cycles);
    }
    offset += chunk;
  }
  flow_time_us_.clear();
  for (const double t : flow_time_us) flow_time_us_.add(t);
  return stats_;
}

}  // namespace speedybox::runtime
