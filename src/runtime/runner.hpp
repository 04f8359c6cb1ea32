// ChainRunner: executes packets through a ServiceChain under one of four
// configurations — {BESS, ONVM} × {original, SpeedyBox} — with per-packet
// cycle accounting.
//
// Measurement model (DESIGN.md §1/§5):
//   * work cycles   — really-executed CPU cycles (parsing, table lookups,
//                     inspections, consolidations). This is what the
//                     "CPU cycle per packet" figures report.
//   * latency       — work cycles plus the platform's modeled hand-off
//                     costs (BESS module hop / ONVM descriptor ring hop)
//                     plus the packet's share of the per-burst rx fixed
//                     cost (rx_burst_fixed_cycles / burst occupancy — the
//                     vector-I/O amortization, DESIGN.md §8), with
//                     state-function parallelism accounted as the Table-I
//                     critical path plus a fork/join cost.
//   * rate (Mpps)   — BESS runs to completion on one logical pipeline:
//                     rate = f / mean-latency-cycles. ONVM is pipelined
//                     across cores: rate = f / bottleneck-stage cycles.
//
// Original mode runs the chain exactly like an unmodified platform: no
// classifier, no MATs, NFs see every packet (ctx = nullptr).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include <memory>

#include "core/classifier.hpp"
#include "net/packet.hpp"
#include "net/packet_batch.hpp"
#include "platform/costs.hpp"
#include "runtime/chain.hpp"
#include "runtime/executor.hpp"
#include "runtime/overload.hpp"
#include "telemetry/metrics.hpp"
#include "trace/workload.hpp"
#include "util/histogram.hpp"

namespace speedybox::runtime {

struct RunConfig {
  platform::PlatformKind platform = platform::PlatformKind::kBess;
  bool speedybox = true;
  /// Record per-NF cycle attribution (Table III).
  bool measure_per_nf = false;
  /// Account state-function execution as the Table-I critical path (the
  /// §V-C2 optimization). Disabled, state functions count sequentially —
  /// the ablation Fig. 7 uses to split the HA vs SF contributions.
  bool model_parallelism = true;
  /// Burst size the run loops drain in (DESIGN.md §8). 1 degenerates to
  /// packet-at-a-time; results are bit-identical at every size (the
  /// differential harness proves it) — only the amortization changes.
  std::size_t batch_size = net::kDefaultBatchSize;
  /// Overload control (DESIGN.md §9). Disabled: the ingress gate does not
  /// exist and the data path is byte-identical to a config without it.
  OverloadConfig overload{};
};

struct PacketOutcome {
  bool initial = false;
  bool dropped = false;
  bool fast_path = false;  // subsequent packet on the SpeedyBox path
  std::uint64_t work_cycles = 0;     // really-executed CPU cycles
  /// work + per-NF platform framework overhead (no parallelism discount) —
  /// the "CPU cycle per packet" a platform-level measurement reports, which
  /// is what the paper's Fig. 4/6 and Table III count.
  std::uint64_t platform_cycles = 0;
  std::uint64_t latency_cycles = 0;  // platform cycles w/ parallel overlap
  /// Fast path only: latency with state functions accounted sequentially.
  std::uint64_t latency_cycles_sequential = 0;
  std::size_t events_triggered = 0;
  /// Overload/fault disposition (DESIGN.md §9). `shed`: refused at the
  /// ingress gate (also dropped; never entered the chain, not counted in
  /// RunStats.packets). `faulted`: lost to an injected NF failure (also
  /// dropped; counted in overload.faulted, not in drops). `degraded`:
  /// executed a degraded-mode default rule.
  bool shed = false;
  bool faulted = false;
  bool degraded = false;
};

/// Aggregated statistics of a run. Per-packet distributions are
/// fixed-footprint streaming histograms (util::LogHistogram: exact count,
/// sum, min and max; percentiles within 1/64 relative error), so a run's
/// accounting does not grow with its packet count (DESIGN.md §5).
struct RunStats {
  util::LogHistogram latency_us_all;
  util::LogHistogram latency_us_initial;
  util::LogHistogram latency_us_subsequent;
  /// Same packets, with state functions accounted sequentially (parallelism
  /// off) — lets the Fig. 7 ablation split HA vs SF contributions from one
  /// run, free of cross-run noise. Only filled on the SpeedyBox fast path.
  util::LogHistogram latency_us_subsequent_sequential;
  util::LogHistogram work_cycles_initial;
  util::LogHistogram work_cycles_subsequent;
  util::LogHistogram platform_cycles_initial;
  util::LogHistogram platform_cycles_subsequent;

  std::uint64_t packets = 0;
  std::uint64_t drops = 0;
  std::uint64_t events_triggered = 0;

  /// Per-NF mean work cycles on the original path (measure_per_nf).
  std::vector<double> per_nf_mean_cycles;
  /// Raw per-NF sums/counts behind the means — kept so per-shard stats can
  /// be merged exactly instead of averaging averages.
  std::vector<std::uint64_t> per_nf_cycle_sum;
  std::vector<std::uint64_t> per_nf_cycle_count;

  /// Pipeline-stage cycle sums/counts for the rate model (subsequent
  /// packets only; see header comment).
  std::vector<double> stage_cycle_sum;
  std::vector<std::uint64_t> stage_cycle_count;

  /// Shed/degraded/faulted counters (DESIGN.md §9). `packets` above counts
  /// ADMITTED packets only; conservation is
  ///   overload.offered == packets + overload.shed_total()   (gate on)
  ///   packets == delivered + drops + overload.faulted       (always)
  OverloadStats overload;

  /// Steady-state processing rate in Mpps under the platform model.
  double rate_mpps(platform::PlatformKind platform) const;

  /// Absorb another run's statistics (sharded runtime result merging):
  /// histograms add bucket-wise (O(buckets), whatever the packet count),
  /// counters and per-NF/stage sums add, means are recomputed from the
  /// merged sums.
  void merge_from(const RunStats& other);

  double mean_work_cycles_subsequent() const {
    return work_cycles_subsequent.mean();
  }
};

class ChainRunner : public Executor {
 public:
  ChainRunner(ServiceChain& chain, RunConfig config,
              const platform::PlatformCosts& costs =
                  platform::PlatformCosts::calibrated());

  /// Process one packet through the configured data path.
  PacketOutcome process_packet(net::Packet& packet);

  /// Process a whole burst through the configured data path (DESIGN.md §8).
  /// `outcomes` is resized to batch.size() and slot-aligned with the batch.
  /// Semantics are bit-identical to calling process_packet() per slot in
  /// order: drops mask their slot (never compact), and on the SpeedyBox
  /// path the batched classifier pass flushes at a teardown → same-tuple
  /// reuse boundary so a flow torn down mid-batch re-records exactly as it
  /// would packet-at-a-time.
  void process_batch(net::PacketBatch& batch,
                     std::vector<PacketOutcome>& outcomes);

  /// Run a whole workload; returns aggregate stats. Per-flow processing
  /// times (Fig. 9) are recorded into flow_time_us().
  const RunStats& run_workload(const trace::Workload& workload);

  /// Run a raw packet sequence (e.g. from trace::read_pcap). Packets are
  /// copied per run; per-flow times are keyed by five-tuple. When
  /// `outputs` is non-null it receives every packet post-chain in input
  /// order, dropped ones included.
  const RunStats& run_packets(const std::vector<net::Packet>& packets,
                              std::vector<net::Packet>* outputs = nullptr);

  // -- Executor ------------------------------------------------------------
  std::string_view kind() const noexcept override { return "runner"; }
  const RunStats& run(const trace::Workload& workload) override {
    return run_workload(workload);
  }
  const RunStats& run(const std::vector<net::Packet>& packets,
                      std::vector<net::Packet>* outputs) override {
    return run_packets(packets, outputs);
  }
  void attach_telemetry(telemetry::Registry* registry,
                        const std::string& label) override;
  /// Install (or, with enabled=false, remove) the overload controller.
  /// Call before the first packet of a run.
  void set_overload_policy(const OverloadConfig& config) override;

  /// Tear down every flow idle for longer than `max_idle_us` — rule + FID +
  /// NF per-flow state (via teardown hooks). The garbage collection
  /// complementing FIN/RST for UDP and abandoned connections. Returns how
  /// many flows were expired. SpeedyBox mode only (the original path keeps
  /// no rules).
  std::size_t expire_idle_flows(double max_idle_us);

  const RunStats& stats() const noexcept override { return stats_; }
  RunStats& stats() noexcept { return stats_; }

  /// True while the SpeedyBox path records no new flows (graceful
  /// degradation under sustained pressure).
  bool recording_suspended() const noexcept {
    return controller_ != nullptr && controller_->degraded();
  }
  const OverloadController* overload_controller() const noexcept {
    return controller_.get();
  }

  /// Aggregated per-flow processing time in µs (one sample per flow of the
  /// last run_workload call).
  const util::SampleRecorder& flow_time_us() const noexcept {
    return flow_time_us_;
  }

  const RunConfig& config() const noexcept { return config_; }

  /// Attach live telemetry (null detaches — the default). The runner's
  /// thread is the single writer for every cell except the dispatcher-owned
  /// ring gauges (see telemetry/metrics.hpp). `metrics->per_nf` entries map
  /// to chain positions; when it is shorter than the chain the tail NFs
  /// simply go unattributed. Hooks only ever record cycle values the runner
  /// already measured, outside the measured regions, so attaching telemetry
  /// does not change the reported numbers; when detached every hook is one
  /// null-pointer test.
  void set_telemetry(telemetry::ShardMetrics* metrics) noexcept {
    metrics_ = metrics;
  }
  telemetry::ShardMetrics* telemetry_sink() const noexcept {
    return metrics_;
  }

 private:
  /// Overload ingress gate (DESIGN.md §9): offers the packet to the
  /// controller before any chain work. Returns true to admit; on shed the
  /// packet is marked dropped, `outcome` records the shed class, and the
  /// shed counters (not RunStats.packets) account it. No-op without a
  /// controller.
  bool ingress_admit(net::Packet& packet, PacketOutcome& outcome);
  PacketOutcome process_original(net::Packet& packet);
  PacketOutcome process_speedybox(net::Packet& packet);
  void process_original_batch(net::PacketBatch& batch,
                              std::vector<PacketOutcome>& outcomes);
  void process_speedybox_batch(net::PacketBatch& batch,
                               std::vector<PacketOutcome>& outcomes);
  /// Recording pass + consolidation for an already-classified initial
  /// packet. `classify_cycles` is this packet's (share of the) classifier
  /// cost; `t_start` anchors span timestamps; `ingress_cycles` is the
  /// packet's share of the per-burst rx fixed cost (modeled — added to
  /// latency/platform cycles, never to work cycles).
  void run_recording_path(
      net::Packet& packet,
      const core::PacketClassifier::Classification& classification,
      std::uint64_t classify_cycles, std::uint64_t t_start,
      std::uint64_t ingress_cycles, PacketOutcome& outcome);
  /// Global-MAT fast path for an already-classified subsequent packet. The
  /// measured region starts at `t_start`; `classify_cycles_ahead` is
  /// classifier cost measured elsewhere (batched pass) to add on top —
  /// scalar callers put classification inside the region and pass 0.
  /// `ingress_cycles` as in run_recording_path.
  void run_fast_path(
      net::Packet& packet,
      const core::PacketClassifier::Classification& classification,
      std::uint64_t t_start, std::uint64_t classify_cycles_ahead,
      std::uint64_t ingress_cycles, PacketOutcome& outcome);
  void apply_teardown(
      const core::PacketClassifier::Classification& classification);
  void account(const PacketOutcome& outcome);
  void add_stage_sample(std::size_t stage, std::uint64_t cycles);

  ServiceChain& chain_;
  RunConfig config_;
  platform::PlatformCosts costs_;
  telemetry::ShardMetrics* metrics_ = nullptr;
  std::unique_ptr<OverloadController> controller_;
  /// EMA of per-packet service latency (µs) — scales the virtual queue
  /// depth into the modeled queueing delay added to latency samples while
  /// the gate is active. Stats-only: never touches packet bytes.
  double service_ema_us_ = 0.0;
  RunStats stats_;
  util::SampleRecorder flow_time_us_;
  std::vector<std::uint64_t> per_nf_cycle_sum_;
  std::vector<std::uint64_t> per_nf_cycle_count_;
  /// Original mode only: stats-side init/sub tagging (there is no
  /// classifier on the original path). Maintained outside measured regions.
  std::unordered_set<net::FiveTuple, net::FiveTupleHash> seen_tuples_;

  // Batch-loop buffers, reused across bursts instead of allocated per
  // burst: the run loops' burst and outcomes, and the per-slot arrays of
  // the two batched data paths.
  net::PacketBatch batch_;
  std::vector<PacketOutcome> batch_outcomes_;
  std::vector<std::uint8_t> slot_traced_;
  std::vector<std::uint8_t> slot_entered_batch_;
  std::vector<std::uint8_t> slot_entered_;
  std::vector<std::optional<net::ParsedPacket>> slot_parsed_;
  std::vector<net::FiveTuple> slot_tuples_;
  std::vector<std::optional<core::PacketClassifier::Classification>>
      slot_classifications_;
  std::vector<net::FiveTuple> torn_tuples_;
};

}  // namespace speedybox::runtime
