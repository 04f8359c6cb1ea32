// Wall-clock SpeedyBox benchmark: shared declarations.
//
// Everything this benchmark reports is a measurement taken here with a wall
// clock (std::chrono::steady_clock) or, inside the traced replay, with the
// TSC converted to nanoseconds. Nothing comes from the platform cost model
// (platform/costs.hpp) or from the modeled rates RunStats::rate_mpps and
// ShardedRunResult::aggregate_rate_mpps.
#pragma once

#include <algorithm>
#include <cstdint>
#include <array>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "runtime/plan.hpp"
#include "util/cycle_clock.hpp"

namespace perfbench {

namespace net = speedybox::net;
namespace plan = speedybox::plan;

// -- Workloads (workloads.cpp) ----------------------------------------------

/// A traffic mix: its chain, the fixed open-loop offered rate, the number of
/// valid open-loop passes a run takes, and the reference forwarder's share
/// of the packets and its nominal rate on them. All are constants of the
/// workload, never adapted to the code under test.
struct Workload {
  std::string name;
  plan::ChainSpec chain;
  double offered_mpps = 0.0;
  int open_loop_passes = 0;
  std::size_t reference_packets = 0;
  double reference_nominal_mpps = 0.0;
};

/// The named workload ("hot-fastpath", "inspection"); throws
/// std::invalid_argument for any other name.
Workload workload_named(std::string_view name);

/// The workload's packets, built from `seed` before any timing starts.
std::vector<net::Packet> make_packets(const Workload& workload,
                                      std::uint64_t seed);

/// A few hundred packets of the workload's packet size for warming a
/// throwaway chain, so lazy first-use costs land in set-up, not in timing.
std::vector<net::Packet> make_warmup_packets(const Workload& workload);

/// Live outbound flows in the NAT self-test: more than MazuNAT's
/// 50,000-port pool holds.
inline constexpr std::size_t kNatOverflowFlows = 60000;

/// Chain-1 traffic of kNatOverflowFlows distinct outbound flows
/// (single-packet flows, so none is torn down).
std::vector<net::Packet> make_nat_overflow_packets(std::uint64_t seed);

// -- Output oracle (measure.cpp) ---------------------------------------------

/// One output's identity: the drop verdict, and for delivered packets a hash
/// of the wire bytes. Dropped packets compare by verdict only, as in the
/// repository's equivalence suites.
using Digest = std::uint64_t;
Digest digest(const net::Packet& packet);
std::vector<Digest> digests(const std::vector<net::Packet>& packets);

/// Failure accounting for one benchmark run. Every packet handed to an
/// executor is attempted; it fails when its output differs from the
/// reference, when it is lost, or when its executor run threw.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  /// Compare a run's outputs, in input order, with reference digests.
  void check_outputs(std::string_view what, const std::vector<Digest>& want,
                     const std::vector<net::Packet>& got);
  /// Record a broken invariant (conservation, a stats mismatch).
  void check(bool ok, std::string what);
  /// Count a whole run as failed (its executor threw).
  void fail_run(std::string_view what, std::size_t packets,
                const std::string& error);
  bool correct() const noexcept { return failed == 0 && problems.empty(); }
};

// -- Measurement helpers (measure.cpp) ---------------------------------------

double now_s();
std::uint64_t now_ns();
/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);

// -- Reference forwarder (reference.cpp) -------------------------------------

/// A fixed yardstick for the host's speed: per-packet work of the same kind
/// as a service chain (copy, header parse, five-tuple hash, four per-flow
/// table lookups, an IPv4 header rewrite and checksum, and a byte-wise
/// payload scan when the chain has Snort) over the workload's first
/// `reference_packets` packets. It is written in the benchmark and
/// independent of the program under test.
class ReferenceForwarder {
 public:
  ReferenceForwarder(const Workload& workload,
                     const std::vector<net::Packet>& packets);
  /// One timed pass from empty tables; the pass's rate in Mpps.
  double pass_mpps();

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    std::uint64_t pad[5] = {};  // one 64-byte line per flow, as NF state
  };
  std::span<const net::Packet> packets_;
  bool scan_payload_;
  std::size_t mask_ = 0;
  std::array<std::vector<Slot>, 4> tables_;
  std::vector<std::uint16_t> automaton_;
  std::uint64_t checksum_ = 0;
};

// -- Spans (spans.cpp) -------------------------------------------------------

/// The traced run's span log. A span names its layer, the packet it serves,
/// its parent span, its start (TSC cycles) and its duration. Spans stay in
/// memory until write() at the end of the run.
class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent =
      std::numeric_limits<std::uint32_t>::max();

  struct Span {
    std::uint64_t start = 0;
    std::uint32_t cycles = 0;
    std::uint32_t packet = 0;
    std::uint32_t parent = kNoParent;
    std::uint16_t layer = 0;
    std::uint16_t reserved = 0;  // keeps the record 24 bytes, no padding
  };

  /// Touches room for `expected` spans up front, so page faults stay out
  /// of the spans. With `recording` false the log is a no-op: open() and
  /// close() read no clock and keep nothing.
  explicit SpanLog(std::size_t expected, bool recording = true)
      : recording_(recording) {
    spans_.resize(expected);
    spans_.clear();
  }

  bool recording() const noexcept { return recording_; }
  /// Id of a layer name, registering it on first use.
  std::uint16_t layer(const std::string& name);

  std::uint32_t open(std::uint16_t layer, std::uint32_t packet,
                     std::uint32_t parent = kNoParent) {
    if (!recording_) return 0;
    spans_.push_back({speedybox::util::CycleClock::now(), 0, packet, parent,
                      layer, 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  void close(std::uint32_t span) {
    if (!recording_) return;
    Span& s = spans_[span];
    s.cycles = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        speedybox::util::CycleClock::now() - s.start,
        std::numeric_limits<std::uint32_t>::max()));
  }

  /// Drop the recorded spans; layer ids and the reserved room stay.
  void clear() noexcept { spans_.clear(); }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Durations of one layer's spans, in nanoseconds.
  std::vector<double> durations_ns(std::uint16_t layer) const;
  /// Binary dump: "PBSPANS1", the TSC frequency (double), the layer-name
  /// table (u32 count, then u32 length + bytes each), the span count (u64)
  /// and the raw 24-byte records. Returns false if the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  bool recording_;
  std::vector<std::string> layers_;
  std::vector<Span> spans_;
};

// -- Executors (measure.cpp) --------------------------------------------------

/// One ChainRunner pass: fresh chain from the spec, then one timed
/// Executor::run over all packets. With `measure_memory`, free heap is
/// returned to the OS first and the pass records its peak RSS.
struct RunnerPass {
  double wall_s = 0.0;
  std::uint64_t admitted = 0;
  std::uint64_t drops = 0;
  std::uint64_t faulted = 0;
  std::uint64_t shed = 0;
  std::uint64_t events = 0;
  /// Peak RSS during the pass minus RSS just before set-up (MiB).
  double mem_mb = 0.0;
};
RunnerPass run_runner(const plan::ChainSpec& chain, bool speedybox,
                      const std::vector<net::Packet>& packets,
                      std::vector<net::Packet>* outputs,
                      bool measure_memory = false);

inline constexpr std::size_t kShards = 3;

/// One ShardedRuntime pass: 3 shards, timed from the first push to the end
/// of finish(). Outputs come back in input order. With a span log, every
/// push() and the finish() call get a span.
struct ShardedPass {
  double wall_s = 0.0;
  std::uint64_t admitted = 0;
  std::uint64_t drops = 0;
  std::uint64_t faulted = 0;
  std::uint64_t shed = 0;
  std::vector<net::Packet> outputs;
  /// Worst ring fill seen by the dispatcher; sampled only with a span log.
  double max_ring_occupancy = 0.0;
  std::uint64_t backpressure_waits = 0;
  double finish_ms = 0.0;
  double shard_skew = 0.0;
};
ShardedPass run_sharded(const plan::ChainSpec& chain, bool speedybox,
                        const std::vector<net::Packet>& packets,
                        SpanLog* spans = nullptr);

/// Open loop: packets fall due at `offered_mpps` regardless of progress; the
/// generator hands every due packet (up to one batch) to
/// ChainRunner::process_batch. A packet's latency runs from its due time to
/// the return of its batch.
struct OpenLoopPass {
  std::vector<double> latency_us;
  std::vector<double> batch_ns;
  std::vector<double> generator_lag_us;
  std::uint64_t admitted = 0;
  std::uint64_t drops = 0;
  std::uint64_t faulted = 0;
  std::vector<net::Packet> outputs;
  double mean_batch_fill = 0.0;
  std::uint64_t stalls = 0;  // batches longer than 1 ms
  double generator_lag_ns_p99 = 0.0;
  bool generator_lagged = false;
};
OpenLoopPass run_open_loop(const plan::ChainSpec& chain, double offered_mpps,
                           const std::vector<net::Packet>& packets);

/// Conservation for a run of `offered` packets whose outputs are known:
/// offered == admitted + shed and admitted == delivered + drops + faulted.
void check_conservation(Tally& tally, std::string_view what,
                        std::uint64_t offered, std::uint64_t admitted,
                        std::uint64_t shed, std::uint64_t drops,
                        std::uint64_t faulted,
                        const std::vector<net::Packet>& outputs);

// -- Traced replay (ledger.cpp) -----------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

/// Per-layer numbers from the traced replay.
struct Ledger {
  std::vector<Metric> metrics;
  std::vector<net::Packet> outputs;
  double wall_s = 0.0;
};

/// Replay `packets` through a fresh chain by calling each layer's public
/// functions in data-path order, with a span in `spans` around every call.
/// With a no-op log the same loop runs untraced and only `outputs` and
/// `wall_s` are filled in.
Ledger traced_replay(const plan::ChainSpec& chain,
                     const std::vector<net::Packet>& packets, SpanLog& spans);

}  // namespace perfbench
