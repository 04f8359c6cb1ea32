// End-to-end measurement: the closed-loop runner, the sharded runtime, the
// open loop, the output oracle and the memory probes.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <numeric>
#include <sstream>

#include "perfbench.hpp"
#include "runtime/runner.hpp"
#include "runtime/sharded_runtime.hpp"
#include "util/cycle_clock.hpp"
#include "util/hash.hpp"

namespace perfbench {

namespace runtime = speedybox::runtime;
namespace util = speedybox::util;

// -- Helpers ------------------------------------------------------------------

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double now_s() { return static_cast<double>(now_ns()) / 1e9; }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  std::nth_element(values.begin(), values.begin() + lo, values.end());
  const double low = values[lo];
  if (lo + 1 >= values.size()) return low;
  const double high =
      *std::min_element(values.begin() + lo + 1, values.end());
  return low + (high - low) * (pos - static_cast<double>(lo));
}

namespace {

double status_mb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream fields(line.substr(key.size()));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

/// Resident-set figures from /proc/self/status, in MiB.
double rss_mb() { return status_mb("VmRSS:"); }
double peak_rss_mb() { return status_mb("VmHWM:"); }

/// Return free heap to the OS and restart the peak-RSS high-water mark.
void reset_peak_rss() {
  malloc_trim(0);
  // "5" resets the VmHWM high-water mark to the current RSS (Linux >= 4.0).
  std::ofstream("/proc/self/clear_refs") << "5";
}

}  // namespace

// -- Oracle -------------------------------------------------------------------

Digest digest(const net::Packet& packet) {
  if (packet.faulted()) return 0xfa017edfa017edULL;
  if (packet.dropped()) return 0xd20bbedd20bbedULL;
  return util::hash_combine(util::fnv1a(packet.bytes()), packet.size());
}

std::vector<Digest> digests(const std::vector<net::Packet>& packets) {
  std::vector<Digest> out;
  out.reserve(packets.size());
  for (const net::Packet& packet : packets) out.push_back(digest(packet));
  return out;
}

void Tally::check_outputs(std::string_view what,
                          const std::vector<Digest>& want,
                          const std::vector<net::Packet>& got) {
  attempted += want.size();
  std::uint64_t bad = 0;
  const std::size_t common = std::min(want.size(), got.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (digest(got[i]) != want[i]) ++bad;
  }
  bad += want.size() - common;  // lost outputs
  failed += bad;
  if (bad != 0 || got.size() != want.size()) {
    problems.push_back(std::string{what} + ": " + std::to_string(bad) +
                       " of " + std::to_string(want.size()) +
                       " outputs differ from the original-mode reference (" +
                       std::to_string(got.size()) + " returned)");
  }
}

void Tally::check(bool ok, std::string what) {
  if (!ok) problems.push_back(std::move(what));
}

void Tally::fail_run(std::string_view what, std::size_t packets,
                     const std::string& error) {
  attempted += packets;
  failed += packets;
  problems.push_back(std::string{what} + " threw: " + error);
}

void check_conservation(Tally& tally, std::string_view what,
                        std::uint64_t offered, std::uint64_t admitted,
                        std::uint64_t shed, std::uint64_t drops,
                        std::uint64_t faulted,
                        const std::vector<net::Packet>& outputs) {
  const auto delivered = static_cast<std::uint64_t>(std::count_if(
      outputs.begin(), outputs.end(),
      [](const net::Packet& p) { return !p.dropped(); }));
  tally.check(offered == admitted + shed,
              std::string{what} + ": offered " + std::to_string(offered) +
                  " != admitted " + std::to_string(admitted) + " + shed " +
                  std::to_string(shed));
  tally.check(admitted == delivered + drops + faulted,
              std::string{what} + ": admitted " + std::to_string(admitted) +
                  " != delivered " + std::to_string(delivered) + " + drops " +
                  std::to_string(drops) + " + faulted " +
                  std::to_string(faulted));
}

// -- Executors ---------------------------------------------------------------

RunnerPass run_runner(const plan::ChainSpec& chain, bool speedybox,
                      const std::vector<net::Packet>& packets,
                      std::vector<net::Packet>* outputs, bool measure_memory) {
  RunnerPass pass;
  if (measure_memory) reset_peak_rss();
  const double before = rss_mb();
  const auto built = plan::build_chain(chain);
  runtime::RunConfig config;
  config.speedybox = speedybox;
  runtime::ChainRunner runner(*built, config);
  runtime::Executor& executor = runner;

  const std::uint64_t t0 = now_ns();
  const runtime::RunStats& stats = executor.run(packets, outputs);
  pass.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  if (measure_memory) pass.mem_mb = peak_rss_mb() - before;

  pass.admitted = stats.packets;
  pass.drops = stats.drops;
  pass.faulted = stats.overload.faulted;
  pass.shed = stats.overload.shed_total();
  pass.events = stats.events_triggered;
  return pass;
}

ShardedPass run_sharded(const plan::ChainSpec& chain, bool speedybox,
                        const std::vector<net::Packet>& packets,
                        SpanLog* spans) {
  ShardedPass pass;
  const auto prototype = plan::build_chain(chain);
  runtime::RunConfig config;
  config.speedybox = speedybox;
  runtime::ShardedRuntime sharded(*prototype, kShards, config);
  const std::uint16_t push_layer =
      spans != nullptr ? spans->layer("runtime.sharded.push") : 0;

  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < packets.size(); ++i) {
    net::Packet packet = packets[i];
    packet.reset_metadata();
    if (spans == nullptr) {
      sharded.push(std::move(packet));
      continue;
    }
    const std::uint32_t span =
        spans->open(push_layer, static_cast<std::uint32_t>(i));
    sharded.push(std::move(packet));
    spans->close(span);
    if (i % net::kDefaultBatchSize == 0) {
      pass.max_ring_occupancy =
          std::max(pass.max_ring_occupancy, sharded.max_ring_occupancy());
    }
  }
  const std::uint64_t finish_start = now_ns();
  const std::uint32_t finish_span =
      spans != nullptr
          ? spans->open(spans->layer("runtime.sharded.finish"),
                        static_cast<std::uint32_t>(packets.size()))
          : 0;
  runtime::ShardedRunResult result = sharded.finish();
  if (spans != nullptr) spans->close(finish_span);
  const std::uint64_t t1 = now_ns();

  pass.wall_s = static_cast<double>(t1 - t0) / 1e9;
  pass.finish_ms = static_cast<double>(t1 - finish_start) / 1e6;
  pass.backpressure_waits = sharded.backpressure_waits();
  if (!result.shard_packets.empty()) {
    const double total = std::accumulate(result.shard_packets.begin(),
                                         result.shard_packets.end(), 0.0);
    const double busiest = static_cast<double>(*std::max_element(
        result.shard_packets.begin(), result.shard_packets.end()));
    pass.shard_skew =
        total > 0.0 ? busiest * static_cast<double>(
                                    result.shard_packets.size()) / total
                    : 0.0;
  }
  pass.admitted = result.stats.packets;
  pass.drops = result.stats.drops;
  pass.faulted = result.stats.overload.faulted;
  pass.shed = result.stats.overload.shed_total();
  pass.outputs = std::move(result.packets);
  return pass;
}

OpenLoopPass run_open_loop(const plan::ChainSpec& chain, double offered_mpps,
                           const std::vector<net::Packet>& packets) {
  OpenLoopPass pass;
  const std::size_t n = packets.size();
  // Inputs are copied before timing; the loop processes them in place.
  pass.outputs = packets;
  for (net::Packet& packet : pass.outputs) packet.reset_metadata();
  // Sample buffers are touched before timing, so no page fault lands in
  // the loop; there are at most n batches.
  pass.latency_us.resize(n);
  pass.batch_ns.resize(n);
  pass.generator_lag_us.resize(n);
  std::size_t batches = 0;

  const auto built = plan::build_chain(chain);
  runtime::RunConfig config;
  config.speedybox = true;
  runtime::ChainRunner runner(*built, config);
  const std::size_t burst = config.batch_size;
  net::PacketBatch batch{burst};
  std::vector<runtime::PacketOutcome> outcomes;
  outcomes.reserve(burst);

  const double period_ns = 1e3 / offered_mpps;
  const std::uint64_t t0 = now_ns() + 1'000'000;  // first packet due in 1 ms
  const auto due = [&](std::size_t i) {
    return t0 + static_cast<std::uint64_t>(static_cast<double>(i) *
                                           period_ns);
  };
  std::uint64_t previous_end = t0;
  std::uint64_t filled = 0;
  for (std::size_t i = 0; i < n;) {
    std::uint64_t wake = now_ns();
    while (wake < due(i)) wake = now_ns();
    batch.clear();
    std::size_t j = i;
    const std::uint64_t arrival = util::CycleClock::now();
    for (; j < n && j - i < burst && due(j) <= wake; ++j) {
      pass.outputs[j].set_arrival_cycle(arrival);
      batch.push(&pass.outputs[j]);
    }
    const std::uint64_t start = now_ns();
    runner.process_batch(batch, outcomes);
    const std::uint64_t end = now_ns();

    // The generator is late when it starts a batch after both the first
    // packet's due time and the previous batch's return.
    const std::uint64_t ready = std::max(due(i), previous_end);
    pass.generator_lag_us[batches] =
        start > ready ? static_cast<double>(start - ready) / 1e3 : 0.0;
    pass.batch_ns[batches] = static_cast<double>(end - start);
    ++batches;
    if (end - start > 1'000'000) ++pass.stalls;
    for (std::size_t k = i; k < j; ++k) {
      pass.latency_us[k] = static_cast<double>(end - due(k)) / 1e3;
    }
    filled += j - i;
    previous_end = end;
    i = j;
  }

  pass.batch_ns.resize(batches);
  pass.generator_lag_us.resize(batches);

  const runtime::RunStats& stats = runner.stats();
  pass.admitted = stats.packets;
  pass.drops = stats.drops;
  pass.faulted = stats.overload.faulted;
  pass.mean_batch_fill =
      batches == 0 ? 0.0
                   : static_cast<double>(filled) /
                         static_cast<double>(batches) /
                         static_cast<double>(burst);
  // A pass whose generator lagged measures the generator, not the chain: it
  // is invalid rather than slow. Lateness of a few hundred nanoseconds per
  // batch is the generator's own bookkeeping; a lateness beyond 20 us means
  // the generator thread was descheduled while packets were due. A pass is
  // invalid when that happened for more than 2% of it.
  double lag_excess_us = 0.0;
  for (const double lag : pass.generator_lag_us) {
    if (lag > 20.0) lag_excess_us += lag;
  }
  const double span_us = static_cast<double>(previous_end - t0) / 1e3;
  pass.generator_lag_ns_p99 = quantile(pass.generator_lag_us, 0.99) * 1e3;
  pass.generator_lagged = lag_excess_us > 0.02 * span_us;
  return pass;
}

}  // namespace perfbench
