// perfbench: wall-clock SpeedyBox benchmark driver binary.
//
//   perfbench setup   --workload W --seed N
//   perfbench measure --workload W --seed N --seconds S --trace 0|1
//                     --out-dir DIR
//   perfbench nat-overflow --seed N
//
// Each mode prints one JSON object as its last line. perfbench/run.py
// builds this binary, runs it, and assembles the benchmark's result line.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "perfbench.hpp"
#include "runtime/runner.hpp"
#include "runtime/sharded_runtime.hpp"

namespace perfbench {
namespace {

namespace runtime = speedybox::runtime;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2) throw std::invalid_argument("missing mode");
  args.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = std::stoi(value);
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  return args;
}

/// The result line: metrics in emission order, each with its unit.
class Report {
 public:
  void add(std::string name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    metrics_.push_back({std::move(name), value, unit});
  }

  void print(const Tally& tally) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                tally.correct() ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

/// Run `body`; if it throws, count all `packets` as failed and go on.
template <class T>
std::optional<T> guarded(Tally& tally, std::string_view what,
                         std::size_t packets,
                         const std::function<T()>& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    tally.fail_run(what, packets, e.what());
    return std::nullopt;
  }
}

double mpps(std::uint64_t admitted, double wall_s) {
  return static_cast<double>(admitted) / wall_s / 1e6;
}

/// Lazy first-use initialisation (TSC calibration, the NF registry, the
/// allocator's arenas, thread start) on a throwaway chain.
void warm_up(const Workload& workload) {
  const std::vector<net::Packet> packets = make_warmup_packets(workload);
  const auto throwaway = plan::build_chain(workload.chain);
  runtime::RunConfig config;
  runtime::ChainRunner runner(*throwaway, config);
  runner.run_raw(packets);
  runtime::ShardedRuntime sharded(*throwaway, kShards, config);
  sharded.run_raw(packets);
}

/// Set-up, timed in a fresh process: chain build, executor construction
/// and shard thread start, plus warm-up up to readiness for the first
/// packet.
int run_setup(const Args& args) {
  const Workload workload = workload_named(args.workload);
  const double t0 = now_s();
  const auto chain = plan::build_chain(workload.chain);
  runtime::RunConfig config;
  runtime::ChainRunner runner(*chain, config);
  runtime::ShardedRuntime sharded(*chain, kShards, config);
  warm_up(workload);
  std::printf("{\"setup_s\": %.17g}\n", now_s() - t0);
  return 0;
}

/// Everything a measuring run compares its outputs with.
struct References {
  /// Original mode on one chain.
  std::vector<Digest> original;
  /// The untraced SpeedyBox runner, itself checked against `original`.
  std::vector<Digest> speedybox;
  std::optional<RunnerPass> verified;
};

References make_references(const plan::ChainSpec& chain,
                           const std::vector<net::Packet>& packets,
                           Tally& tally) {
  const std::size_t n = packets.size();
  References refs;
  std::vector<net::Packet> out;
  if (const auto pass = guarded<RunnerPass>(tally, "original runner", n, [&] {
        return run_runner(chain, false, packets, &out);
      })) {
    check_conservation(tally, "original runner", n, pass->admitted,
                       pass->shed, pass->drops, pass->faulted, out);
    refs.original = digests(out);
  }
  refs.verified = guarded<RunnerPass>(tally, "speedybox runner", n, [&] {
    return run_runner(chain, true, packets, &out);
  });
  if (refs.verified) {
    const RunnerPass& pass = *refs.verified;
    check_conservation(tally, "speedybox runner", n, pass.admitted, pass.shed,
                       pass.drops, pass.faulted, out);
    tally.check_outputs("speedybox runner", refs.original, out);
    refs.speedybox = digests(out);
  }
  return refs;
}

/// A timed pass without outputs must repeat the verified pass's counters.
void check_same_counts(Tally& tally, const RunnerPass& pass,
                       const RunnerPass& verified, std::size_t offered) {
  tally.attempted += offered;
  if (pass.admitted != verified.admitted || pass.drops != verified.drops ||
      pass.faulted != verified.faulted || pass.events != verified.events) {
    tally.failed += offered;
    tally.check(false, "timed runner: counters differ from the verified pass");
  }
}

/// Open-loop passes discarded for generator lag before a run gives up.
constexpr int kMaxLaggedPasses = 5;

/// Closed-loop runner passes in every run, at the least.
constexpr int kMinRunnerPasses = 4;

double median(std::vector<double> values) { return quantile(values, 0.5); }

/// The end-to-end metrics except setup_s (run.py times set-up in fresh
/// processes).
///
/// The window alternates reference-forwarder passes with timed passes. The
/// open loop's fixed number of valid passes fall due at k/count of the
/// window; closed-loop runner passes fill the time between them. Each
/// metric is the median over its passes, scaled to a host on which the
/// reference runs at its nominal rate: by the nominal rate over the
/// reference's median rate in the same run.
void measure_end_to_end(const Workload& workload,
                        const std::vector<net::Packet>& packets,
                        double seconds, Tally& tally, Report& report) {
  const std::size_t n = packets.size();
  const plan::ChainSpec& chain = workload.chain;

  // Peak memory comes from the process's first full pass, so every run
  // takes it from the same allocator state.
  const auto first = guarded<RunnerPass>(tally, "memory runner", n, [&] {
    return run_runner(chain, true, packets, nullptr, /*measure_memory=*/true);
  });
  const References refs = make_references(chain, packets, tally);
  if (!first || !tally.correct()) return;
  check_same_counts(tally, *first, *refs.verified, n);

  ReferenceForwarder reference(workload, packets);
  std::vector<double> reference_mpps;
  const auto reference_pass = [&] {
    reference_mpps.push_back(reference.pass_mpps());
  };

  // Closed loop, one thread: Executor::run wall time per pass.
  std::vector<double> runner_mpps;
  double runner_last_s = 0.0;
  const auto runner_pass = [&] {
    const auto pass = guarded<RunnerPass>(tally, "timed runner", n, [&] {
      return run_runner(chain, true, packets, nullptr);
    });
    if (!pass) return false;
    check_same_counts(tally, *pass, *refs.verified, n);
    runner_mpps.push_back(mpps(pass->admitted, pass->wall_s));
    runner_last_s = pass->wall_s;
    reference_pass();
    std::fprintf(stderr, "runner pass: %.4f Mpps, reference %.4f Mpps\n",
                 runner_mpps.back(), reference_mpps.back());
    return true;
  };

  // Open loop: the p50 of each valid pass. A pass whose generator lagged is
  // discarded and replaced, so the count is a constant of the workload.
  const int open_passes = workload.open_loop_passes;
  std::vector<double> open_p50_us;
  int lagged = 0;
  const auto open_pass = [&] {
    const auto pass = guarded<OpenLoopPass>(tally, "open loop", n, [&] {
      return run_open_loop(chain, workload.offered_mpps, packets);
    });
    if (!pass) return false;
    reference_pass();
    check_conservation(tally, "open loop", n, pass->admitted, 0, pass->drops,
                       pass->faulted, pass->outputs);
    tally.check_outputs("open loop", refs.original, pass->outputs);
    if (pass->generator_lagged) {
      // Invalid, not slow: the pass did not offer its load on schedule.
      std::fprintf(stderr, "open loop: generator lagged; pass discarded\n");
      return ++lagged < kMaxLaggedPasses;
    }
    open_p50_us.push_back(quantile(pass->latency_us, 0.5));
    std::fprintf(stderr,
                 "open loop pass %zu: p50 %.3f us p99 %.1f us, reference "
                 "%.4f Mpps\n",
                 open_p50_us.size(), open_p50_us.back(),
                 quantile(pass->latency_us, 0.99), reference_mpps.back());
    return true;
  };

  reference_pass();
  const double begin = now_s();
  for (;;) {
    const double elapsed = now_s() - begin;
    const auto valid = static_cast<int>(open_p50_us.size());
    const bool open_left = valid < open_passes;
    const bool open_due = open_left && elapsed >= seconds * valid / open_passes;
    const bool runner_fits =
        static_cast<int>(runner_mpps.size()) < kMinRunnerPasses ||
        elapsed + runner_last_s < seconds;
    if (!open_left && !runner_fits) break;
    const bool ok = open_due || !runner_fits ? open_pass() : runner_pass();
    if (!ok || !tally.correct()) break;
  }
  if (!tally.correct()) return;  // run.py reports unmeasured metrics as 0
  if (open_p50_us.size() < static_cast<std::size_t>(open_passes)) {
    throw std::runtime_error(
        "measurement invalid: the open-loop generator lagged on " +
        std::to_string(lagged) + " passes, leaving " +
        std::to_string(open_p50_us.size()) + " of " +
        std::to_string(open_passes) + " valid");
  }
  const double scale =
      workload.reference_nominal_mpps / median(reference_mpps);
  std::fprintf(stderr, "host scale %.4f\n", scale);
  report.add("throughput_norm_mpps", median(runner_mpps) * scale, "Mpps");
  report.add("latency_p50_norm_us", median(open_p50_us) / scale, "us");
  report.add("mem_peak_mb", first->mem_mb, "MiB");
}

/// The per-layer metrics: the traced replay, the untraced open loop's batch
/// timings, a sharded pass with a span around every push() and finish(),
/// and the reference runs.
void measure_layers(const Workload& workload,
                    const std::vector<net::Packet>& packets,
                    const std::string& out_dir, Tally& tally,
                    Report& report) {
  const std::size_t n = packets.size();
  const plan::ChainSpec& chain = workload.chain;
  const References refs = make_references(chain, packets, tally);
  // Each shard's NAT allocates from its own pool, so the sharded
  // deployment is compared with the original chain deployed the same way.
  std::vector<Digest> original_sharded;
  if (const auto pass = guarded<ShardedPass>(tally, "original sharded", n, [&] {
        return run_sharded(chain, false, packets);
      })) {
    check_conservation(tally, "original sharded", n, pass->admitted,
                       pass->shed, pass->drops, pass->faulted, pass->outputs);
    original_sharded = digests(pass->outputs);
  }

  // Unscaled rates, for reading the scaled end-to-end figures: the
  // original chain, the SpeedyBox runner, 3 shards, and the reference
  // forwarder that gauges the host.
  double original_mpps = 0.0;
  if (const auto pass = guarded<RunnerPass>(tally, "original timed", n, [&] {
        return run_runner(chain, false, packets, nullptr);
      })) {
    original_mpps = mpps(pass->admitted, pass->wall_s);
  }
  double runner_mpps = 0.0;
  if (const auto pass = guarded<RunnerPass>(tally, "speedybox timed", n, [&] {
        return run_runner(chain, true, packets, nullptr);
      })) {
    if (refs.verified) check_same_counts(tally, *pass, *refs.verified, n);
    runner_mpps = mpps(pass->admitted, pass->wall_s);
  }
  double sharded_mpps = 0.0;
  if (const auto pass = guarded<ShardedPass>(tally, "sharded", n, [&] {
        return run_sharded(chain, true, packets);
      })) {
    check_conservation(tally, "sharded", n, pass->admitted, pass->shed,
                       pass->drops, pass->faulted, pass->outputs);
    tally.check_outputs("sharded", original_sharded, pass->outputs);
    sharded_mpps = mpps(pass->admitted, pass->wall_s);
  }
  const double forwarder_mpps =
      ReferenceForwarder(workload, packets).pass_mpps();
  // trace.overhead_frac compares the replay loop with spans against the
  // same loop with a no-op span log. The two alternate three times and
  // each side keeps its fastest pass, so a slow spell of the host does not
  // land on one side only. The last traced pass supplies the spans and
  // the ledger.
  double untraced_wall = std::numeric_limits<double>::infinity();
  double traced_wall = std::numeric_limits<double>::infinity();
  SpanLog no_spans{0, /*recording=*/false};
  SpanLog spans{n * 5};
  std::optional<Ledger> ledger;
  for (int round = 0; round < 3; ++round) {
    const auto untraced = guarded<Ledger>(tally, "untraced replay", n, [&] {
      return traced_replay(chain, packets, no_spans);
    });
    if (!untraced) break;
    tally.check_outputs("untraced replay vs original", refs.original,
                        untraced->outputs);
    untraced_wall = std::min(untraced_wall, untraced->wall_s);
    spans.clear();
    ledger = guarded<Ledger>(tally, "traced replay", n, [&] {
      return traced_replay(chain, packets, spans);
    });
    if (!ledger) break;
    traced_wall = std::min(traced_wall, ledger->wall_s);
  }
  if (ledger) {
    tally.check_outputs("traced replay vs untraced runner", refs.speedybox,
                        ledger->outputs);
    tally.check_outputs("traced replay vs original", refs.original,
                        ledger->outputs);
    for (const Metric& metric : ledger->metrics) {
      report.add(metric.name, metric.value, metric.unit);
    }
    report.add("trace.overhead_frac", traced_wall / untraced_wall - 1.0,
               "ratio");
  }

  if (const auto pass = guarded<OpenLoopPass>(tally, "open loop", n, [&] {
        return run_open_loop(chain, workload.offered_mpps, packets);
      })) {
    check_conservation(tally, "open loop", n, pass->admitted, 0, pass->drops,
                       pass->faulted, pass->outputs);
    tally.check_outputs("open loop", refs.original, pass->outputs);
    report.add("runtime.runner.batch_ns_p50", quantile(pass->batch_ns, 0.5),
               "ns");
    report.add("runtime.runner.batch_ns_p99", quantile(pass->batch_ns, 0.99),
               "ns");
    report.add("runtime.runner.batch_fill", pass->mean_batch_fill, "ratio");
    report.add("runtime.runner.stall_count",
               static_cast<double>(pass->stalls), "count");
    report.add("runtime.runner.latency_p99_us",
               quantile(pass->latency_us, 0.99), "us");
    report.add("openloop.generator_lag_ns_p99", pass->generator_lag_ns_p99,
               "ns");
  }

  if (const auto pass = guarded<ShardedPass>(tally, "sharded traced", n, [&] {
        return run_sharded(chain, true, packets, &spans);
      })) {
    check_conservation(tally, "sharded traced", n, pass->admitted,
                       pass->shed, pass->drops, pass->faulted, pass->outputs);
    tally.check_outputs("sharded traced", original_sharded,
                        pass->outputs);
    report.add(
        "runtime.sharded.push_ns_p50",
        quantile(spans.durations_ns(spans.layer("runtime.sharded.push")), 0.5),
        "ns");
    report.add("runtime.sharded.backpressure_waits",
               static_cast<double>(pass->backpressure_waits), "count");
    report.add("runtime.sharded.max_ring_occupancy", pass->max_ring_occupancy,
               "ratio");
    report.add("runtime.sharded.finish_ms", pass->finish_ms, "ms");
    report.add("runtime.sharded.shard_skew", pass->shard_skew, "ratio");
  }
  report.add("runtime.runner.mpps", runner_mpps, "Mpps");
  report.add("runtime.sharded.mpps", sharded_mpps, "Mpps");
  report.add("ref.original_mpps", original_mpps, "Mpps");
  report.add("ref.forwarder_mpps", forwarder_mpps, "Mpps");

  const std::string span_path = out_dir + "/spans-" + workload.name + ".bin";
  tally.check(spans.write(span_path), "cannot write " + span_path);
}

int run_measure(const Args& args) {
  const Workload workload = workload_named(args.workload);
  const std::vector<net::Packet> packets = make_packets(workload, args.seed);
  warm_up(workload);

  Tally tally;
  Report report;
  if (args.trace == 0) {
    measure_end_to_end(workload, packets, args.seconds, tally, report);
  } else {
    measure_layers(workload, packets, args.out_dir, tally, report);
  }
  for (const std::string& problem : tally.problems) {
    std::fprintf(stderr, "FAIL %s\n", problem.c_str());
  }
  report.print(tally);
  return 0;
}

/// Self-test: chain 1 past MazuNAT's 50,000-port pool. The known defect
/// (allocate_port throws "port pool exhausted") must surface as failed
/// packets, not as a crash of the benchmark.
int run_nat_overflow(const Args& args) {
  const std::vector<net::Packet> packets =
      make_nat_overflow_packets(args.seed);
  Tally tally;
  if (guarded<RunnerPass>(tally, "speedybox runner", packets.size(), [&] {
        return run_runner(plan::vii_c_chain1(), true, packets, nullptr);
      })) {
    tally.attempted += packets.size();
  }
  for (const std::string& problem : tally.problems) {
    std::fprintf(stderr, "%s\n", problem.c_str());
  }
  std::printf("{\"flows\": %zu, \"attempted\": %llu, \"failed\": %llu, "
              "\"error_frac\": %.17g}\n",
              packets.size(), static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              tally.attempted == 0
                  ? 0.0
                  : static_cast<double>(tally.failed) /
                        static_cast<double>(tally.attempted));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its 128 KiB default. Left dynamic, it
  // rises after the first large free, and from then on whether a growing
  // buffer is copied or extended in place depends on the heap layout the
  // process happened to build: the cost of the same reallocation then
  // differs from process to process. Pinned, every large buffer is mapped
  // fresh, as in a new process.
  if (mallopt(M_MMAP_THRESHOLD, 128 << 10) == 0) {
    std::fprintf(stderr, "perfbench: mallopt failed\n");
    return 2;
  }
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    if (args.mode == "setup") return perfbench::run_setup(args);
    if (args.mode == "measure") return perfbench::run_measure(args);
    if (args.mode == "nat-overflow") return perfbench::run_nat_overflow(args);
    std::fprintf(stderr, "unknown mode %s\n", args.mode.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  return 2;
}
