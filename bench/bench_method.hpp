// Measurement methodology for the benchmark suite (EXPERIMENTS.md,
// "Methodology") — the
// RFC 2544-style zero-loss max-rate bisection, latency-vs-offered-load
// curve sweeps, warmup + best-of-N trial discipline, and environment
// capture shared by every bench binary.
//
// Everything here is a pure function of its inputs (the probes are passed
// in as callables), so the unit suite exercises convergence and edge cases
// on synthetic loss/latency functions without running a single packet.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.hpp"

namespace speedybox::util {
class LogHistogram;
class SampleRecorder;
}

namespace speedybox::bench {

// -- Trial discipline --------------------------------------------------------

/// Warmup + best-of-N: `warmup` unmeasured runs populate caches, branch
/// predictors and (for stateless probes) the allocator before `trials`
/// measured runs. Every figure bench that used a hand-rolled best-of-3
/// loop — and every bench that timed its first, cold trial — now goes
/// through this.
struct TrialPolicy {
  int warmup = 1;
  int trials = 3;
};

/// Spread statistics over one metric across the measured trials. `best` is
/// the maximum (scores are rates: interference only ever subtracts), and
/// `rel_spread` = (best - worst) / best is the run-to-run noise estimate
/// the regression gate turns into per-cell tolerances.
struct TrialAggregate {
  double best = 0.0;
  double worst = 0.0;
  double median = 0.0;
  double mean = 0.0;
  double rel_spread = 0.0;
  int count = 0;
};

/// Aggregate a vector of per-trial scores. Empty input returns a
/// zero-initialized aggregate with count 0; a single score is its own
/// best/worst/median/mean with zero spread.
TrialAggregate aggregate_trials(std::vector<double> scores);

/// Run `probe` under the policy and keep the result with the highest
/// `score(result)`. The warmup results are discarded unmeasured; the
/// per-trial scores of the measured runs come back through `scores_out`
/// (optional) for spread reporting. With trials < 1 one measured trial
/// still runs — a policy can reduce work, never skip the measurement.
template <typename Result>
Result best_of(const TrialPolicy& policy,
               const std::function<Result()>& probe,
               const std::function<double(const Result&)>& score,
               std::vector<double>* scores_out = nullptr) {
  for (int w = 0; w < policy.warmup; ++w) probe();
  Result best = probe();
  double best_score = score(best);
  if (scores_out != nullptr) scores_out->push_back(best_score);
  for (int t = 1; t < policy.trials; ++t) {
    Result next = probe();
    const double next_score = score(next);
    if (scores_out != nullptr) scores_out->push_back(next_score);
    if (next_score > best_score) {
      best = std::move(next);
      best_score = next_score;
    }
  }
  return best;
}

// -- RFC 2544 zero-loss max-rate search --------------------------------------

/// Bisection over offered rate. `loss_at(rate)` drives one trial at that
/// rate and returns the loss fraction in [0, 1]; a rate "passes" when its
/// loss is <= loss_tolerance. The search assumes loss is (noisily)
/// non-decreasing in rate — the RFC 2544 premise.
struct RateSearchConfig {
  double min_rate = 0.0;
  double max_rate = 1.0;
  /// Loss fraction below which a rate counts as lossless (RFC 2544 uses
  /// exactly 0; a small tolerance absorbs counter noise).
  double loss_tolerance = 0.0;
  /// Stop when the bracket width falls under `resolution` × max_rate.
  double resolution = 0.01;
  int max_iterations = 32;
};

struct RateSearchResult {
  /// Highest probed rate whose loss passed (min_rate when even that lost).
  double rate = 0.0;
  double loss_at_rate = 0.0;
  int iterations = 0;
  /// False when max_iterations ran out before the bracket closed.
  bool converged = false;
};

RateSearchResult zero_loss_max_rate(
    const std::function<double(double)>& loss_at,
    const RateSearchConfig& config);

// -- Latency-vs-offered-load curve sweeps ------------------------------------

enum class Spacing { kLinear, kGeometric };

/// The offered-load points of a curve sweep, endpoints included, sorted
/// ascending. Geometric spacing needs 0 < lo <= hi (falls back to linear
/// otherwise); points < 2 returns just {hi}; lo == hi collapses to one
/// point.
std::vector<double> curve_points(double lo, double hi, int points,
                                 Spacing spacing);

/// One point of a latency-vs-offered-load curve.
struct LatencySummary {
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double mean = 0.0;
  std::uint64_t count = 0;
};

/// Percentile summary of a sample recorder (exact) or a streaming
/// histogram (within its bucket error); empty → all zeros, count 0.
LatencySummary summarize(const util::SampleRecorder& samples);
LatencySummary summarize(const util::LogHistogram& histogram);

/// {"p50": .., "p99": .., "p999": .., "mean": .., "count": ..}
telemetry::Json latency_json(const LatencySummary& summary);

// -- Environment capture -----------------------------------------------------

/// What a BENCH_*.json needs to be comparable later: CPU frequency, git
/// describe (baked in at configure time), hardware concurrency, and the
/// run shape. Shards/batch at 0 mean "not applicable" and are omitted.
telemetry::Json environment_json(std::size_t shards = 0,
                                 std::size_t batch_size = 0);

/// The configure-time `git describe --always --dirty` (or "unknown" when
/// the build is not from a git checkout).
const char* git_describe();

}  // namespace speedybox::bench
