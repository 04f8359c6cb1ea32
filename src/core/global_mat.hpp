// The Global MAT (§V): consolidates, per flow, the header actions and state
// functions recorded in every Local MAT along the chain, and serves the fast
// data path for subsequent packets:
//
//   subsequent packet ──► event check ──► consolidated header action
//                                     ──► state-function batches (Table-I
//                                         parallel schedule)
//
// A triggered event patches the owning Local MAT record and re-consolidates
// the flow's rule before the packet is processed, so runtime behavior
// changes (Maglev failover, DoS blacklisting) take effect immediately.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/event_table.hpp"
#include "core/flow_table.hpp"
#include "core/header_action.hpp"
#include "core/local_mat.hpp"
#include "core/parallel_schedule.hpp"
#include "core/state_function.hpp"
#include "util/prefetch.hpp"

namespace speedybox::core {

/// Strategy for executing a rule's state-function batches. The default is
/// sequential (chain order); runtime::ParallelExecutor implements real
/// threaded execution of the Table-I parallel groups.
class BatchExecutor {
 public:
  virtual ~BatchExecutor() = default;
  virtual void execute(const ParallelSchedule& schedule,
                       const std::vector<StateFunctionBatch>& batches,
                       net::Packet& packet,
                       const net::ParsedPacket& parsed) = 0;
};

/// A flow's consolidated rule.
struct ConsolidatedRule {
  ConsolidatedAction action;
  BytePatch patch;                        // compiled field writes (lazy)
  std::vector<StateFunctionBatch> batches; // per-NF, chain order
  ParallelSchedule schedule;               // Table-I grouping of batches
  /// Groups of `schedule` with >= 2 batches, counted at consolidation.
  std::size_t multi_batch_groups = 0;
  std::uint64_t version = 0;               // bumped on re-consolidation
  /// Set at consolidation when the flow has registered events; lets the
  /// fast path skip the Event Table lookup entirely for event-free flows.
  bool check_events = false;

  /// Batch-cost sampling: the first kCostSampleWindow measured packets time
  /// every batch individually to learn the critical-path fraction of the
  /// Table-I schedule; afterwards the fast path times all batches with one
  /// timer pair and scales by the learned fraction — per-packet timer
  /// overhead stays constant no matter how many batches the rule has.
  static constexpr std::uint32_t kCostSampleWindow = 8;
  std::uint32_t cost_samples = 0;
  double critical_fraction = 1.0;

  /// Pre-consolidated pure-forward rule installed instead of recording
  /// while the path is degraded (runtime overload control, DESIGN.md §9).
  bool degraded_default = false;
};

class GlobalMat {
 public:
  /// Wire the chain: Local MATs in chain order. Pointers must outlive the
  /// Global MAT (they live in the ServiceChain that owns both).
  void set_chain(std::vector<LocalMat*> chain) { chain_ = std::move(chain); }
  const std::vector<LocalMat*>& chain() const noexcept { return chain_; }

  EventTable& event_table() noexcept { return events_; }
  const EventTable& event_table() const noexcept { return events_; }

  /// Build (or rebuild) the consolidated rule for a flow from the chain's
  /// Local MATs. Called after the initial packet finishes the original path
  /// and by event triggers. Each consolidation installs a fresh immutable-
  /// shape rule object; holders of the previous snapshot (e.g. descriptors
  /// in flight on a threaded deployment) keep a consistent view.
  void consolidate_flow(std::uint32_t fid);

  const ConsolidatedRule* find(std::uint32_t fid) const {
    const auto* rule = rules_.find(fid);
    return rule == nullptr ? nullptr : rule->get();
  }

  /// True when the flow's consolidated rule is a settled drop: the header
  /// action drops and no registered event could change the verdict. The
  /// slo-early-drop overload policy sheds such packets at ingress —
  /// semantically equivalent to the fast path's early drop (which never
  /// runs state functions for dropped packets) minus the MAT walk. A FIN
  /// shed this way leaves the rule for idle expiry, exactly like a UDP
  /// flow's last packet would.
  bool rule_marked_drop(std::uint32_t fid) const {
    const ConsolidatedRule* rule = find(fid);
    return rule != nullptr && rule->action.drop && !rule->check_events;
  }

  /// Install a pre-consolidated pure-forward default rule (graceful
  /// degradation, DESIGN.md §9): a flow arriving while the path is
  /// degraded skips recording and executes this rule on the fast path.
  /// No header rewrites, no state functions, no event checks.
  void install_default_rule(std::uint32_t fid);

  /// Live-resharding rule handoff: transplant the learned batch-cost
  /// profile from the source shard's rule onto this (freshly consolidated)
  /// flow, so the destination fast path doesn't re-enter the per-batch
  /// sampling window mid-flow. No-op if the flow has no rule.
  void transfer_cost_profile(std::uint32_t fid, std::uint32_t cost_samples,
                             double critical_fraction) {
    auto* rule = rules_.find(fid);
    if (rule == nullptr) return;
    (*rule)->cost_samples = cost_samples;
    (*rule)->critical_fraction = critical_fraction;
  }

  /// Batch pre-pass hint: warm the cache lines of `fid`'s consolidated rule
  /// so the fast-path packets behind it in the burst find the rule resident
  /// (DESIGN.md §8). A hint only — a miss or a stale line never affects
  /// correctness.
  void prefetch(std::uint32_t fid) const noexcept {
    const auto* rule = rules_.find(fid);
    if (rule != nullptr) {
      util::prefetch_read(rule->get());
    }
  }

  /// Shared snapshot of the flow's current rule (threaded deployments pin
  /// the rule a packet executes against).
  std::shared_ptr<const ConsolidatedRule> find_shared(
      std::uint32_t fid) const {
    const auto* rule = rules_.find(fid);
    return rule == nullptr ? nullptr : *rule;
  }

  struct FastPathResult {
    bool rule_hit = false;
    bool dropped = false;
    /// The rule executed was a degraded-mode default rule — the runner
    /// counts these packets separately (they skipped recording).
    bool degraded_rule = false;
    std::size_t events_triggered = 0;
    /// Measured cycles actually spent executing state functions.
    std::uint64_t sf_total_cycles = 0;
    /// Modeled cycles under the Table-I parallel schedule (critical path).
    std::uint64_t sf_critical_path_cycles = 0;
    /// Parallel groups with ≥2 batches (each pays one fork/join in the
    /// platform latency model).
    std::size_t multi_batch_groups = 0;
    /// Timer pairs consumed inside process() while measuring batches — the
    /// caller subtracts their overhead from its enclosing measurement.
    std::uint32_t timer_pairs = 0;
  };

  /// Fast path for a subsequent packet: event check, consolidated header
  /// action, state-function batches. `measure_batches` enables per-batch
  /// cycle attribution (used by the benches); the equivalence tests leave it
  /// off. `parsed_hint` is the classifier's parse of this packet — reused
  /// for state-function execution when the consolidated action leaves the
  /// header layout intact, so the fast path parses exactly once.
  FastPathResult process(net::Packet& packet, bool measure_batches = false,
                         const net::ParsedPacket* parsed_hint = nullptr);

  /// The manager-side half of the fast path for threaded deployments:
  /// event check + consolidated header action only. The caller dispatches
  /// the returned rule's state-function batches to the owning NF cores.
  struct FastHeaderResult {
    bool rule_hit = false;
    bool dropped = false;
    bool degraded_rule = false;
    std::size_t events_triggered = 0;
    std::shared_ptr<const ConsolidatedRule> rule;
  };
  FastHeaderResult process_header(net::Packet& packet);

  /// Flow teardown: drop the consolidated rule, the flow's events, and the
  /// per-NF Local MAT records. `run_hooks = false` skips the per-NF
  /// teardown hooks — for threaded deployments where the hooks (which
  /// mutate NF-internal state) already ran on the owning NF cores and only
  /// the manager-side erase remains.
  void erase_flow(std::uint32_t fid, bool run_hooks = true);

  std::size_t size() const noexcept { return rules_.size(); }
  std::uint64_t consolidations() const noexcept { return consolidations_; }
  /// Rule-table telemetry (occupancy, probes, slab bytes) for the shard's
  /// flow_table_* metrics.
  FlowTableStats rule_table_stats() const { return rules_.stats(); }
  void clear();

  /// Install a threaded batch executor (borrowed). Used by the unmeasured
  /// fast path only; measured runs always execute sequentially so cycle
  /// attribution stays exact.
  void set_batch_executor(BatchExecutor* executor) noexcept {
    executor_ = executor;
  }

 private:
  /// Shared front half of the fast path: rule lookup, event check (with
  /// re-fetch after a trigger), consolidated header action. Returns a
  /// borrowed pointer to the rule the packet executes against (owned by
  /// rules_; valid until the next consolidation/erase of this flow), or
  /// null on a miss. Kept refcount-free because it runs per packet.
  ConsolidatedRule* apply_header_phase(net::Packet& packet, bool* dropped,
                                       std::size_t* events_triggered);

  std::vector<LocalMat*> chain_;
  BatchExecutor* executor_ = nullptr;
  EventTable events_;
  /// FID-keyed consolidated-rule table. The shared_ptr cells live in slab
  /// records; each consolidation swaps the pointer in place, so in-flight
  /// holders of the old snapshot stay consistent (see consolidate_flow).
  FlowTable<std::uint32_t, std::shared_ptr<ConsolidatedRule>> rules_;
  std::uint64_t consolidations_ = 0;
  /// Per-batch cycle costs of the packet in the cost-sampling window.
  std::vector<std::uint64_t> cost_scratch_;
};

}  // namespace speedybox::core
