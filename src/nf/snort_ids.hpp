// Snort-like IDS (§VI-C).
//
// Mirrors the structure the paper relies on in Snort 2.x:
//   * at configuration time, all rule content strings are compiled into one
//     Aho–Corasick automaton (Snort's detection engine);
//   * when a flow's first packet arrives, the header predicates select the
//     flow's candidate rule set — Observation 1: "Snort assigns a rule
//     matching function for each flow as the initial packet arrives";
//   * every packet is inspected by running the automaton over the payload;
//     a candidate rule fires when all its content strings occur;
//   * the outcome per Pass/Alert/Log action: pass suppresses (pass-first
//     order), alert and log append to the audit log §VII-C compares.
//
// Integration with SpeedyBox records a `forward` header action and one
// READ-class state function wrapping inspect() — the "27 lines" class of
// change from Table II.
#pragma once

#include <cstdint>
#include <vector>

#include "nf/aho_corasick.hpp"
#include "nf/flow_state.hpp"
#include "nf/network_function.hpp"
#include "nf/snort_rule.hpp"

namespace speedybox::nf {

struct SnortLogEntry {
  net::FiveTuple tuple;
  std::uint32_t sid = 0;
  SnortAction action = SnortAction::kAlert;

  friend bool operator==(const SnortLogEntry&,
                         const SnortLogEntry&) = default;
};

/// Per-flow IDS state: the candidate rule group assigned on the initial
/// packet (Observation 1). Owns heap memory, so it carries an explicit
/// FlowStateTraits specialization instead of the memcpy default.
struct SnortFlowState {
  std::vector<std::uint32_t> candidate_rules;  // indices into the rule set
};

template <>
struct FlowStateTraits<SnortFlowState> {
  static void serialize(const SnortFlowState& state, FlowStateWriter& writer) {
    writer.u32(static_cast<std::uint32_t>(state.candidate_rules.size()));
    for (const std::uint32_t rule : state.candidate_rules) writer.u32(rule);
  }
  static void restore(FlowStateReader& reader, SnortFlowState& state) {
    const std::uint32_t count = reader.u32();
    state.candidate_rules.clear();
    state.candidate_rules.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      state.candidate_rules.push_back(reader.u32());
    }
  }
};

class SnortIds : public NetworkFunction {
 public:
  explicit SnortIds(std::vector<SnortRule> rules,
                    std::string name = "snort");

  void process(net::Packet& packet, core::SpeedyBoxContext* ctx) override;
  void on_flow_teardown(const net::FiveTuple& tuple) override;
  /// Replicas recompile the automaton from the rule set (config-time cost,
  /// paid once per shard at deployment).
  std::unique_ptr<NetworkFunction> clone() const override {
    return std::make_unique<SnortIds>(rules_, name());
  }

  // Migration payload: the flow's candidate rule indices, so the
  // destination skips the initial-packet header scan and inspects with the
  // identical rule group. The audit log and alert/log/pass totals are
  // shard-local aggregates and are not migrated.
  bool supports_flow_migration() const override { return true; }
  std::optional<std::vector<std::uint8_t>> export_flow_state(
      const net::FiveTuple& tuple) override;
  void import_flow_state(const net::FiveTuple& tuple,
                         std::span<const std::uint8_t> bytes,
                         core::SpeedyBoxContext* ctx) override;

  /// Audit surface for the equivalence tests (§VII-C-1).
  const std::vector<SnortLogEntry>& log() const noexcept { return log_; }
  std::uint64_t alert_count() const noexcept { return alerts_; }
  std::uint64_t log_count() const noexcept { return logs_; }
  std::uint64_t pass_count() const noexcept { return passes_; }
  std::size_t tracked_flows() const noexcept { return flows_.size(); }

  core::FlowTableStats flow_state_stats() const override {
    return flows_.stats();
  }

 private:
  using FlowState = SnortFlowState;

  FlowState& flow_state(const core::HashedTuple& flow);
  void inspect(const net::FiveTuple& tuple, const FlowState& state,
               net::Packet& packet, const net::ParsedPacket& parsed);
  /// Record the forward action and the inspect state function bound to
  /// `state`, plus the teardown hook that frees it.
  void record(core::SpeedyBoxContext* ctx, const net::FiveTuple& tuple,
              const FlowState& state);

  std::vector<SnortRule> rules_;
  /// Every content of every rule, each with its own nocase flag.
  AhoCorasick matcher_;
  /// Automaton pattern id -> (rule index, content index within the rule).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pattern_owner_;

  FlowStateTable<FlowState> flows_;
  std::vector<SnortLogEntry> log_;
  std::uint64_t alerts_ = 0;
  std::uint64_t logs_ = 0;
  std::uint64_t passes_ = 0;

  // Scratch reused across packets: per-rule matched-content bitmap, and
  // the rules that fired on the current packet.
  std::vector<std::uint32_t> matched_generation_;
  std::vector<std::uint64_t> matched_bits_;
  std::uint32_t generation_ = 0;
  std::vector<std::uint32_t> fired_;
};

}  // namespace speedybox::nf
