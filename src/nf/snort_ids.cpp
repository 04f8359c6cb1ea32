#include "nf/snort_ids.hpp"

#include <stdexcept>

#include "nf/flow_state.hpp"

namespace speedybox::nf {

SnortIds::SnortIds(std::vector<SnortRule> rules, std::string name)
    : NetworkFunction(std::move(name)), rules_(std::move(rules)) {
  for (std::uint32_t r = 0; r < rules_.size(); ++r) {
    for (std::uint32_t c = 0; c < rules_[r].contents.size(); ++c) {
      const ContentMatch& content = rules_[r].contents[c];
      const auto pattern_id =
          static_cast<std::uint32_t>(pattern_owner_.size());
      pattern_owner_.emplace_back(r, c);
      matcher_.add_pattern(content.pattern, pattern_id, content.nocase);
    }
  }
  matcher_.build();
  matched_generation_.assign(rules_.size(), 0);
  matched_bits_.assign(rules_.size(), 0);
}

SnortIds::FlowState& SnortIds::flow_state(const core::HashedTuple& flow) {
  const auto [state, inserted] = flows_.try_emplace(flow.tuple, flow.hash);
  if (inserted) {
    // Initial packet of the flow: assign the candidate rule set by linear
    // header matching — the per-flow "rule matching function" of
    // Observation 1. This is the initialization cost Fig. 4 shows
    // dominating initial packets.
    for (std::uint32_t r = 0; r < rules_.size(); ++r) {
      if (rules_[r].header_matches(flow.tuple)) {
        state->candidate_rules.push_back(r);
      }
    }
  }
  return *state;
}

void SnortIds::inspect(const net::FiveTuple& tuple, const FlowState& state,
                       net::Packet& packet,
                       const net::ParsedPacket& parsed) {
  if (state.candidate_rules.empty()) return;
  const auto payload = net::payload_view(packet, parsed);

  // One automaton pass over the raw payload serves both case classes; mark
  // which contents of which rules occurred at positions satisfying their
  // offset/depth constraints.
  ++generation_;
  matcher_.match(payload, [this](std::uint32_t pattern_id, std::size_t end) {
    const auto [rule, content] = pattern_owner_[pattern_id];
    if (!rules_[rule].contents[content].position_ok(end)) return;
    if (matched_generation_[rule] != generation_) {
      matched_generation_[rule] = generation_;
      matched_bits_[rule] = 0;
    }
    matched_bits_[rule] |= 1ULL << content;
  });

  // Evaluate candidates; pass-first order (a firing pass rule suppresses
  // alert/log outcomes for this packet).
  bool passed = false;
  fired_.clear();
  for (const std::uint32_t r : state.candidate_rules) {
    if (matched_generation_[r] != generation_) continue;
    const SnortRule& rule = rules_[r];
    const std::uint64_t all =
        rule.contents.size() >= 64
            ? ~0ULL
            : (1ULL << rule.contents.size()) - 1;
    if ((matched_bits_[r] & all) != all) continue;
    if (rule.action == SnortAction::kPass) {
      passed = true;
      break;
    }
    fired_.push_back(r);
  }
  if (passed) {
    ++passes_;
    return;
  }
  for (const std::uint32_t r : fired_) {
    const SnortRule& rule = rules_[r];
    log_.push_back({tuple, rule.sid, rule.action});
    if (rule.action == SnortAction::kAlert) {
      ++alerts_;
    } else {
      ++logs_;
    }
  }
}

void SnortIds::record(core::SpeedyBoxContext* ctx, const net::FiveTuple& tuple,
                      const FlowState& state) {
  // Snort never modifies packets: forward header action (§VI-C), and the
  // inspection wrapped as a READ-class state function. Per Figure 2 the
  // handler is recorded together with its args — here the flow's resolved
  // rule-group state — so the fast path skips the per-packet flow-table
  // lookup (slab records are pointer-stable across resizes; the teardown
  // hook that frees the state runs only when the rule itself is erased).
  ctx->add_header_action(core::HeaderAction::forward());
  core::localmat_add_SF(
      ctx,
      [this, tuple, flow_args = &state](net::Packet& pkt,
                                        const net::ParsedPacket& p) {
        inspect(tuple, *flow_args, pkt, p);
      },
      core::PayloadAccess::kRead, name() + ".inspect");
  ctx->on_teardown([this, tuple]() { flows_.erase(tuple); });
}

void SnortIds::process(net::Packet& packet, core::SpeedyBoxContext* ctx) {
  count_packet();
  const auto parsed = parse_and_check(packet);  // R1: per-NF parse+validate
  if (!parsed) return;
  const auto flow =
      core::HashedTuple::of(net::extract_five_tuple(packet, *parsed));
  const net::FiveTuple tuple = flow.tuple;
  FlowState& state = flow_state(flow);

  inspect(tuple, state, packet, *parsed);

  if (ctx != nullptr) record(ctx, tuple, state);

  // Connection close frees the flow state inline on the unrecorded path;
  // on the recorded path the teardown hook does it (after the rule whose
  // handler references this state has been destroyed).
  if (ctx == nullptr && parsed->has_fin_or_rst()) {
    flows_.erase(tuple, flow.hash);
  }
}

void SnortIds::on_flow_teardown(const net::FiveTuple& tuple) {
  flows_.erase(tuple);
}

std::optional<std::vector<std::uint8_t>> SnortIds::export_flow_state(
    const net::FiveTuple& tuple) {
  return flows_.export_state(tuple);
}

void SnortIds::import_flow_state(const net::FiveTuple& tuple,
                                 std::span<const std::uint8_t> bytes,
                                 core::SpeedyBoxContext* ctx) {
  // The traits restore handles the wire format; the rule-range check needs
  // the configured rule set, so it stays here. A bad payload must not leave
  // a half-trusted candidate group behind.
  FlowState& stored = flows_.import_state(tuple, bytes);
  for (const std::uint32_t rule : stored.candidate_rules) {
    if (rule >= rules_.size()) {
      flows_.erase(tuple);
      throw std::invalid_argument("SnortIds: imported rule index out of range");
    }
  }
  // Re-record what process() recorded on the initial packet, binding the
  // destination's own flow-state node.
  if (ctx != nullptr) record(ctx, tuple, stored);
}

}  // namespace speedybox::nf
