// §VII-C-1: "Testing Snort (different conditional branches)" — inject flows
// whose payloads match Pass, Alert and Log rules so every inspection branch
// is exercised, and verify the log outputs of the original and SpeedyBox
// paths are identical.
#include <algorithm>

#include <gtest/gtest.h>

#include "chain_fixtures.hpp"
#include "equivalence/equivalence_helpers.hpp"
#include "nf/aho_corasick.hpp"
#include "nf/snort_ids.hpp"
#include "test_helpers.hpp"
#include "trace/payload_synth.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::expect_identical_outputs;
using speedybox::testing::run_chain;

trace::Workload snort_workload() {
  trace::Workload workload = trace::make_uniform_workload(30, 12, 160);
  trace::PayloadSynthConfig config;
  config.match_fraction = 0.6;  // plenty of matching flows
  plant_rule_contents(workload, trace::default_snort_rules(), config);
  return workload;
}

TEST(SnortEquivalence, LogOutputsIdentical) {
  const trace::Workload workload = snort_workload();

  ServiceChain original_chain;
  auto& original_snort =
      original_chain.emplace_nf<nf::SnortIds>(trace::default_snort_rules());
  const auto original = run_chain(original_chain, workload, false);

  ServiceChain speedy_chain;
  auto& speedy_snort =
      speedy_chain.emplace_nf<nf::SnortIds>(trace::default_snort_rules());
  const auto speedy = run_chain(speedy_chain, workload, true);

  // Identical packet outputs...
  expect_identical_outputs(original, speedy);
  // ...and identical inspection results, entry by entry.
  EXPECT_GT(original_snort.log().size(), 0u)
      << "workload must exercise alert/log branches";
  ASSERT_EQ(original_snort.log().size(), speedy_snort.log().size());
  for (std::size_t i = 0; i < original_snort.log().size(); ++i) {
    EXPECT_EQ(original_snort.log()[i], speedy_snort.log()[i])
        << "log entry " << i;
  }
  EXPECT_EQ(original_snort.alert_count(), speedy_snort.alert_count());
  EXPECT_EQ(original_snort.log_count(), speedy_snort.log_count());
  EXPECT_EQ(original_snort.pass_count(), speedy_snort.pass_count());
}

TEST(SnortEquivalence, AllThreeBranchesCovered) {
  const trace::Workload workload = snort_workload();
  ServiceChain chain;
  auto& snort = chain.emplace_nf<nf::SnortIds>(trace::default_snort_rules());
  run_chain(chain, workload, true);
  EXPECT_GT(snort.alert_count(), 0u);
  EXPECT_GT(snort.log_count(), 0u);
  EXPECT_GT(snort.pass_count(), 0u);
}

TEST(SnortEquivalence, CleanTrafficSilentOnBothPaths) {
  const trace::Workload workload = trace::make_uniform_workload(10, 10, 64);

  ServiceChain original_chain;
  auto& original_snort =
      original_chain.emplace_nf<nf::SnortIds>(trace::default_snort_rules());
  run_chain(original_chain, workload, false);

  ServiceChain speedy_chain;
  auto& speedy_snort =
      speedy_chain.emplace_nf<nf::SnortIds>(trace::default_snort_rules());
  run_chain(speedy_chain, workload, true);

  EXPECT_TRUE(original_snort.log().empty());
  EXPECT_TRUE(speedy_snort.log().empty());
}

/// Whether `content` occurs in `payload` at a start its offset/depth allow,
/// by trying every start.
bool naive_content_match(std::span<const std::uint8_t> payload,
                         const nf::ContentMatch& content) {
  const auto fold = [](std::uint8_t byte) {
    return byte >= 'A' && byte <= 'Z' ? static_cast<std::uint8_t>(byte + 32)
                                      : byte;
  };
  const std::size_t len = content.pattern.size();
  for (std::size_t start = 0; start + len <= payload.size(); ++start) {
    bool equal = true;
    for (std::size_t k = 0; k < len && equal; ++k) {
      const auto want = static_cast<std::uint8_t>(content.pattern[k]);
      const std::uint8_t got = payload[start + k];
      equal = content.nocase ? fold(got) == fold(want) : got == want;
    }
    if (equal && content.position_ok(start + len)) return true;
  }
  return false;
}

TEST(SnortEquivalence, AuditLogMatchesNaiveRuleEvaluation) {
  // Chain 2 over 1 KiB payloads with rule contents planted in half the
  // flows. Snort's automaton scans a payload this long in stripes, so each
  // planted block is rotated until its first content ends one byte before,
  // at, or one byte after the first end offset a stripe owns.
  const std::vector<nf::SnortRule> rules = trace::default_snort_rules();
  trace::DatacenterWorkloadConfig config;
  config.flow_count = 150;
  config.payload_size = 1024;
  config.seed = 8086;
  trace::Workload workload = make_datacenter_workload(config);
  trace::PayloadSynthConfig synth;
  synth.match_fraction = 0.5;
  const std::vector<std::int32_t> planted =
      plant_rule_contents(workload, rules, synth);
  nf::AhoCorasick automaton;
  for (const nf::SnortRule& rule : rules) {
    for (const nf::ContentMatch& content : rule.contents) {
      automaton.add_pattern(content.pattern, 0, content.nocase);
    }
  }
  const auto [steps, spacing] = automaton.stripe_layout(config.payload_size);
  ASSERT_GT(steps, 0u);
  std::size_t moved = 0;
  for (std::size_t f = 0; f < workload.flows.size(); ++f) {
    if (planted[f] < 0) continue;
    std::vector<std::uint8_t>& payload = workload.flows[f].payload;
    ASSERT_EQ(payload.size(), config.payload_size);
    const std::size_t stripe = 1 + (moved / rules.size()) % 3;
    const std::size_t first_own_end = stripe * spacing + (steps - spacing) + 1;
    const std::size_t start =
        first_own_end - rules[planted[f]].contents[0].pattern.size() +
        (moved / (3 * rules.size())) % 3 - 1;
    const std::size_t planted_at = payload.size() / 4;  // plant_rule_contents
    std::rotate(payload.begin(),
                payload.begin() +
                    (planted_at + payload.size() - start) % payload.size(),
                payload.end());
    ++moved;
  }

  // Reference: every packet chain 2's IPFilter lets through, evaluated
  // against every default rule with a byte-by-byte content search, in
  // pass-first order.
  const net::Ipv4Addr filtered_prefix{10, 1, 3, 0};  // chain 2's /24 drop
  std::vector<nf::SnortLogEntry> expected_log;
  std::uint64_t alerts = 0;
  std::uint64_t logs = 0;
  std::uint64_t passes = 0;
  std::uint64_t filtered = 0;
  for (std::size_t i = 0; i < workload.order.size(); ++i) {
    const net::Packet packet = workload.materialize(i);
    const auto parsed = net::parse_packet(packet);
    ASSERT_TRUE(parsed.has_value());
    const net::FiveTuple tuple = net::extract_five_tuple(packet, *parsed);
    if ((tuple.dst_ip.value & 0xFFFFFF00u) == filtered_prefix.value) {
      ++filtered;
      continue;
    }
    const auto payload = net::payload_view(packet, *parsed);
    std::vector<nf::SnortLogEntry> fired;
    bool passed = false;
    for (const nf::SnortRule& rule : rules) {
      if (!rule.header_matches(tuple)) continue;
      bool all = true;
      for (const nf::ContentMatch& content : rule.contents) {
        all = all && naive_content_match(payload, content);
      }
      if (!all) continue;
      if (rule.action == nf::SnortAction::kPass) {
        passed = true;
        break;
      }
      fired.push_back({tuple, rule.sid, rule.action});
    }
    if (passed) {
      ++passes;
      continue;
    }
    for (const nf::SnortLogEntry& entry : fired) {
      expected_log.push_back(entry);
      ++(entry.action == nf::SnortAction::kAlert ? alerts : logs);
    }
  }
  ASSERT_GT(alerts, 0u);
  ASSERT_GT(logs, 0u);
  ASSERT_GT(passes, 0u);
  ASSERT_GT(filtered, 0u);

  for (const bool speedybox : {false, true}) {
    SCOPED_TRACE(speedybox ? "speedybox" : "original");
    const auto chain = speedybox::testing::make_chain2();
    const auto& snort = speedybox::testing::nf_at<nf::SnortIds>(*chain, 1);
    const auto run = run_chain(*chain, workload, speedybox);
    EXPECT_EQ(run.drops, filtered);
    EXPECT_EQ(snort.log(), expected_log);
    EXPECT_EQ(snort.alert_count(), alerts);
    EXPECT_EQ(snort.log_count(), logs);
    EXPECT_EQ(snort.pass_count(), passes);
  }
}

}  // namespace
}  // namespace speedybox::runtime
