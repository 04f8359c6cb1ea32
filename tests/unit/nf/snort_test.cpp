#include "nf/snort_ids.hpp"

#include <gtest/gtest.h>

#include "net/packet_builder.hpp"
#include "test_helpers.hpp"

namespace speedybox::nf {
namespace {

using speedybox::testing::tuple_n;

std::vector<SnortRule> test_rules() {
  return parse_snort_rules(R"(
alert tcp any any -> any 80 (content:"attack"; msg:"m1"; sid:100;)
log tcp any any -> any 80 (content:"curious"; msg:"m2"; sid:200;)
pass tcp any any -> any 80 (content:"healthz"; msg:"m3"; sid:300;)
alert tcp any any -> any 443 (content:"tls-bad"; msg:"m4"; sid:400;)
alert tcp any any -> any any (content:"multi"; content:"part"; msg:"m5"; sid:500;)
)");
}

TEST(SnortIds, AlertsOnMatchingPayload) {
  SnortIds snort{test_rules()};
  net::Packet packet = net::make_tcp_packet(tuple_n(1, 80), "an attack here");
  snort.process(packet, nullptr);
  ASSERT_EQ(snort.log().size(), 1u);
  EXPECT_EQ(snort.log()[0].sid, 100u);
  EXPECT_EQ(snort.log()[0].action, SnortAction::kAlert);
  EXPECT_EQ(snort.alert_count(), 1u);
  EXPECT_FALSE(packet.dropped()) << "IDS only observes";
}

TEST(SnortIds, CleanPayloadNoLog) {
  SnortIds snort{test_rules()};
  net::Packet packet = net::make_tcp_packet(tuple_n(2, 80), "nothing here");
  snort.process(packet, nullptr);
  EXPECT_TRUE(snort.log().empty());
}

TEST(SnortIds, PortGroupFiltering) {
  SnortIds snort{test_rules()};
  // "attack" rule is dst-port-80 only; on port 443 it must not fire.
  net::Packet packet =
      net::make_tcp_packet(tuple_n(3, 443), "an attack here");
  snort.process(packet, nullptr);
  EXPECT_TRUE(snort.log().empty());
}

TEST(SnortIds, LogAction) {
  SnortIds snort{test_rules()};
  net::Packet packet = net::make_tcp_packet(tuple_n(4, 80), "curious cat");
  snort.process(packet, nullptr);
  ASSERT_EQ(snort.log().size(), 1u);
  EXPECT_EQ(snort.log()[0].action, SnortAction::kLog);
  EXPECT_EQ(snort.log_count(), 1u);
}

TEST(SnortIds, PassSuppressesAlert) {
  SnortIds snort{test_rules()};
  // Payload matches both the pass rule and the alert rule: pass-first order
  // suppresses the alert.
  net::Packet packet =
      net::make_tcp_packet(tuple_n(5, 80), "healthz attack");
  snort.process(packet, nullptr);
  EXPECT_TRUE(snort.log().empty());
  EXPECT_EQ(snort.pass_count(), 1u);
}

TEST(SnortIds, MultiContentRuleNeedsAllContents) {
  SnortIds snort{test_rules()};
  net::Packet partial = net::make_tcp_packet(tuple_n(6, 80), "multi only");
  snort.process(partial, nullptr);
  EXPECT_TRUE(snort.log().empty());

  net::Packet full =
      net::make_tcp_packet(tuple_n(7, 80), "multi and part");
  snort.process(full, nullptr);
  ASSERT_EQ(snort.log().size(), 1u);
  EXPECT_EQ(snort.log()[0].sid, 500u);
}

TEST(SnortIds, PerPacketInspectionRepeats) {
  SnortIds snort{test_rules()};
  for (int i = 0; i < 3; ++i) {
    net::Packet packet = net::make_tcp_packet(tuple_n(8, 80), "attack");
    snort.process(packet, nullptr);
  }
  EXPECT_EQ(snort.alert_count(), 3u) << "every packet is inspected";
}

TEST(SnortIds, RecordsForwardAndReadStateFunction) {
  SnortIds snort{test_rules()};
  core::LocalMat mat{"snort", 0};
  core::EventTable events;
  core::SpeedyBoxContext ctx{mat, events, 11};

  net::Packet packet = net::make_tcp_packet(tuple_n(9, 80), "attack");
  packet.set_fid(11);
  snort.process(packet, &ctx);

  const core::LocalRule* rule = mat.find(11);
  ASSERT_NE(rule, nullptr);
  ASSERT_EQ(rule->header_actions.size(), 1u);
  EXPECT_EQ(rule->header_actions[0].type, core::HeaderActionType::kForward);
  ASSERT_EQ(rule->state_functions.size(), 1u);
  EXPECT_EQ(rule->state_functions[0].access, core::PayloadAccess::kRead);
}

TEST(SnortIds, RecordedHandlerInspectsLikeProcess) {
  SnortIds snort{test_rules()};
  core::LocalMat mat{"snort", 0};
  core::EventTable events;
  core::SpeedyBoxContext ctx{mat, events, 12};

  net::Packet initial = net::make_tcp_packet(tuple_n(10, 80), "clean");
  initial.set_fid(12);
  snort.process(initial, &ctx);
  EXPECT_EQ(snort.alert_count(), 0u);

  // Invoke the recorded handler on a malicious subsequent packet.
  net::Packet subsequent = net::make_tcp_packet(tuple_n(10, 80), "attack!");
  const auto parsed = net::parse_packet(subsequent);
  mat.find(12)->state_functions[0].handler(subsequent, *parsed);
  EXPECT_EQ(snort.alert_count(), 1u);
}

TEST(SnortIds, FlowStateFreedOnFin) {
  SnortIds snort{test_rules()};
  net::Packet open = net::make_tcp_packet(tuple_n(11, 80), "x");
  snort.process(open, nullptr);
  EXPECT_EQ(snort.tracked_flows(), 1u);
  net::Packet fin = net::make_tcp_packet(
      tuple_n(11, 80), "", net::kTcpFlagFin | net::kTcpFlagAck);
  snort.process(fin, nullptr);
  EXPECT_EQ(snort.tracked_flows(), 0u);
}

TEST(SnortIds, NocaseMatchesAnyCapitalization) {
  SnortIds snort{parse_snort_rules(
      R"(alert tcp any any -> any 80 (content:"attack"; nocase; sid:700;))")};
  for (const char* payload : {"ATTACK", "AtTaCk now", "attack"}) {
    net::Packet packet = net::make_tcp_packet(tuple_n(20, 80), payload);
    snort.process(packet, nullptr);
  }
  EXPECT_EQ(snort.alert_count(), 3u);

  // Case-sensitive rules must NOT match the wrong case.
  SnortIds strict{parse_snort_rules(
      R"(alert tcp any any -> any 80 (content:"attack"; sid:701;))")};
  net::Packet upper = net::make_tcp_packet(tuple_n(21, 80), "ATTACK");
  strict.process(upper, nullptr);
  EXPECT_EQ(strict.alert_count(), 0u);
}

TEST(SnortIds, OffsetDepthConstrainMatchPosition) {
  // Content must start within payload bytes [4, 4+4): classic "match the
  // command field, not the body".
  SnortIds snort{parse_snort_rules(
      R"(alert tcp any any -> any 80 (content:"EVIL"; offset:4; depth:4; sid:702;))")};

  net::Packet in_window = net::make_tcp_packet(tuple_n(22, 80), "xxxxEVIL");
  snort.process(in_window, nullptr);
  EXPECT_EQ(snort.alert_count(), 1u);

  net::Packet too_early = net::make_tcp_packet(tuple_n(23, 80), "EVILxxxx");
  snort.process(too_early, nullptr);
  EXPECT_EQ(snort.alert_count(), 1u) << "match before offset must not fire";

  net::Packet too_late =
      net::make_tcp_packet(tuple_n(24, 80), "xxxxxxxxxxEVIL");
  snort.process(too_late, nullptr);
  EXPECT_EQ(snort.alert_count(), 1u) << "match beyond depth must not fire";
}

TEST(SnortIds, MixedCaseClassesInOneRule) {
  SnortIds snort{parse_snort_rules(
      R"(alert tcp any any -> any 80 (content:"HDR"; nocase; content:"body"; sid:703;))")};
  net::Packet both = net::make_tcp_packet(tuple_n(25, 80), "hdr ... body");
  snort.process(both, nullptr);
  EXPECT_EQ(snort.alert_count(), 1u);

  net::Packet wrong_case_body =
      net::make_tcp_packet(tuple_n(26, 80), "hdr ... BODY");
  snort.process(wrong_case_body, nullptr);
  EXPECT_EQ(snort.alert_count(), 1u)
      << "the case-sensitive content must still be enforced";
}

TEST(SnortIds, CaseClassesOfOneWordStayApart) {
  // The same word as a case-sensitive and a nocase content: one automaton
  // state serves both, and only the nocase rule may fire on "SeLeCt".
  const auto rules = parse_snort_rules(R"(
alert tcp any any -> any 80 (content:"SELECT"; sid:801;)
alert tcp any any -> any 80 (content:"select"; nocase; sid:802;)
)");
  SnortIds direct{rules};
  net::Packet packet = net::make_tcp_packet(tuple_n(27, 80), "SeLeCt");
  direct.process(packet, nullptr);
  ASSERT_EQ(direct.log().size(), 1u);
  EXPECT_EQ(direct.log()[0].sid, 802u);

  // The recorded state function inspects exactly like process().
  SnortIds recorded{rules};
  core::LocalMat mat{"snort", 0};
  core::EventTable events;
  core::SpeedyBoxContext ctx{mat, events, 13};
  net::Packet initial = net::make_tcp_packet(tuple_n(27, 80), "SeLeCt");
  initial.set_fid(13);
  recorded.process(initial, &ctx);
  net::Packet subsequent = net::make_tcp_packet(tuple_n(27, 80), "SeLeCt");
  const auto parsed = net::parse_packet(subsequent);
  mat.find(13)->state_functions[0].handler(subsequent, *parsed);
  ASSERT_EQ(recorded.log().size(), 2u);
  EXPECT_EQ(recorded.log()[0], direct.log()[0]);
  EXPECT_EQ(recorded.log()[1], direct.log()[0]);
}

TEST(SnortIds, LogRecordsFlowTuple) {
  SnortIds snort{test_rules()};
  net::Packet packet = net::make_tcp_packet(tuple_n(12, 80), "attack");
  snort.process(packet, nullptr);
  ASSERT_EQ(snort.log().size(), 1u);
  EXPECT_EQ(snort.log()[0].tuple, tuple_n(12, 80));
}

}  // namespace
}  // namespace speedybox::nf
