// Measurement mechanics of the fast path: per-rule batch-cost sampling,
// the learned critical-path fraction, parse-hint reuse, and timer-overhead
// bookkeeping.
#include <gtest/gtest.h>

#include "core/global_mat.hpp"
#include "net/packet_builder.hpp"
#include "test_helpers.hpp"
#include "util/cycle_clock.hpp"

namespace speedybox::core {
namespace {

using speedybox::testing::tuple_n;

StateFunction busy_sf(PayloadAccess access, int weight,
                      std::string name = "sf") {
  return StateFunction{
      [weight](net::Packet&, const net::ParsedPacket&) {
        volatile int x = 0;
        for (int i = 0; i < weight * 400; ++i) x = x + i;
      },
      access, std::move(name)};
}

class FastPathMeasurement : public ::testing::Test {
 protected:
  FastPathMeasurement() : a_("a", 0), b_("b", 1) {
    mat_.set_chain({&a_, &b_});
  }

  GlobalMat::FastPathResult run_packet(std::uint32_t fid) {
    net::Packet packet = net::make_tcp_packet(tuple_n(fid), "x");
    packet.set_fid(fid);
    return mat_.process(packet, /*measure_batches=*/true);
  }

  LocalMat a_;
  LocalMat b_;
  GlobalMat mat_;
};

TEST_F(FastPathMeasurement, SamplingPhaseReportsPerBatchPairs) {
  a_.add_state_function(1, busy_sf(PayloadAccess::kRead, 2));
  b_.add_state_function(1, busy_sf(PayloadAccess::kRead, 2));
  mat_.consolidate_flow(1);

  const auto result = run_packet(1);
  EXPECT_EQ(result.timer_pairs, 2u) << "sampling: one pair per batch";
  EXPECT_GT(result.sf_total_cycles, 0u);
  EXPECT_LE(result.sf_critical_path_cycles, result.sf_total_cycles);
}

TEST_F(FastPathMeasurement, SteadyStateUsesOnePair) {
  a_.add_state_function(2, busy_sf(PayloadAccess::kRead, 2));
  b_.add_state_function(2, busy_sf(PayloadAccess::kRead, 2));
  mat_.consolidate_flow(2);

  for (std::uint32_t i = 0; i < ConsolidatedRule::kCostSampleWindow; ++i) {
    run_packet(2);
  }
  const auto steady = run_packet(2);
  EXPECT_EQ(steady.timer_pairs, 1u);
  EXPECT_GT(steady.sf_total_cycles, 0u);
  EXPECT_LE(steady.sf_critical_path_cycles, steady.sf_total_cycles);
}

TEST_F(FastPathMeasurement, CriticalFractionLearnedForParallelBatches) {
  // Two equal READ batches in one group: the critical path is ~half the
  // total, and the learned fraction must reflect that in steady state.
  a_.add_state_function(3, busy_sf(PayloadAccess::kRead, 4));
  b_.add_state_function(3, busy_sf(PayloadAccess::kRead, 4));
  mat_.consolidate_flow(3);
  ASSERT_EQ(mat_.find(3)->schedule.group_count(), 1u);

  for (std::uint32_t i = 0; i <= ConsolidatedRule::kCostSampleWindow; ++i) {
    run_packet(3);
  }
  const double fraction = mat_.find(3)->critical_fraction;
  EXPECT_GT(fraction, 0.3);
  EXPECT_LT(fraction, 0.8) << "two equal parallel batches -> fraction ~0.5";

  const auto steady = run_packet(3);
  EXPECT_NEAR(static_cast<double>(steady.sf_critical_path_cycles),
              static_cast<double>(steady.sf_total_cycles) * fraction,
              static_cast<double>(steady.sf_total_cycles) * 0.05);
}

TEST_F(FastPathMeasurement, SequentialBatchesKeepFractionNearOne) {
  a_.add_state_function(4, busy_sf(PayloadAccess::kWrite, 3));
  b_.add_state_function(4, busy_sf(PayloadAccess::kWrite, 3));
  mat_.consolidate_flow(4);
  ASSERT_EQ(mat_.find(4)->schedule.group_count(), 2u);

  for (std::uint32_t i = 0; i <= ConsolidatedRule::kCostSampleWindow; ++i) {
    run_packet(4);
  }
  EXPECT_GT(mat_.find(4)->critical_fraction, 0.9);
}

TEST_F(FastPathMeasurement, MultiBatchGroupsCountedAtConsolidation) {
  // Fid 7: two READ batches share one group. Fid 8: two WRITE batches run
  // as two groups of one. Fid 9: a single batch. Interleaving them in the
  // sampling window also resizes the shared per-batch cost scratch.
  a_.add_state_function(7, busy_sf(PayloadAccess::kRead, 1));
  b_.add_state_function(7, busy_sf(PayloadAccess::kRead, 1));
  a_.add_state_function(8, busy_sf(PayloadAccess::kWrite, 1));
  b_.add_state_function(8, busy_sf(PayloadAccess::kWrite, 1));
  b_.add_state_function(9, busy_sf(PayloadAccess::kRead, 1));
  for (const std::uint32_t fid : {7u, 8u, 9u}) mat_.consolidate_flow(fid);
  EXPECT_EQ(mat_.find(7)->multi_batch_groups, 1u);
  EXPECT_EQ(mat_.find(8)->multi_batch_groups, 0u);
  EXPECT_EQ(mat_.find(9)->multi_batch_groups, 0u);

  for (std::uint32_t i = 0; i <= ConsolidatedRule::kCostSampleWindow; ++i) {
    const bool sampling = i < ConsolidatedRule::kCostSampleWindow;
    const auto parallel = run_packet(7);
    EXPECT_EQ(parallel.multi_batch_groups, 1u) << "packet " << i;
    EXPECT_EQ(parallel.timer_pairs, sampling ? 2u : 1u);
    EXPECT_LE(parallel.sf_critical_path_cycles, parallel.sf_total_cycles);
    const auto single = run_packet(9);
    EXPECT_EQ(single.multi_batch_groups, 0u);
    EXPECT_EQ(single.timer_pairs, 1u);
    const auto sequential = run_packet(8);
    EXPECT_EQ(sequential.multi_batch_groups, 0u);
    if (sampling) {
      EXPECT_EQ(sequential.sf_critical_path_cycles,
                sequential.sf_total_cycles)
          << "two groups of one: the critical path is every batch";
    }
  }

  // Unmeasured packets leave the measurement fields at zero.
  net::Packet packet = net::make_tcp_packet(tuple_n(7), "x");
  packet.set_fid(7);
  EXPECT_EQ(mat_.process(packet).multi_batch_groups, 0u);
}

TEST_F(FastPathMeasurement, ReconsolidationRestartsSampling) {
  a_.add_state_function(5, busy_sf(PayloadAccess::kRead, 1));
  mat_.consolidate_flow(5);
  for (int i = 0; i < 12; ++i) run_packet(5);
  EXPECT_EQ(mat_.find(5)->cost_samples,
            ConsolidatedRule::kCostSampleWindow);

  mat_.consolidate_flow(5);
  EXPECT_EQ(mat_.find(5)->cost_samples, 0u);
  EXPECT_DOUBLE_EQ(mat_.find(5)->critical_fraction, 1.0);
}

TEST_F(FastPathMeasurement, ParsedHintReusedWhenLayoutIntact) {
  // A modify-only rule: the hint from the classifier parse must be usable
  // and the state function must see correct payload offsets.
  a_.add_header_action(6, HeaderAction::modify(net::HeaderField::kTtl, 7));
  std::string seen_payload;
  a_.add_state_function(
      6, StateFunction{[&seen_payload](net::Packet& pkt,
                                       const net::ParsedPacket& parsed) {
                         const auto payload = net::payload_view(
                             static_cast<const net::Packet&>(pkt), parsed);
                         seen_payload.assign(payload.begin(), payload.end());
                       },
                       PayloadAccess::kRead, "peek"});
  mat_.consolidate_flow(6);

  net::Packet packet = net::make_tcp_packet(tuple_n(6), "HINTED");
  packet.set_fid(6);
  const auto parsed = net::parse_packet(packet);
  mat_.process(packet, /*measure_batches=*/true, &*parsed);
  EXPECT_EQ(seen_payload, "HINTED");
}

TEST_F(FastPathMeasurement, StructuralRuleReparsesForStateFunctions) {
  // A rule with a trailing encap changes offsets; the state function must
  // still see the (re-parsed) payload, not stale hint offsets.
  a_.add_header_action(7, HeaderAction::encap_ah(42));
  std::string seen_payload;
  b_.add_state_function(
      7, StateFunction{[&seen_payload](net::Packet& pkt,
                                       const net::ParsedPacket& parsed) {
                         const auto payload = net::payload_view(
                             static_cast<const net::Packet&>(pkt), parsed);
                         seen_payload.assign(payload.begin(), payload.end());
                       },
                       PayloadAccess::kRead, "peek"});
  mat_.consolidate_flow(7);

  net::Packet packet = net::make_tcp_packet(tuple_n(7), "TUNNELED");
  packet.set_fid(7);
  const auto parsed = net::parse_packet(packet);
  mat_.process(packet, /*measure_batches=*/true, &*parsed);
  EXPECT_EQ(seen_payload, "TUNNELED");
  EXPECT_TRUE(net::outer_ah_spi(packet).has_value());
}

TEST(TimerOverhead, CalibratedAndStable) {
  const std::uint64_t a = util::CycleClock::timer_overhead();
  const std::uint64_t b = util::CycleClock::timer_overhead();
  EXPECT_EQ(a, b);
  EXPECT_LT(a, 2000u) << "a single rdtsc cannot cost microseconds";
}

TEST(TimerOverhead, SegmentSaturatesAtZero) {
  const std::uint64_t t = util::CycleClock::now();
  // A zero-length raw span minus overhead must clamp, not wrap.
  EXPECT_EQ(util::CycleClock::segment(t, t), 0u);
}

TEST(TimerOverhead, SegmentSubtractsOverhead) {
  const std::uint64_t overhead = util::CycleClock::timer_overhead();
  EXPECT_EQ(util::CycleClock::segment(100, 100 + overhead + 50), 50u);
}

}  // namespace
}  // namespace speedybox::core
