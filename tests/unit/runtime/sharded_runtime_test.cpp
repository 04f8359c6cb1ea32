// ShardedRuntime unit tests: flow→shard affinity (both directions of a
// connection), drain-on-destruction, full-ring backpressure, clone
// refusal, and exact per-shard stats merging.
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nf/ip_filter.hpp"
#include "nf/mazu_nat.hpp"
#include "nf/monitor.hpp"
#include "runtime/sharded_runtime.hpp"
#include "test_helpers.hpp"
#include "trace/workload.hpp"
#include "util/hash.hpp"

namespace speedybox::runtime {
namespace {

using speedybox::testing::same_bytes;
using speedybox::testing::tuple_n;

std::unique_ptr<ServiceChain> monitor_chain() {
  auto chain = std::make_unique<ServiceChain>("mon");
  chain->emplace_nf<nf::Monitor>();
  return chain;
}

TEST(ShardedRuntime, BothDirectionsOfAFlowShareAShard) {
  auto chain = monitor_chain();
  ShardedRuntime runtime{*chain, 4};
  for (std::uint32_t id = 0; id < 200; ++id) {
    const net::FiveTuple forward = tuple_n(id);
    EXPECT_EQ(runtime.shard_of(forward), runtime.shard_of(forward.reversed()))
        << forward.to_string();
    EXPECT_LT(runtime.shard_of(forward), runtime.shard_count());
  }
}

TEST(ShardedRuntime, PacketsLandOnTheirFlowsShard) {
  const trace::Workload workload = trace::make_uniform_workload(32, 6, 32);
  auto chain = monitor_chain();
  ShardedRuntime runtime{*chain, 4};

  // Expected per-shard packet counts from the dispatch function alone.
  std::vector<std::uint64_t> expected(runtime.shard_count(), 0);
  for (const trace::TracePacket& tp : workload.order) {
    ++expected[runtime.shard_of(workload.flows[tp.flow].tuple)];
  }

  const ShardedRunResult result = runtime.run_workload(workload);
  EXPECT_EQ(result.shard_packets, expected);
  EXPECT_EQ(result.stats.packets, workload.packet_count());

  // And the per-shard Monitor state covers exactly that shard's flows.
  for (std::size_t s = 0; s < runtime.shard_count(); ++s) {
    auto* monitor = dynamic_cast<nf::Monitor*>(&runtime.shard_chain(s).nf(0));
    ASSERT_NE(monitor, nullptr);
    monitor->for_each_flow(
        [&](const net::FiveTuple& tuple, const nf::FlowCounters&) {
          EXPECT_EQ(runtime.shard_of(tuple), s) << tuple.to_string();
        });
  }
}

TEST(ShardedRuntime, PartitionByFlowMatchesDispatcherSteering) {
  // trace::partition_by_flow promises sub-workload k is exactly what shard
  // k sees; hold it to that against the runtime's own shard_of.
  const trace::Workload workload = trace::make_uniform_workload(40, 3, 16);
  auto chain = monitor_chain();
  ShardedRuntime runtime{*chain, 4};
  const auto parts = trace::partition_by_flow(workload, 4);
  ASSERT_EQ(parts.size(), 4u);
  for (std::size_t s = 0; s < parts.size(); ++s) {
    for (const auto& flow : parts[s].flows) {
      EXPECT_EQ(runtime.shard_of(flow.tuple), s) << flow.tuple.to_string();
    }
  }
}

/// Counts process() calls into shared storage so processing is observable
/// after the runtime (and its cloned chains) are gone.
class CountingNf : public nf::NetworkFunction {
 public:
  explicit CountingNf(std::atomic<std::uint64_t>* counter)
      : nf::NetworkFunction("counting"), counter_(counter) {}
  void process(net::Packet&, core::SpeedyBoxContext*) override {
    counter_->fetch_add(1, std::memory_order_relaxed);
  }
  std::unique_ptr<nf::NetworkFunction> clone() const override {
    return std::make_unique<CountingNf>(counter_);
  }

 private:
  std::atomic<std::uint64_t>* counter_;
};

TEST(ShardedRuntime, DestructorDrainsInFlightPackets) {
  std::atomic<std::uint64_t> processed{0};
  {
    ServiceChain chain{"count"};
    chain.emplace_nf<CountingNf>(&processed);
    // Original mode: every packet reaches the NF, so the counter is an
    // exact packet count.
    ShardedRuntime runtime{
        chain, 4, {platform::PlatformKind::kBess, false, false}};
    for (std::uint32_t i = 0; i < 300; ++i) {
      runtime.push(net::make_tcp_packet(tuple_n(i % 24), "inflight"));
    }
    // No finish(): the destructor must drain all 300 before joining.
  }
  EXPECT_EQ(processed.load(), 300u);
}

TEST(ShardedRuntime, FullRingExertsBackpressureWithoutLoss) {
  auto chain = monitor_chain();
  // Ring of 2 slots: the dispatcher outruns the workers immediately.
  ShardedRuntime runtime{*chain, 2,
                         {platform::PlatformKind::kBess, true, false},
                         /*ring_capacity=*/2};
  const trace::Workload workload = trace::make_uniform_workload(16, 25, 32);
  const ShardedRunResult result = runtime.run_workload(workload);
  EXPECT_EQ(result.stats.packets, workload.packet_count());
  EXPECT_EQ(result.outcomes.size(), workload.packet_count());
  EXPECT_GT(runtime.backpressure_waits(), 0u)
      << "a 2-slot ring under a 400-packet burst must fill";
  for (const PacketOutcome& outcome : result.outcomes) {
    EXPECT_FALSE(outcome.dropped);
  }
}

TEST(ShardedRuntime, RingSmallerThanBurstStillDeliversEverything) {
  // Ring capacity 4 < batch_size 8: every staging flush is a partial burst
  // push, so the dispatcher's retry loop and the worker's partial pops are
  // both on the hot path. Nothing may be lost or reordered per flow.
  auto chain = monitor_chain();
  runtime::RunConfig config{platform::PlatformKind::kBess, true, false};
  config.batch_size = 8;
  ShardedRuntime runtime{*chain, 2, config, /*ring_capacity=*/4};
  const trace::Workload workload = trace::make_uniform_workload(12, 30, 24);
  const ShardedRunResult result = runtime.run_workload(workload);
  EXPECT_EQ(result.stats.packets, workload.packet_count());
  EXPECT_EQ(result.outcomes.size(), workload.packet_count());
  EXPECT_GT(runtime.backpressure_waits(), 0u)
      << "burst of 8 into a 4-slot ring must block at least once";
  for (const PacketOutcome& outcome : result.outcomes) {
    EXPECT_FALSE(outcome.dropped);
  }
}

TEST(ShardedRuntime, PartialStagingBuffersFlushOnFinish) {
  // 5 packets of one flow with batch_size 8: the staging buffer never
  // fills, so only the finish()-time flush delivers them.
  auto chain = monitor_chain();
  runtime::RunConfig config{platform::PlatformKind::kBess, true, false};
  config.batch_size = 8;
  ShardedRuntime runtime{*chain, 2, config};
  for (int i = 0; i < 5; ++i) {
    runtime.push(net::make_tcp_packet(tuple_n(3), "staged"));
  }
  const ShardedRunResult result = runtime.finish();
  EXPECT_EQ(result.stats.packets, 5u);
  EXPECT_EQ(result.outcomes.size(), 5u);
}

TEST(ShardedRuntime, SingleShardMatchesChainRunnerExactly) {
  const trace::Workload workload = trace::make_uniform_workload(10, 8, 48);

  auto reference_chain = std::make_unique<ServiceChain>("ref");
  reference_chain->emplace_nf<nf::MazuNat>();
  reference_chain->emplace_nf<nf::Monitor>();
  ChainRunner runner{*reference_chain,
                     {platform::PlatformKind::kBess, true, false}};
  std::vector<net::Packet> reference_out;
  for (std::size_t i = 0; i < workload.packet_count(); ++i) {
    net::Packet packet = workload.materialize(i);
    runner.process_packet(packet);
    reference_out.push_back(std::move(packet));
  }

  auto prototype = std::make_unique<ServiceChain>("proto");
  prototype->emplace_nf<nf::MazuNat>();
  prototype->emplace_nf<nf::Monitor>();
  ShardedRuntime runtime{*prototype, 1,
                         {platform::PlatformKind::kBess, true, false}};
  const ShardedRunResult result = runtime.run_workload(workload);

  ASSERT_EQ(result.packets.size(), reference_out.size());
  for (std::size_t i = 0; i < reference_out.size(); ++i) {
    EXPECT_TRUE(same_bytes(result.packets[i], reference_out[i]))
        << "packet " << i;
  }
}

TEST(ShardedRuntime, RefusesChainsWithNonClonableNfs) {
  class NotClonable : public nf::NetworkFunction {
   public:
    NotClonable() : nf::NetworkFunction("opaque") {}
    void process(net::Packet&, core::SpeedyBoxContext*) override {}
  };
  ServiceChain chain{"opaque-chain"};
  chain.emplace_nf<NotClonable>();
  EXPECT_THROW(ShardedRuntime(chain, 2), std::logic_error);
}

TEST(ShardedRuntime, PushAfterFinishThrows) {
  auto chain = monitor_chain();
  ShardedRuntime runtime{*chain, 2};
  runtime.push(net::make_tcp_packet(tuple_n(1), "x"));
  runtime.finish();
  EXPECT_THROW(runtime.push(net::make_tcp_packet(tuple_n(2), "y")),
               std::logic_error);
}

/// Throws on every packet of one flow; all other flows pass untouched.
class PoisonedFlowNf : public nf::NetworkFunction {
 public:
  explicit PoisonedFlowNf(net::FiveTuple poison)
      : nf::NetworkFunction("poisoned"), poison_(poison) {}
  void process(net::Packet& packet, core::SpeedyBoxContext*) override {
    const auto parsed = net::parse_packet(packet);
    if (parsed && net::extract_five_tuple(packet, *parsed) == poison_) {
      throw std::runtime_error("poisoned flow");
    }
  }
  std::unique_ptr<nf::NetworkFunction> clone() const override {
    return std::make_unique<PoisonedFlowNf>(poison_);
  }

 private:
  net::FiveTuple poison_;
};

TEST(ShardedRuntime, WorkerExceptionSurfacesFromFinish) {
  ServiceChain chain{"poison"};
  chain.emplace_nf<PoisonedFlowNf>(tuple_n(5));
  // A 2-slot ring keeps the dispatcher in its backpressure loop long after
  // the fault, and quiesce() pushes a drain marker through the faulted
  // shard: both return only if that worker keeps draining.
  ShardedRuntime runtime{
      chain, 4, {platform::PlatformKind::kBess, false, false}, 2};
  const std::size_t faulted = runtime.shard_of(tuple_n(5));
  for (std::uint32_t i = 0; i < 600; ++i) {
    runtime.push(net::make_tcp_packet(tuple_n(i % 24), "payload"));
    if (i == 300) runtime.quiesce();
  }
  try {
    runtime.finish();
    FAIL() << "finish() must rethrow the worker's exception";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string{error.what()}.find(
                  "shard " + std::to_string(faulted) + " "),
              std::string::npos)
        << error.what();
    EXPECT_THROW(std::rethrow_if_nested(error), std::runtime_error)
        << "the original exception rides along nested";
  }
}

TEST(ShardedRuntime, ExecutorRunRethrowsWorkerException) {
  ServiceChain chain{"poison"};
  chain.emplace_nf<PoisonedFlowNf>(tuple_n(3));
  ShardedRuntime runtime{chain, 2,
                         {platform::PlatformKind::kBess, false, false}};
  std::vector<net::Packet> packets;
  for (std::uint32_t i = 0; i < 64; ++i) {
    packets.push_back(net::make_tcp_packet(tuple_n(i % 8), "payload"));
  }
  EXPECT_THROW(runtime.run(packets, nullptr), std::runtime_error);
}

TEST(ShardedRuntime, MergedStatsAreExactSumsOfShardStats) {
  const trace::Workload workload = trace::make_uniform_workload(30, 10, 64);
  auto chain = std::make_unique<ServiceChain>("stats");
  chain->emplace_nf<nf::MazuNat>();
  chain->emplace_nf<nf::IpFilter>(std::vector<nf::AclRule>{
      nf::AclRule::drop_dst_port(81)});
  ShardedRuntime runtime{*chain, 3,
                         {platform::PlatformKind::kBess, true, false}};
  const ShardedRunResult result = runtime.run_workload(workload);

  std::uint64_t packets = 0;
  std::uint64_t drops = 0;
  std::size_t latency_samples = 0;
  for (const RunStats& stats : result.shard_stats) {
    packets += stats.packets;
    drops += stats.drops;
    latency_samples += stats.latency_us_all.count();
  }
  EXPECT_EQ(result.stats.packets, packets);
  EXPECT_EQ(result.stats.packets, workload.packet_count());
  EXPECT_EQ(result.stats.drops, drops);
  EXPECT_EQ(result.stats.latency_us_all.count(), latency_samples);
  // One per-flow time sample per flow, across all shards.
  EXPECT_EQ(result.flow_time_us.count(), workload.flows.size());
}

}  // namespace
}  // namespace speedybox::runtime
