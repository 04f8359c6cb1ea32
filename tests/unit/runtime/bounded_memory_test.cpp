// Bounded accounting: a run's heap footprint must not grow with its packet
// count. RunStats keeps fixed-footprint histograms and the run loops reuse
// their batch buffers, so 64x more packets over the same flows must leave
// the in-use heap where it was.
#include <malloc.h>

#include <cstdint>

#include <gtest/gtest.h>

#include "chain_fixtures.hpp"
#include "runtime/runner.hpp"
#include "trace/workload.hpp"

namespace speedybox::runtime {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedAllocator = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizedAllocator = true;
#else
constexpr bool kSanitizedAllocator = false;
#endif
#else
constexpr bool kSanitizedAllocator = false;
#endif

/// Bytes the glibc allocator has handed out: arena chunks plus chunks big
/// enough to be mmapped on their own (a large sample vector lands there).
std::int64_t heap_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<std::int64_t>(info.uordblks + info.hblkhd);
}

/// In-use heap left behind by one SpeedyBox run of 64 flows x
/// `packets_per_flow` packets, with the runner still alive.
std::int64_t heap_growth_of_run(std::uint32_t packets_per_flow) {
  const trace::Workload workload =
      trace::make_uniform_workload(64, packets_per_flow, 64);
  auto chain = testing::make_chain1();
  ChainRunner runner{*chain, RunConfig{}};
  const std::int64_t before = heap_in_use();
  const RunStats& stats = runner.run_workload(workload);
  EXPECT_EQ(stats.packets, workload.packet_count());
  return heap_in_use() - before;
}

TEST(BoundedMemory, RunHeapDoesNotGrowWithPacketCount) {
  if (kSanitizedAllocator) {
    GTEST_SKIP() << "sanitizer allocators bypass glibc's mallinfo2";
  }
  const std::int64_t small = heap_growth_of_run(1 << 6);   // 2^12 packets
  const std::int64_t large = heap_growth_of_run(1 << 12);  // 2^18 packets
  EXPECT_LT(large - small, std::int64_t{1} << 20)
      << "small run left " << small << " B, large run " << large << " B";
}

}  // namespace
}  // namespace speedybox::runtime
