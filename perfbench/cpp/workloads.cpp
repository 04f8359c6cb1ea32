// The benchmark's two traffic mixes. Each shape is fixed here; only the
// seed varies, and the same seed always yields the same packets.
#include <cmath>
#include <limits>
#include <stdexcept>

#include "perfbench.hpp"
#include "trace/payload_synth.hpp"
#include "trace/workload.hpp"

namespace perfbench {

namespace {

namespace trace = speedybox::trace;

std::vector<net::Packet> materialize(const trace::Workload& workload) {
  std::vector<net::Packet> packets;
  packets.reserve(workload.packet_count());
  for (std::size_t i = 0; i < workload.packet_count(); ++i) {
    packets.push_back(workload.materialize(i));
  }
  return packets;
}

}  // namespace

Workload workload_named(std::string_view name) {
  // Offered rates are about 45% of each mix's single-thread SpeedyBox
  // throughput at the commit that introduced this benchmark. An open-loop
  // pass lasts packets / rate: about 1.7 s on hot-fastpath and 5 s on
  // inspection. The pass counts give each about 20 s of open loop; the
  // per-pass p50 flips with the host's speed, so it needs many passes.
  //
  // The reference forwarder replays enough packets to take about a tenth of
  // a runner pass. Its nominal rates are its median rates on those packets
  // on the development host (4 vCPUs of a 2.1-GHz Xeon); they set the scale
  // of the normalised metrics and never change.
  if (name == "hot-fastpath") {
    return {std::string{name}, plan::vii_c_chain1(), 0.6, 13,
            std::numeric_limits<std::size_t>::max(), 13.6};
  }
  if (name == "inspection") {
    return {std::string{name}, plan::vii_c_chain2(), 0.04, 4, 50000, 0.32};
  }
  throw std::invalid_argument("unknown workload '" + std::string{name} +
                              "' (hot-fastpath, inspection)");
}

std::vector<net::Packet> make_packets(const Workload& workload,
                                      std::uint64_t seed) {
  trace::DatacenterWorkloadConfig config;
  config.seed = seed;
  config.payload_size = 64;
  if (workload.name == "hot-fastpath") {
    // 256 long flows of ~4,000 packets: almost every packet takes the
    // consolidated fast path and the working set stays cache resident.
    config.flow_count = 256;
    config.flow_size_mu = std::log(4000.0);
    config.flow_size_sigma = 0.1;
    config.max_flow_packets = 8000;
  } else {
    // 2,000 flows of ~100 packets with 1 KiB payloads; Snort rule content
    // planted in a fifth of them.
    config.flow_count = 2000;
    config.flow_size_mu = std::log(100.0);
    config.flow_size_sigma = 0.1;
    config.max_flow_packets = 1000;
    config.payload_size = 1024;
  }
  trace::Workload generated = trace::make_datacenter_workload(config);
  if (workload.name == "inspection") {
    trace::PayloadSynthConfig synth;
    synth.match_fraction = 0.2;
    synth.seed = seed ^ 0x5eedu;
    trace::plant_rule_contents(generated, trace::default_snort_rules(),
                               synth);
  }
  return materialize(generated);
}

std::vector<net::Packet> make_warmup_packets(const Workload& workload) {
  const std::size_t payload = workload.name == "inspection" ? 1024 : 64;
  return materialize(trace::make_uniform_workload(32, 8, payload, 99));
}

std::vector<net::Packet> make_nat_overflow_packets(std::uint64_t seed) {
  trace::DatacenterWorkloadConfig config;
  config.seed = seed;
  config.payload_size = 64;
  config.flow_count = kNatOverflowFlows;
  config.max_flow_packets = 1;  // one SYN each: no flow is ever torn down
  return materialize(trace::make_datacenter_workload(config));
}

}  // namespace perfbench
