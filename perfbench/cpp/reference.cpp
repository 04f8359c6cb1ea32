// The reference forwarder: a fixed yardstick for the host's speed.
//
// The shared host this benchmark runs on changes speed by up to 2x for
// seconds or minutes at a time. The reference forwarder does the same kind
// of per-packet work as a service chain (copy the packet, parse its headers,
// hash the five-tuple, look it up in four per-flow tables, rewrite and
// re-checksum the IPv4 header, and on the inspection chain scan the payload
// through a byte-indexed automaton) on a prefix of the workload's own
// packets. It is part of the benchmark and calls no repository code beyond
// reading packet bytes, so no change to the program under test moves it.
// Every timed pass is bracketed by reference passes, and its rate is scaled
// by how fast the reference ran around it.
#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "perfbench.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kL3Offset = 14;        // after the Ethernet header
constexpr std::size_t kL4Offset = 34;        // after a 20-byte IPv4 header
constexpr std::size_t kPayloadOffset = 54;   // after a 20-byte TCP header
constexpr std::size_t kAutomatonStates = 64;
constexpr std::size_t kMaxFrame = 2048;

std::uint64_t fnv_step(std::uint64_t h, std::uint8_t byte) {
  return (h ^ byte) * 1099511628211ULL;
}

/// Hash of the five-tuple bytes (addresses, ports, protocol); never 0,
/// which marks an empty table slot. Frames too short to hold one hash to 1.
std::uint64_t flow_key(const std::uint8_t* frame, std::size_t size) {
  if (size < kPayloadOffset) return 1;
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = kL3Offset + 12; i < kL4Offset + 4; ++i) {
    h = fnv_step(h, frame[i]);
  }
  return fnv_step(h, frame[kL3Offset + 9]) | 1;
}

}  // namespace

ReferenceForwarder::ReferenceForwarder(const Workload& workload,
                                       const std::vector<net::Packet>& packets)
    : packets_(packets.data(),
               std::min(workload.reference_packets, packets.size())),
      scan_payload_(std::any_of(
          workload.chain.nfs.begin(), workload.chain.nfs.end(),
          [](const auto& nf) { return nf.kind == "snort"; })) {
  std::unordered_set<std::uint64_t> flows;
  for (const net::Packet& packet : packets_) {
    flows.insert(flow_key(packet.bytes().data(), packet.size()));
  }
  std::size_t slots = 16;
  while (slots < 2 * flows.size()) slots <<= 1;
  mask_ = slots - 1;
  for (auto& table : tables_) table.resize(slots);
  // A fixed pseudo-random automaton, as dense as a compiled rule set.
  automaton_.resize(kAutomatonStates * 256);
  std::uint64_t x = 0x5eedULL;
  for (std::uint16_t& next : automaton_) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    next = static_cast<std::uint16_t>((x >> 33) % kAutomatonStates);
  }
}

double ReferenceForwarder::pass_mpps() {
  for (auto& table : tables_) std::fill(table.begin(), table.end(), Slot{});
  std::uint8_t frame[kMaxFrame];
  std::uint64_t sum = 0;
  const std::uint64_t t0 = now_ns();
  for (const net::Packet& packet : packets_) {
    const std::size_t size = std::min(packet.size(), kMaxFrame);
    std::memcpy(frame, packet.bytes().data(), size);
    const std::uint64_t key = flow_key(frame, size);
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      std::vector<Slot>& table = tables_[t];
      std::size_t i = (key >> (7 * t)) & mask_;
      while (table[i].key != 0 && table[i].key != key) i = (i + 1) & mask_;
      Slot& slot = table[i];
      slot.key = key;
      slot.packets += 1;
      slot.bytes += size;
      sum += slot.bytes;
    }
    if (size >= kPayloadOffset) {
      frame[kL3Offset + 12] ^= static_cast<std::uint8_t>(sum);
      std::uint32_t checksum = 0;
      for (std::size_t i = kL3Offset; i < kL4Offset; i += 2) {
        checksum += static_cast<std::uint32_t>(frame[i] << 8 | frame[i + 1]);
      }
      sum += checksum;
    }
    if (scan_payload_) {
      std::uint16_t state = 0;
      for (std::size_t i = kPayloadOffset; i < size; ++i) {
        state = automaton_[static_cast<std::size_t>(state) << 8 | frame[i]];
      }
      sum += state;
    }
  }
  const double wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  checksum_ = sum;  // keeps the loop from being optimised away
  return static_cast<double>(packets_.size()) / wall_s / 1e6;
}

}  // namespace perfbench
