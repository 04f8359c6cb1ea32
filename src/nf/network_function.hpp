// NF framework: the contract between NFs and the two data paths.
//
// An NF implements process(packet, ctx). On the baseline path and for all
// packets of the original chain, ctx is null and the NF behaves like an
// unmodified middlebox — it parses the packet itself, looks up its own flow
// tables, applies its actions. On the SpeedyBox recording pass (the initial
// packet of each flow), ctx carries the flow's SpeedyBoxContext and the NF
// additionally records its behavior through the §IV-B APIs. Recording never
// alters processing: the packet leaves process() identical either way.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "core/flow_table.hpp"
#include "net/checksum.hpp"
#include "net/packet.hpp"
#include "net/packet_batch.hpp"

namespace speedybox::nf {

class NetworkFunction {
 public:
  explicit NetworkFunction(std::string name) : name_(std::move(name)) {}
  virtual ~NetworkFunction() = default;

  NetworkFunction(const NetworkFunction&) = delete;
  NetworkFunction& operator=(const NetworkFunction&) = delete;

  const std::string& name() const noexcept { return name_; }

  /// Process one packet. May mark it dropped; the chain stops there.
  virtual void process(net::Packet& packet, core::SpeedyBoxContext* ctx) = 0;

  /// Process a burst (DESIGN.md §8). `ctxs` carries one SpeedyBoxContext*
  /// per slot, or is empty when every slot runs baseline (ctx = nullptr).
  /// The default loops the scalar process() over the valid slots in slot
  /// order — every NF keeps working unchanged — and masks slots whose
  /// packet dropped. Overrides (Monitor, IpFilter) hoist the
  /// stateless per-packet work (parse + validate + hash) into a pre-pass
  /// that prefetches across the batch, but MUST keep all stateful work in
  /// slot order and byte-identical to the scalar path: the differential
  /// harness compares the two paths bit for bit.
  virtual void process_batch(net::PacketBatch& batch,
                             std::span<core::SpeedyBoxContext* const> ctxs) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!batch.valid(i)) continue;
      process(batch.packet(i), ctxs.empty() ? nullptr : ctxs[i]);
      if (batch.packet(i).dropped()) batch.mask(i);
    }
  }

  /// Create a configuration-identical instance with fresh per-flow state —
  /// how a sharded deployment replicates the chain, one replica per core.
  /// Because flows are shard-affine, replicas never need to share state, so
  /// per-flow tables start empty; configuration (ACLs, rules, backends,
  /// port ranges) is copied. Returns nullptr when the NF is not replicable
  /// (the sharded runtime refuses such chains).
  virtual std::unique_ptr<NetworkFunction> clone() const { return nullptr; }

  /// clone() with the silent-nullptr footgun removed: throws
  /// std::logic_error naming the offending NF when clone() is
  /// unimplemented. Replication points (ServiceChain::clone, the sharded
  /// runtime, flow migration) call this so a non-replicable NF fails loudly
  /// at setup instead of degrading at runtime.
  std::unique_ptr<NetworkFunction> clone_checked() const {
    auto copy = clone();
    if (copy == nullptr) {
      throw std::logic_error("NetworkFunction '" + name_ +
                             "' does not support clone()");
    }
    return copy;
  }

  // --- Per-flow state migration (live resharding, DESIGN.md §10) ----------

  /// Whether this NF implements the export/import pair below. The migration
  /// engine refuses chains containing non-migratable NFs at setup.
  virtual bool supports_flow_migration() const { return false; }

  /// Serialize this NF's state for `tuple` (the tuple as observed by THIS
  /// NF, i.e. after upstream rewrites) into an opaque byte payload. Returns
  /// std::nullopt when the NF holds no state for the flow — the importer
  /// then skips this NF entirely. Export is a COPY: source-side state is
  /// released later via the LocalMat teardown hooks, except where an NF
  /// documents move semantics (Monitor moves its per-flow counters so the
  /// cross-shard union of counter maps stays a partition).
  virtual std::optional<std::vector<std::uint8_t>> export_flow_state(
      const net::FiveTuple& tuple) {
    (void)tuple;
    throw std::logic_error("NetworkFunction '" + name_ +
                           "' does not support flow migration (export)");
  }

  /// Restore state exported by an identically configured instance AND
  /// re-record the flow's behavior through `ctx` (header actions, state
  /// functions, teardown hooks, events), exactly as process() would have on
  /// the initial packet. Re-recording — not copying LocalMat entries — is
  /// required because recorded closures capture the source instance and
  /// node pointers into its tables; the destination must capture its own.
  virtual void import_flow_state(const net::FiveTuple& tuple,
                                 std::span<const std::uint8_t> bytes,
                                 core::SpeedyBoxContext* ctx) {
    (void)tuple;
    (void)bytes;
    (void)ctx;
    throw std::logic_error("NetworkFunction '" + name_ +
                           "' does not support flow migration (import)");
  }

  /// Flow teardown notification (FIN/RST): release per-flow state.
  virtual void on_flow_teardown(const net::FiveTuple& tuple) {
    (void)tuple;
  }

  /// Occupancy / probe-length / slab statistics of this NF's per-flow
  /// tables (DESIGN.md §13), merged across all of them when the NF keeps
  /// several (MazuNat's forward+reverse). Zero-valued for stateless NFs.
  virtual core::FlowTableStats flow_state_stats() const { return {}; }

  std::uint64_t packets_processed() const noexcept { return packets_; }

 protected:
  void count_packet() noexcept { ++packets_; }

  /// Parse the packet and validate the IPv4 header checksum, dropping it on
  /// failure — what Click's CheckIPHeader element (present in the paper's
  /// IPFilter and mazu-nat configurations) does at the head of every
  /// pipeline. Every baseline NF pays this per packet: this is exactly the
  /// R1 redundancy (repeated parsing and validation) that SpeedyBox's
  /// classifier amortizes to once per packet.
  static std::optional<net::ParsedPacket> parse_and_check(
      net::Packet& packet) noexcept {
    auto parsed = net::parse_packet(packet);
    if (!parsed || !net::verify_ipv4_checksum(packet, parsed->l3_offset)) {
      packet.mark_dropped();
      return std::nullopt;
    }
    return parsed;
  }

 private:
  std::string name_;
  std::uint64_t packets_ = 0;
};

}  // namespace speedybox::nf
