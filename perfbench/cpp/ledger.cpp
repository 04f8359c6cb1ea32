// Traced replay: the outside-in layer ledger.
//
// The replay drives a fresh chain by calling each layer's public functions
// itself, in the order ChainRunner's SpeedyBox path calls them, and brackets
// every call with a span. The replay's outputs must equal the untraced
// executor's; the caller checks.
#include <algorithm>

#include "net/checksum.hpp"
#include "perfbench.hpp"
#include "util/cycle_clock.hpp"

namespace perfbench {

namespace {

namespace core = speedybox::core;
using speedybox::util::CycleClock;

double frac(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

Ledger traced_replay(const plan::ChainSpec& chain,
                     const std::vector<net::Packet>& packets, SpanLog& log) {
  Ledger ledger;
  ledger.outputs = packets;
  for (net::Packet& packet : ledger.outputs) packet.reset_metadata();
  const auto built = plan::build_chain(chain);
  speedybox::runtime::ServiceChain& sc = *built;
  core::PacketClassifier& classifier = sc.classifier();
  core::GlobalMat& mat = sc.global_mat();

  const std::uint16_t parse_layer = log.layer("net.parse");
  const std::uint16_t classify_layer = log.layer("core.classify");
  const std::uint16_t record_layer = log.layer("core.record");
  const std::uint16_t consolidate_layer = log.layer("core.consolidate");
  const std::uint16_t fastpath_layer = log.layer("core.fastpath");
  const std::uint16_t teardown_layer = log.layer("core.teardown");
  const std::uint16_t table_layer = log.layer("core.flow_table");
  std::vector<std::uint16_t> nf_layers;
  for (const auto& nf : chain.nfs) {
    nf_layers.push_back(log.layer("nf." + nf.kind + ".record"));
  }
  const std::size_t first_span = log.spans().size();

  std::uint64_t initial = 0;
  std::uint64_t rule_hits = 0;
  std::uint64_t fast_drops = 0;
  std::uint64_t timer_pairs = 0;
  std::vector<double> sf_ns;
  sf_ns.reserve(packets.size());
  std::size_t table_bytes = 0;
  std::uint64_t max_probe = 0;
  const auto sample_tables = [&](std::uint32_t id) {
    const std::uint32_t span = log.open(table_layer, id);
    const core::FlowTableStats stats = sc.flow_table_stats();
    log.close(span);
    table_bytes = std::max(table_bytes, stats.slab_bytes);
    max_probe = std::max(max_probe, stats.max_probe);
  };

  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < ledger.outputs.size(); ++i) {
    net::Packet& packet = ledger.outputs[i];
    const auto id = static_cast<std::uint32_t>(i);
    packet.set_arrival_cycle(CycleClock::now());

    std::uint32_t span = log.open(parse_layer, id);
    auto parsed = net::parse_packet(packet);
    if (parsed && !net::verify_ipv4_checksum(packet, parsed->l3_offset)) {
      parsed.reset();
    }
    log.close(span);

    span = log.open(classify_layer, id);
    const auto classification =
        classifier.classify(packet, parsed ? &*parsed : nullptr);
    log.close(span);
    if (!classification) {
      packet.mark_dropped();
      continue;
    }

    if (classification->path == core::PacketClassifier::Path::kInitial) {
      ++initial;
      const std::uint32_t record = log.open(record_layer, id);
      for (std::size_t k = 0; k < sc.size(); ++k) {
        core::SpeedyBoxContext ctx{sc.local_mat(k), mat.event_table(),
                                   classification->fid};
        span = log.open(nf_layers[k], id, record);
        sc.nf(k).process(packet, &ctx);
        log.close(span);
        if (packet.dropped()) break;
      }
      log.close(record);
      span = log.open(consolidate_layer, id);
      mat.consolidate_flow(classification->fid);
      log.close(span);
    } else {
      span = log.open(fastpath_layer, id);
      const auto result = mat.process(packet, /*measure_batches=*/true,
                                      &classification->parsed);
      log.close(span);
      rule_hits += result.rule_hit ? 1 : 0;
      fast_drops += result.dropped ? 1 : 0;
      timer_pairs += result.timer_pairs;
      sf_ns.push_back(CycleClock::to_ns(result.sf_total_cycles));
    }

    if (classification->teardown) {
      span = log.open(teardown_layer, id);
      mat.erase_flow(classification->fid);
      classifier.release_flow(classification->fid);
      log.close(span);
    }
    if (i % 4096 == 0) sample_tables(id);
  }
  sample_tables(static_cast<std::uint32_t>(packets.size()));
  ledger.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  if (!log.recording()) return ledger;

  // Self time: a span's duration minus its children's. Only recording spans
  // have children (the NFs), so the replay's spans never overlap otherwise.
  const auto& spans = log.spans();
  std::vector<std::uint64_t> child_cycles(spans.size() - first_span, 0);
  for (std::size_t k = first_span; k < spans.size(); ++k) {
    if (spans[k].parent != SpanLog::kNoParent) {
      child_cycles[spans[k].parent - first_span] += spans[k].cycles;
    }
  }
  std::uint64_t self_cycles = 0;
  for (std::size_t k = first_span; k < spans.size(); ++k) {
    const std::uint64_t children = child_cycles[k - first_span];
    self_cycles += spans[k].cycles - std::min<std::uint64_t>(
                                         spans[k].cycles, children);
  }

  const auto add = [&](std::string name, double value, const char* unit) {
    ledger.metrics.push_back({std::move(name), value, unit});
  };
  const auto p = [&](std::uint16_t layer, double q) {
    return quantile(log.durations_ns(layer), q);
  };
  const auto calls = [&](std::uint16_t layer) {
    return log.durations_ns(layer).size();
  };
  const std::uint64_t fast = calls(fastpath_layer);
  add("net.parse.ns_p50", p(parse_layer, 0.5), "ns");
  add("core.classify.calls", calls(classify_layer), "count");
  add("core.classify.ns_p50", p(classify_layer, 0.5), "ns");
  add("core.classify.ns_p99", p(classify_layer, 0.99), "ns");
  add("core.classify.initial_frac", frac(initial, calls(classify_layer)),
      "ratio");
  add("core.record.ns_p50", p(record_layer, 0.5), "ns");
  for (const char* kind : {"nat", "maglev", "monitor", "ipfilter", "snort"}) {
    // NFs absent from the workload's chain report 0.
    double value = 0.0;
    for (std::size_t k = 0; k < chain.nfs.size(); ++k) {
      if (chain.nfs[k].kind == kind) value = p(nf_layers[k], 0.5);
    }
    add(std::string{"nf."} + kind + ".record_ns_p50", value, "ns");
  }
  add("core.consolidate.calls", calls(consolidate_layer), "count");
  add("core.consolidate.ns_p50", p(consolidate_layer, 0.5), "ns");
  add("core.teardown.calls", calls(teardown_layer), "count");
  add("core.teardown.ns_p50", p(teardown_layer, 0.5), "ns");
  add("core.fastpath.calls", fast, "count");
  add("core.fastpath.ns_p50", p(fastpath_layer, 0.5), "ns");
  add("core.fastpath.ns_p99", p(fastpath_layer, 0.99), "ns");
  add("core.fastpath.sf_ns_p50", quantile(sf_ns, 0.5), "ns");
  add("core.fastpath.rule_hit_frac", frac(rule_hits, fast), "ratio");
  add("core.fastpath.drop_frac", frac(fast_drops, fast), "ratio");
  add("core.fastpath.timer_pairs_per_call", frac(timer_pairs, fast),
      "ratio");
  add("core.flow_table.bytes", static_cast<double>(table_bytes), "B");
  add("core.flow_table.max_probe", static_cast<double>(max_probe), "count");
  add("trace.coverage_frac",
      CycleClock::to_ns(self_cycles) / 1e9 / ledger.wall_s, "ratio");
  return ledger;
}

}  // namespace perfbench
