#include "telemetry/metrics.hpp"

namespace speedybox::telemetry {

util::LogHistogram CycleHistogram::snapshot() const {
  std::vector<std::uint64_t> counts(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].get();
  }
  const auto n = static_cast<int>(counts.size());
  const auto sum = static_cast<double>(sum_.get());
  const std::uint64_t min = min_.get();
  const std::uint64_t max = max_.get();
  // Extremes not yet published by an in-flight first record() fall back to
  // the bucket-derived ones.
  if (min > max) return util::LogHistogram::from_raw(counts.data(), n, sum);
  return util::LogHistogram::from_raw(counts.data(), n, sum,
                                      static_cast<double>(min),
                                      static_cast<double>(max));
}

ShardMetrics::ShardMetrics(std::string shard_label,
                           std::vector<std::string> nf_labels,
                           std::uint32_t span_sample_every_n,
                           std::string tenant_label)
    : label(std::move(shard_label)),
      tenant(std::move(tenant_label)),
      spans(span_sample_every_n) {
  for (auto& nf_label : nf_labels) {
    per_nf.emplace_back(std::move(nf_label));
  }
}

ShardMetrics& Registry::create_shard(std::string label,
                                     std::vector<std::string> nf_labels) {
  const std::lock_guard lock(mutex_);
  shards_.push_back(std::make_unique<ShardMetrics>(
      std::move(label), std::move(nf_labels), span_sample_every_n_,
      tenant_));
  return *shards_.back();
}

void Registry::set_tenant(std::string tenant_id) {
  const std::lock_guard lock(mutex_);
  tenant_ = std::move(tenant_id);
}

std::string Registry::tenant() const {
  const std::lock_guard lock(mutex_);
  return tenant_;
}

namespace {

ShardSnapshot snapshot_shard(const ShardMetrics& shard) {
  ShardSnapshot snap;
  snap.label = shard.label;
  snap.tenant = shard.tenant;
  snap.counters = {
      {"packets", shard.packets.get()},
      {"drops", shard.drops.get()},
      {"mat_hits", shard.mat_hits.get()},
      {"mat_misses", shard.mat_misses.get()},
      {"classifier_lookups", shard.classifier_lookups.get()},
      {"events_triggered", shard.events_triggered.get()},
      {"consolidations", shard.consolidations.get()},
      {"teardowns", shard.teardowns.get()},
      {"held_packets", shard.held_packets.get()},
      {"backpressure_yields", shard.backpressure_yields.get()},
      {"admitted", shard.admitted.get()},
      {"shed_admission", shard.shed_admission.get()},
      {"shed_watermark", shard.shed_watermark.get()},
      {"shed_early_drop", shard.shed_early_drop.get()},
      {"faulted", shard.faulted.get()},
      {"degraded_flows", shard.degraded_flows.get()},
      {"degraded_packets", shard.degraded_packets.get()},
      {"scale_events", shard.scale_events.get()},
      {"migrated_flows", shard.migrated_flows.get()},
      {"rx_bytes", shard.rx_bytes.get()},
      {"rx_frames", shard.rx_frames.get()},
      {"rx_batches", shard.rx_batches.get()},
      {"parse_errors", shard.parse_errors.get()},
      {"socket_drops", shard.socket_drops.get()},
      {"flow_table_resize_steps", shard.flow_table_resize_steps.get()},
  };
  snap.gauges = {
      {"ring_occupancy", shard.ring_occupancy.get()},
      {"ring_capacity", shard.ring_capacity.get()},
      {"active_flows", shard.active_flows.get()},
      {"ring_burst_size", shard.ring_burst_size.get()},
      {"queue_depth", shard.queue_depth.get()},
      {"active_shards", shard.active_shards.get()},
      {"flow_table_entries", shard.flow_table_entries.get()},
      {"flow_table_capacity", shard.flow_table_capacity.get()},
      {"flow_table_slab_bytes", shard.flow_table_slab_bytes.get()},
      {"flow_table_max_probe", shard.flow_table_max_probe.get()},
  };
  snap.histograms = {
      {"fastpath_cycles", shard.fastpath_cycles.snapshot()},
      {"slowpath_cycles", shard.slowpath_cycles.snapshot()},
      {"classify_cycles", shard.classify_cycles.snapshot()},
      {"consolidate_cycles", shard.consolidate_cycles.snapshot()},
      {"batch_occupancy", shard.batch_occupancy.snapshot()},
      {"degraded_episode_packets",
       shard.degraded_episode_packets.snapshot()},
      {"migration_cycles", shard.migration_cycles.snapshot()},
      {"ingest_cycles", shard.ingest_cycles.snapshot()},
  };
  snap.per_nf.reserve(shard.per_nf.size());
  for (const NfMetrics& nf : shard.per_nf) {
    snap.per_nf.push_back(
        {nf.label, nf.packets.get(), nf.cycles.snapshot()});
  }
  snap.spans = shard.spans.snapshot();
  snap.spans_sampled = shard.spans.sampled_total();
  snap.spans_dropped = shard.spans.evicted_total();
  return snap;
}

}  // namespace

MetricsSnapshot Registry::snapshot() const {
  const std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  snap.sequence = sequence_++;
  snap.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    snap.shards.push_back(snapshot_shard(*shard));
  }
  return snap;
}

ShardSnapshot MetricsSnapshot::aggregate() const {
  ShardSnapshot total;
  total.label = "all";
  for (const ShardSnapshot& shard : shards) {
    const auto merge_pairs = [](auto& into, const auto& from) {
      for (const auto& [name, value] : from) {
        bool found = false;
        for (auto& [existing, sum] : into) {
          if (existing == name) {
            sum += value;
            found = true;
            break;
          }
        }
        if (!found) into.push_back({name, value});
      }
    };
    merge_pairs(total.counters, shard.counters);
    merge_pairs(total.gauges, shard.gauges);
    for (const auto& [name, hist] : shard.histograms) {
      bool found = false;
      for (auto& [existing, merged] : total.histograms) {
        if (existing == name) {
          merged.merge(hist);
          found = true;
          break;
        }
      }
      if (!found) total.histograms.push_back({name, hist});
    }
    for (std::size_t i = 0; i < shard.per_nf.size(); ++i) {
      if (total.per_nf.size() <= i) {
        total.per_nf.push_back(shard.per_nf[i]);
      } else {
        total.per_nf[i].packets += shard.per_nf[i].packets;
        total.per_nf[i].cycles.merge(shard.per_nf[i].cycles);
      }
    }
    total.spans.insert(total.spans.end(), shard.spans.begin(),
                       shard.spans.end());
    total.spans_sampled += shard.spans_sampled;
    total.spans_dropped += shard.spans_dropped;
  }
  return total;
}

}  // namespace speedybox::telemetry
