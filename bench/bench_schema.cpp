#include "bench_schema.hpp"

#include <cmath>
#include <cstdio>
#include <map>

namespace speedybox::bench {

namespace {

using telemetry::Json;

/// Walk every number in the tree; report the path of any non-finite one.
void check_finite(const Json& value, const std::string& path,
                  std::vector<std::string>* issues) {
  if (value.is_number() && !value.is_integer() &&
      !std::isfinite(value.as_number())) {
    issues->push_back(path + ": non-finite number");
  }
  if (value.is_object()) {
    for (const auto& [key, member] : value.members()) {
      check_finite(member, path + "." + key, issues);
    }
  } else if (value.is_array()) {
    for (std::size_t i = 0; i < value.elements().size(); ++i) {
      check_finite(value.elements()[i],
                   path + "[" + std::to_string(i) + "]", issues);
    }
  }
}

/// u64 field or 0 when absent; `present` reports whether it was there.
std::uint64_t u64_field(const Json& row, const char* key, bool* present) {
  const Json* value = row.find(key);
  if (value == nullptr || !value->is_integer()) {
    if (present != nullptr) *present = false;
    return 0;
  }
  if (present != nullptr) *present = true;
  return value->as_integer();
}

void check_row(const Json& row, const std::string& path,
               std::vector<std::string>* issues) {
  if (!row.is_object()) {
    issues->push_back(path + ": row is not an object");
    return;
  }
  const Json* config = row.find("config");
  if (config == nullptr || !config->is_string() ||
      config->as_string().empty()) {
    issues->push_back(path + ": missing non-empty string \"config\"");
  }
  // Conservation identities wherever the overload counters appear
  // (offered == admitted + shed; admitted >= drops + faulted-adjacent
  // splits are covered upstream — here the arrival identity is the one
  // every emitter can state exactly).
  bool has_offered = false;
  const std::uint64_t offered = u64_field(row, "offered", &has_offered);
  if (has_offered) {
    bool has_admitted = false;
    bool has_shed = false;
    const std::uint64_t admitted = u64_field(row, "admitted", &has_admitted);
    const std::uint64_t shed = u64_field(row, "shed", &has_shed);
    if (!has_admitted || !has_shed) {
      issues->push_back(path + ": \"offered\" without \"admitted\"/\"shed\"");
    } else if (offered != admitted + shed) {
      issues->push_back(path + ": conservation violated: offered (" +
                        std::to_string(offered) + ") != admitted (" +
                        std::to_string(admitted) + ") + shed (" +
                        std::to_string(shed) + ")");
    }
  }
  bool has_packets = false;
  bool has_drops = false;
  const std::uint64_t packets = u64_field(row, "packets", &has_packets);
  const std::uint64_t drops = u64_field(row, "drops", &has_drops);
  if (has_packets && has_drops) {
    const std::uint64_t faulted = u64_field(row, "faulted", nullptr);
    if (packets < drops + faulted) {
      issues->push_back(path + ": packets (" + std::to_string(packets) +
                        ") < drops (" + std::to_string(drops) +
                        ") + faulted (" + std::to_string(faulted) + ")");
    }
  }
}

}  // namespace

std::vector<std::string> validate_bench_json(const Json& doc) {
  std::vector<std::string> issues;
  if (!doc.is_object()) {
    issues.push_back("$: document is not an object");
    return issues;
  }
  const Json* bench = doc.find("bench");
  if (bench == nullptr || !bench->is_string() || bench->as_string().empty()) {
    issues.push_back("$.bench: missing non-empty string");
  }
  const Json* version = doc.find("schema_version");
  if (version == nullptr || !version->is_integer() ||
      version->as_integer() < 1) {
    issues.push_back("$.schema_version: missing integer >= 1");
  }
  const Json* cpu = doc.find("cpu_ghz");
  if (cpu == nullptr || !cpu->is_number() ||
      !(cpu->as_number() > 0.0) || !std::isfinite(cpu->as_number())) {
    issues.push_back("$.cpu_ghz: missing finite number > 0");
  }
  const Json* environment = doc.find("environment");
  if (environment == nullptr || !environment->is_object()) {
    issues.push_back("$.environment: missing object");
  }
  const Json* params = doc.find("params");
  if (params == nullptr || !params->is_object()) {
    issues.push_back("$.params: missing object");
  }
  const Json* configs = doc.find("configs");
  if (configs == nullptr || !configs->is_array() ||
      configs->elements().empty()) {
    issues.push_back("$.configs: missing non-empty array");
  } else {
    for (std::size_t i = 0; i < configs->elements().size(); ++i) {
      check_row(configs->elements()[i],
                "$.configs[" + std::to_string(i) + "]", &issues);
    }
  }
  check_finite(doc, "$", &issues);
  return issues;
}

namespace {

double tolerance_for(const Json& row, const char* key, double fallback) {
  const Json* value = row.find(key);
  return value != nullptr && value->is_number() ? value->as_number()
                                                : fallback;
}

bool row_gated(const Json& row) {
  const Json* gated = row.find("gated");
  return gated == nullptr || !gated->is_bool() || gated->as_bool();
}

bool declares_unstable_tail(const Json& row) {
  const Json* unstable = row.find("rel_p99_unstable");
  return unstable != nullptr && unstable->is_bool() && unstable->as_bool();
}

/// The (rate_key, p99_key) pair a row is gated on: prefer the
/// machine-portable relative metrics, fall back to absolutes.
const char* rate_key_for(const Json& row) {
  if (row.find("rel_rate") != nullptr) return "rel_rate";
  if (row.find("rate_mpps") != nullptr) return "rate_mpps";
  return nullptr;
}

const char* p99_key_for(const Json& row) {
  if (row.find("rel_p99") != nullptr) return "rel_p99";
  // A row that measured its own tail as too noisy to gate opts out of the
  // absolute-latency fallback as well — otherwise dropping rel_p99 would
  // silently re-gate it on an even flakier metric.
  if (declares_unstable_tail(row)) return nullptr;
  if (row.find("latency_us_p99") != nullptr) return "latency_us_p99";
  return nullptr;
}

double number_field(const Json& row, const char* key) {
  const Json* value = row.find(key);
  return value != nullptr && value->is_number() ? value->as_number() : 0.0;
}

bool has_number(const Json& row, const char* key) {
  const Json* value = row.find(key);
  return value != nullptr && value->is_number();
}

enum class Better { kHigher, kLower };

/// One gated metric of one matched row pair. Fails closed: a candidate
/// that lacks the key the baseline gates on fails, unless it is the tail
/// metric and the candidate row declares its own tail unstable — then the
/// metric is reported as ungated rather than read as zero.
GateFinding check_metric(const std::string& identity, const Json& base_row,
                         const Json& cand_row, const char* key,
                         Better better, double tolerance) {
  GateFinding finding;
  finding.row = identity;
  finding.metric = key;
  finding.baseline = number_field(base_row, key);
  finding.tolerance = tolerance;
  char buf[200];
  if (!has_number(cand_row, key)) {
    finding.ok = better == Better::kLower && declares_unstable_tail(cand_row);
    std::snprintf(buf, sizeof buf,
                  finding.ok
                      ? "UNGATED (unstable): %s %.4g -> candidate declares "
                        "rel_p99_unstable"
                      : "MISSING: %s %.4g -> candidate row lacks the key",
                  key, finding.baseline);
    finding.message = buf;
    return finding;
  }
  const double base = finding.baseline;
  const double cand = number_field(cand_row, key);
  finding.candidate = cand;
  const bool higher = better == Better::kHigher;
  finding.ok = base <= 0.0 || (higher ? cand >= base * (1.0 - tolerance)
                                      : cand <= base * (1.0 + tolerance));
  std::snprintf(buf, sizeof buf, "%s: %s %.4g -> %.4g (limit %s%.0f%%)",
                finding.ok ? "ok"
                           : (higher ? "RATE REGRESSION" : "P99 REGRESSION"),
                key, base, cand, higher ? "-" : "+", tolerance * 100.0);
  finding.message = buf;
  return finding;
}

}  // namespace

std::string row_identity(const Json& row) {
  std::string key;
  const auto append = [&](const char* field) {
    const Json* value = row.find(field);
    if (value == nullptr) return;
    if (!key.empty()) key += "|";
    key += field;
    key += "=";
    if (value->is_string()) {
      key += value->as_string();
    } else if (value->is_integer()) {
      key += std::to_string(value->as_integer());
    } else if (value->is_number()) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", value->as_number());
      key += buf;
    }
  };
  append("config");
  append("workload");
  append("chain");
  append("platform");
  append("batch_size");
  append("offered_multiplier");
  append("policy");
  return key;
}

GateReport gate_compare(const Json& baseline, const Json& candidate,
                        const GateConfig& config) {
  GateReport report;
  for (const std::string& issue : validate_bench_json(baseline)) {
    GateFinding finding;
    finding.row = "<baseline>";
    finding.metric = "schema";
    finding.ok = false;
    finding.message = issue;
    report.findings.push_back(std::move(finding));
    ++report.failures;
  }
  for (const std::string& issue : validate_bench_json(candidate)) {
    GateFinding finding;
    finding.row = "<candidate>";
    finding.metric = "schema";
    finding.ok = false;
    finding.message = issue;
    report.findings.push_back(std::move(finding));
    ++report.failures;
  }
  if (report.failures > 0) return report;

  std::map<std::string, const Json*> candidate_rows;
  for (const Json& row : candidate.find("configs")->elements()) {
    candidate_rows[row_identity(row)] = &row;
  }

  for (const Json& base_row : baseline.find("configs")->elements()) {
    if (!row_gated(base_row)) continue;
    const std::string identity = row_identity(base_row);
    const auto it = candidate_rows.find(identity);
    if (it == candidate_rows.end()) {
      ++report.rows_missing;
      if (config.require_all_rows) {
        GateFinding finding;
        finding.row = identity;
        finding.metric = "coverage";
        finding.ok = false;
        finding.message = "baseline row missing from candidate";
        report.findings.push_back(std::move(finding));
        ++report.failures;
      }
      continue;
    }
    const Json& cand_row = *it->second;
    ++report.rows_compared;

    const auto gate = [&](const char* key, Better better,
                          const char* tolerance_key, double fallback) {
      GateFinding finding =
          check_metric(identity, base_row, cand_row, key, better,
                       tolerance_for(base_row, tolerance_key, fallback));
      if (!finding.ok) ++report.failures;
      report.findings.push_back(std::move(finding));
    };
    if (const char* rate_key = rate_key_for(base_row)) {
      gate(rate_key, Better::kHigher, "tolerance_rel_rate",
           config.rate_loss_tolerance);
    }
    if (const char* p99_key = p99_key_for(base_row)) {
      gate(p99_key, Better::kLower, "tolerance_rel_p99",
           config.p99_growth_tolerance);
    }
  }
  return report;
}

}  // namespace speedybox::bench
