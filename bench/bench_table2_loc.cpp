// Table II: additional lines of code to integrate each NF into SpeedyBox.
//
// Static analysis over this repository's NF sources: the "added LOC" are
// the lines that exist only for SpeedyBox integration — the `ctx != nullptr`
// recording blocks using the Figure-2 APIs (add_header_action,
// localmat_add_SF, register_event, on_teardown). Everything else is the
// NF's core functionality.
//
// Expected shape (paper): integration is a handful of lines per NF, a small
// percentage of each NF's core LOC (Snort: 27 lines, +2.4%).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "telemetry/json.hpp"

namespace {

struct Loc {
  int core = 0;
  int added = 0;
};

bool is_code_line(const std::string& line) {
  const std::size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) return false;  // blank
  if (line.compare(first, 2, "//") == 0) return false;  // comment line
  if (line.compare(first, 2, "/*") == 0) {
    // `/*one_shot=*/true);` is code after an inline comment.
    const std::size_t close = line.find("*/", first + 2);
    return close != std::string::npos &&
           line.find_first_not_of(" \t\r", close + 2) != std::string::npos;
  }
  return true;
}

/// Net `open` brackets a line leaves open (`open` minus `close`).
int net_open(const std::string& line, char open, char close) {
  int depth = 0;
  for (const char c : line) {
    if (c == open) ++depth;
    if (c == close) --depth;
  }
  return depth;
}

/// Counts recording-block lines: the `if (ctx != nullptr) {...}` regions
/// plus API calls, each with the lines it spans (a recorded handler's
/// lambda body included). A brace-less `if (ctx != nullptr) stmt;` is one
/// line.
Loc count_file(const std::string& path) {
  Loc loc;
  std::ifstream file{path};
  if (!file) return loc;
  std::string line;
  int block_depth = 0;  // inside an `if (ctx != nullptr)` block
  int call_depth = 0;   // inside a multi-line API call's parentheses
  while (std::getline(file, line)) {
    if (!is_code_line(line)) continue;
    if (block_depth > 0) {
      ++loc.added;
      block_depth = std::max(block_depth + net_open(line, '{', '}'), 0);
      continue;
    }
    if (call_depth > 0) {
      ++loc.added;
      call_depth = std::max(call_depth + net_open(line, '(', ')'), 0);
      continue;
    }
    const bool api_line =
        line.find("ctx->") != std::string::npos ||
        line.find("ctx.") != std::string::npos ||
        line.find("localmat_add_") != std::string::npos ||
        line.find("register_event") != std::string::npos ||
        line.find("SpeedyBoxContext") != std::string::npos;
    if (line.find("ctx != nullptr") != std::string::npos) {
      ++loc.added;
      block_depth = std::max(net_open(line, '{', '}'), 0);
      continue;
    }
    if (api_line) {
      ++loc.added;
      call_depth = std::max(net_open(line, '(', ')'), 0);
      continue;
    }
    ++loc.core;
  }
  return loc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string src_dir = SPEEDYBOX_NF_SOURCE_DIR;
  if (argc > 1) src_dir = argv[1];

  struct Entry {
    const char* name;
    std::vector<const char*> files;
  };
  const std::vector<Entry> entries{
      {"Snort", {"snort_ids.cpp", "snort_rule.cpp", "aho_corasick.cpp"}},
      {"Maglev", {"maglev_lb.cpp", "maglev_hash.cpp"}},
      {"IPFilter", {"ip_filter.cpp"}},
      {"Monitor", {"monitor.cpp"}},
      {"MazuNAT", {"mazu_nat.cpp"}},
      {"DoSPrevention", {"dos_prevention.cpp"}},
      {"Gateway", {"gateway.cpp"}},
      {"VPN", {"vpn_gateway.cpp"}},
  };

  std::printf("\n================================================================\n");
  std::printf("Table II: NF core LOC vs LOC added for SpeedyBox integration\n");
  std::printf("(counted from this repository's sources under %s)\n",
              src_dir.c_str());
  std::printf("================================================================\n");
  std::printf("%-15s %18s %12s %10s\n", "Network Function", "Core LOC",
              "Added LOC", "overhead");
  using speedybox::telemetry::Json;
  Json root = Json::object();
  root.set("bench", Json::string("table2_loc"));
  Json rows = Json::array();
  for (const Entry& entry : entries) {
    Loc total;
    for (const char* file : entry.files) {
      const Loc loc = count_file(src_dir + "/" + file);
      total.core += loc.core;
      total.added += loc.added;
    }
    const double overhead_pct =
        total.core > 0
            ? 100.0 * total.added / static_cast<double>(total.core)
            : 0.0;
    Json row = Json::object();
    row.set("nf", Json::string(entry.name));
    row.set("core_loc", Json::integer(static_cast<std::uint64_t>(total.core)));
    row.set("added_loc",
            Json::integer(static_cast<std::uint64_t>(total.added)));
    row.set("overhead_pct", Json::number(overhead_pct));
    rows.push(std::move(row));
    std::printf("%-15s %18d %12d %9.1f%%\n", entry.name, total.core,
                total.added, overhead_pct);
  }
  root.set("configs", std::move(rows));
  const std::string text = root.dump();
  if (std::FILE* file = std::fopen("BENCH_table2_loc.json", "w")) {
    std::fwrite(text.data(), 1, text.size(), file);
    std::fputc('\n', file);
    std::fclose(file);
    std::fprintf(stderr, "wrote BENCH_table2_loc.json\n");
  }
  std::printf("\n");
  return 0;
}
