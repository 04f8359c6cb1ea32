#include <algorithm>
#include <cstdio>

#include "perfbench.hpp"
#include "util/cycle_clock.hpp"

namespace perfbench {

static_assert(sizeof(SpanLog::Span) == 24);

using speedybox::util::CycleClock;

std::uint16_t SpanLog::layer(const std::string& name) {
  const auto it = std::find(layers_.begin(), layers_.end(), name);
  if (it != layers_.end()) {
    return static_cast<std::uint16_t>(it - layers_.begin());
  }
  layers_.push_back(name);
  return static_cast<std::uint16_t>(layers_.size() - 1);
}

std::vector<double> SpanLog::durations_ns(std::uint16_t layer) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.layer == layer) out.push_back(CycleClock::to_ns(s.cycles));
  }
  return out;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  std::fwrite("PBSPANS1", 1, 8, file);
  const double hz = CycleClock::frequency_hz();
  std::fwrite(&hz, sizeof hz, 1, file);
  const auto layers = static_cast<std::uint32_t>(layers_.size());
  std::fwrite(&layers, sizeof layers, 1, file);
  for (const std::string& name : layers_) {
    const auto len = static_cast<std::uint32_t>(name.size());
    std::fwrite(&len, sizeof len, 1, file);
    std::fwrite(name.data(), 1, len, file);
  }
  const std::uint64_t count = spans_.size();
  std::fwrite(&count, sizeof count, 1, file);
  std::fwrite(spans_.data(), sizeof(Span), spans_.size(), file);
  return std::fclose(file) == 0;
}

}  // namespace perfbench
