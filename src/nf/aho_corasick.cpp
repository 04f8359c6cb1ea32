#include "nf/aho_corasick.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace speedybox::nf {

namespace {

constexpr std::uint8_t fold(unsigned char byte) noexcept {
  return byte >= 'A' && byte <= 'Z' ? static_cast<std::uint8_t>(byte + 32)
                                    : byte;
}

}  // namespace

void AhoCorasick::add_pattern(std::string_view pattern, std::uint32_t id,
                              bool nocase) {
  if (pattern.empty()) return;
  built_ = false;
  const bool has_letter =
      std::any_of(pattern.begin(), pattern.end(), [](char c) {
        return fold(static_cast<unsigned char>(c)) >= 'a' &&
               fold(static_cast<unsigned char>(c)) <= 'z';
      });
  patterns_.push_back({std::string{pattern}, id, !nocase && has_letter});
  longest_ = std::max(longest_, pattern.size());
}

void AhoCorasick::build() {
  if (built_) return;
  // One class per folded byte occurring in a pattern (at most 230, so the
  // classes fit a uint8), class 0 for every other byte.
  std::array<std::uint8_t, 256> folded_class{};
  stride_ = 1;
  for (const Pattern& pattern : patterns_) {
    for (const char c : pattern.bytes) {
      std::uint8_t& cls = folded_class[fold(static_cast<unsigned char>(c))];
      if (cls == 0) cls = static_cast<std::uint8_t>(stride_++);
    }
  }
  for (std::size_t b = 0; b < 256; ++b) {
    byte_class_[b] = folded_class[fold(static_cast<unsigned char>(b))];
  }

  // Trie over classes (go[state * stride_ + class], -1 = no edge); out[s]
  // lists the patterns ending at s.
  std::vector<std::int32_t> go(stride_, -1);
  std::vector<std::vector<std::uint32_t>> out(1);
  for (std::uint32_t p = 0; p < patterns_.size(); ++p) {
    std::size_t state = 0;
    for (const char c : patterns_[p].bytes) {
      const std::size_t edge =
          state * stride_ + byte_class_[static_cast<unsigned char>(c)];
      if (go[edge] < 0) {
        go[edge] = static_cast<std::int32_t>(out.size());
        go.resize(go.size() + stride_, -1);
        out.emplace_back();
      }
      state = static_cast<std::size_t>(go[edge]);
    }
    out[state].push_back(p);
  }
  const std::size_t states = out.size();
  if (states * stride_ > UINT32_MAX) {
    throw std::length_error("AhoCorasick: transition table too large");
  }

  // BFS: fail links, outputs inherited along the fail chain, and goto
  // completion (one transition per input byte); root's missing edges loop.
  std::vector<std::size_t> fail(states, 0);
  std::vector<std::size_t> queue;
  for (std::size_t c = 0; c < stride_; ++c) {
    if (go[c] < 0) {
      go[c] = 0;
    } else {
      queue.push_back(static_cast<std::size_t>(go[c]));
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::size_t u = queue[head];
    out[u].insert(out[u].end(), out[fail[u]].begin(), out[fail[u]].end());
    for (std::size_t c = 0; c < stride_; ++c) {
      const std::int32_t via_fail = go[fail[u] * stride_ + c];
      std::int32_t& v = go[u * stride_ + c];
      if (v < 0) {
        v = via_fail;
      } else {
        fail[static_cast<std::size_t>(v)] =
            static_cast<std::size_t>(via_fail);
        queue.push_back(static_cast<std::size_t>(v));
      }
    }
  }

  // Renumber so states with outputs come last (root has none and stays 0),
  // then emit rows of pre-multiplied next-row offsets and flat outputs.
  std::vector<std::size_t> order(states);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto first_match =
      std::stable_partition(order.begin(), order.end(),
                            [&](std::size_t s) { return out[s].empty(); });
  std::vector<std::uint32_t> number(states);
  for (std::size_t n = 0; n < states; ++n) {
    number[order[n]] = static_cast<std::uint32_t>(n);
  }
  match_row_ =
      static_cast<std::uint32_t>(first_match - order.begin()) * stride_;
  delta_.resize(states * stride_);
  for (std::size_t n = 0; n < states; ++n) {
    for (std::size_t c = 0; c < stride_; ++c) {
      delta_[n * stride_ + c] =
          number[static_cast<std::size_t>(go[order[n] * stride_ + c])] *
          stride_;
    }
  }
  outputs_.clear();
  output_begin_.assign(1, 0);
  for (auto s = first_match; s != order.end(); ++s) {
    outputs_.insert(outputs_.end(), out[*s].begin(), out[*s].end());
    output_begin_.push_back(static_cast<std::uint32_t>(outputs_.size()));
  }
  built_ = true;
}

std::vector<std::uint32_t> AhoCorasick::match_ids(
    std::span<const std::uint8_t> text) const {
  std::vector<std::uint32_t> ids;
  match(text, [&ids](std::uint32_t id, std::size_t) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace speedybox::nf
