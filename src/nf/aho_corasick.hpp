// Aho–Corasick multi-pattern matcher: the payload-inspection engine behind
// our Snort-like IDS. Matches all occurrences of every pattern in a single
// pass over the payload — the same algorithmic family Snort's detection
// engine uses for content rules.
//
// Case-sensitive and nocase patterns share one automaton over ASCII-folded
// bytes, as in Snort's ACSM; hits on case-sensitive patterns are confirmed
// against the raw text. Table layout: DESIGN.md, `nf/`.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace speedybox::nf {

class AhoCorasick {
 public:
  /// Register a pattern with a caller-chosen id; `nocase` makes it match
  /// any ASCII capitalization. Must be called before build(); empty
  /// patterns are ignored.
  void add_pattern(std::string_view pattern, std::uint32_t id,
                   bool nocase = false);

  /// Construct the transition table. Idempotent. Must be called after the
  /// last add_pattern() and before any match query.
  void build();

  /// Invoke on_match(pattern_id, end_offset) for every occurrence.
  template <typename OnMatch>
  void match(std::span<const std::uint8_t> text, OnMatch&& on_match) const {
    scan(text, [&](std::uint32_t id, std::size_t end) {
      on_match(id, end);
      return false;
    });
  }

  /// Convenience: ids of all patterns occurring at least once, ascending,
  /// deduplicated.
  std::vector<std::uint32_t> match_ids(
      std::span<const std::uint8_t> text) const;

  bool contains_any(std::span<const std::uint8_t> text) const {
    return scan(text, [](std::uint32_t, std::size_t) { return true; });
  }

  std::size_t pattern_count() const noexcept { return patterns_.size(); }

 private:
  struct Pattern {
    std::string bytes;
    std::uint32_t id;
    /// Case-sensitive with an ASCII letter: a folded hit needs a raw check.
    bool confirm;
  };

  /// Walk the text, calling hit(id, end) per occurrence until it returns
  /// true; returns whether it did.
  template <typename Hit>
  bool scan(std::span<const std::uint8_t> text, Hit&& hit) const {
    const std::uint32_t* delta = delta_.data();
    const std::uint8_t* byte_class = byte_class_.data();
    const std::uint32_t match_row = match_row_;
    std::uint32_t row = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
      row = delta[row + byte_class[text[i]]];
      if (row < match_row) [[likely]] continue;
      const std::size_t state = (row - match_row) / stride_;
      for (std::uint32_t k = output_begin_[state];
           k < output_begin_[state + 1]; ++k) {
        const Pattern& pattern = patterns_[outputs_[k]];
        const std::size_t size = pattern.bytes.size();
        if (pattern.confirm &&
            std::memcmp(text.data() + i + 1 - size, pattern.bytes.data(),
                        size) != 0) {
          continue;
        }
        if (hit(pattern.id, i + 1)) return true;
      }
    }
    return false;
  }

  std::vector<Pattern> patterns_;
  std::array<std::uint8_t, 256> byte_class_{};
  /// Number of byte classes: the width of one transition-table row.
  std::uint32_t stride_ = 1;
  /// [state][class] -> next state * stride_. Until build() it is the lone
  /// root row, so an unbuilt matcher matches nothing.
  std::vector<std::uint32_t> delta_{0};
  /// Row offset of the first state with outputs.
  std::uint32_t match_row_ = UINT32_MAX;
  /// Match state k's outputs are outputs_[output_begin_[k] ..
  /// output_begin_[k + 1]), as indices into patterns_.
  std::vector<std::uint32_t> output_begin_;
  std::vector<std::uint32_t> outputs_;
  bool built_ = false;
};

}  // namespace speedybox::nf
