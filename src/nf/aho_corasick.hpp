// Aho–Corasick multi-pattern matcher: the payload-inspection engine behind
// our Snort-like IDS. Matches all occurrences of every pattern in a single
// pass over the payload — the same algorithmic family Snort's detection
// engine uses for content rules.
//
// Case-sensitive and nocase patterns share one automaton over ASCII-folded
// bytes, as in Snort's ACSM; hits on case-sensitive patterns are confirmed
// against the raw text. Table layout and the striped scan: DESIGN.md,
// `nf/`.
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

  /// Invoke on_match(pattern_id, end_offset) for every occurrence. End
  /// offsets are absolute in `text`; the order of the calls is unspecified
  /// (the stripes of a long text report interleaved).
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

  static constexpr std::size_t kStripes = 4;

  /// How a query splits a text of `size` bytes (see scan()): each of the
  /// kStripes stripes walks `steps` bytes, stripe k from k * spacing, and
  /// the last one runs on to the end. Stripe k >= 1 owns the end offsets
  /// past k * spacing + (steps - spacing). steps == 0: one stripe.
  struct StripeLayout {
    std::size_t steps = 0;
    std::size_t spacing = 0;
  };
  StripeLayout stripe_layout(std::size_t size) const noexcept {
    const std::size_t warmup = longest_ > 0 ? longest_ - 1 : 0;
    if (size < kStripes * (warmup + kMinStripe)) return {};
    const std::size_t steps = (size + (kStripes - 1) * warmup) / kStripes;
    return {steps, steps - warmup};
  }

 private:
  struct Pattern {
    std::string bytes;
    std::uint32_t id;
    /// Case-sensitive with an ASCII letter: a folded hit needs a raw check.
    bool confirm;
  };

  /// Walk the text, calling hit(id, end) per occurrence until it returns
  /// true; returns whether it did. A text of at least kStripes * (L - 1 +
  /// kMinStripe) bytes, L the longest pattern, is cut into kStripes stripes
  /// of `steps` bytes whose starts lie `steps - (L - 1)` apart, advanced in
  /// lockstep so their dependent table loads overlap. Stripe k >= 1 starts
  /// at the root L - 1 bytes before its own region and reports nothing
  /// there: no state is deeper than L, so after its first own byte it is in
  /// the serial scan's state. The last stripe runs on over the remainder; a
  /// shorter text is that last stripe alone.
  template <typename Hit>
  bool scan(std::span<const std::uint8_t> text, Hit&& hit) const {
    const std::uint32_t* delta = delta_.data();
    const std::uint8_t* byte_class = byte_class_.data();
    const std::uint32_t match_row = match_row_;
    const std::uint8_t* const data = text.data();
    const auto [steps, spacing] = stripe_layout(text.size());
    const std::size_t warmup = steps - spacing;
    const std::uint8_t* const p1 = data + spacing;
    const std::uint8_t* const p2 = data + 2 * spacing;
    const std::uint8_t* const p3 = data + 3 * spacing;
    std::size_t r0 = 0;
    std::size_t r1 = 0;
    std::size_t r2 = 0;
    std::size_t r3 = 0;
    for (std::size_t j = 0; j < steps; ++j) {
      // Advance until some stripe enters a match row. No call inside, so
      // the four rows stay in registers.
      for (; j < steps; ++j) {
        r0 = delta[r0 + byte_class[data[j]]];
        r1 = delta[r1 + byte_class[p1[j]]];
        r2 = delta[r2 + byte_class[p2[j]]];
        r3 = delta[r3 + byte_class[p3[j]]];
        if (r0 >= match_row || r1 >= match_row || r2 >= match_row ||
            r3 >= match_row) [[unlikely]] {
          break;
        }
      }
      if (j == steps) break;
      if (r0 >= match_row && report(r0, text, j + 1, hit)) return true;
      if (j < warmup) continue;
      if (r1 >= match_row && report(r1, text, spacing + j + 1, hit)) {
        return true;
      }
      if (r2 >= match_row && report(r2, text, 2 * spacing + j + 1, hit)) {
        return true;
      }
      if (r3 >= match_row && report(r3, text, 3 * spacing + j + 1, hit)) {
        return true;
      }
    }
    for (std::size_t i = 3 * spacing + steps; i < text.size(); ++i) {
      r3 = delta[r3 + byte_class[data[i]]];
      if (r3 >= match_row && report(r3, text, i + 1, hit)) return true;
    }
    return false;
  }

  /// Report the outputs of match row `row` reached by the byte before
  /// `end`, confirming case-sensitive hits against the raw text.
  template <typename Hit>
  bool report(std::size_t row, std::span<const std::uint8_t> text,
              std::size_t end, Hit& hit) const {
    const std::size_t state = (row - match_row_) / stride_;
    for (std::uint32_t k = output_begin_[state]; k < output_begin_[state + 1];
         ++k) {
      const Pattern& pattern = patterns_[outputs_[k]];
      const std::size_t size = pattern.bytes.size();
      if (pattern.confirm &&
          std::memcmp(text.data() + end - size, pattern.bytes.data(), size) !=
              0) {
        continue;
      }
      if (hit(pattern.id, end)) return true;
    }
    return false;
  }

  static_assert(kStripes == 4, "scan() keeps one row register per stripe");
  /// Fewest own bytes per stripe worth the split.
  static constexpr std::size_t kMinStripe = 32;

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
  /// Length of the longest pattern: the deepest state, so the warm-up.
  std::size_t longest_ = 0;
  bool built_ = false;
};

}  // namespace speedybox::nf
