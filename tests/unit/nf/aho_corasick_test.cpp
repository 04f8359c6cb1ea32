#include "nf/aho_corasick.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace speedybox::nf {
namespace {

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(AhoCorasick, FindsSinglePattern) {
  AhoCorasick ac;
  ac.add_pattern("needle", 1);
  ac.build();
  const std::string hay = "hay needle stack";
  EXPECT_EQ(ac.match_ids(as_bytes(hay)), (std::vector<std::uint32_t>{1}));
}

TEST(AhoCorasick, NoFalsePositive) {
  AhoCorasick ac;
  ac.add_pattern("needle", 1);
  ac.build();
  const std::string hay = "haystack without it; need le";
  EXPECT_TRUE(ac.match_ids(as_bytes(hay)).empty());
  EXPECT_FALSE(ac.contains_any(as_bytes(hay)));
}

TEST(AhoCorasick, OverlappingPatterns) {
  AhoCorasick ac;
  ac.add_pattern("he", 1);
  ac.add_pattern("she", 2);
  ac.add_pattern("hers", 3);
  ac.build();
  const std::string hay = "ushers";
  const auto ids = ac.match_ids(as_bytes(hay));
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(AhoCorasick, ReportsEndOffsets) {
  AhoCorasick ac;
  ac.add_pattern("ab", 1);
  ac.build();
  const std::string hay = "abab";
  std::vector<std::size_t> ends;
  ac.match(as_bytes(hay),
           [&](std::uint32_t, std::size_t end) { ends.push_back(end); });
  EXPECT_EQ(ends, (std::vector<std::size_t>{2, 4}));
}

TEST(AhoCorasick, PatternAtStartAndEnd) {
  AhoCorasick ac;
  ac.add_pattern("start", 1);
  ac.add_pattern("end", 2);
  ac.build();
  const std::string hay = "start middle end";
  EXPECT_EQ(ac.match_ids(as_bytes(hay)),
            (std::vector<std::uint32_t>{1, 2}));
}

TEST(AhoCorasick, BinaryPatterns) {
  AhoCorasick ac;
  const std::string pattern{"\x00\xFF\x7F", 3};
  ac.add_pattern(pattern, 9);
  ac.build();
  std::string hay = "xx";
  hay += pattern;
  hay += "yy";
  EXPECT_EQ(ac.match_ids(as_bytes(hay)), (std::vector<std::uint32_t>{9}));
}

TEST(AhoCorasick, EmptyTextNoMatches) {
  AhoCorasick ac;
  ac.add_pattern("x", 1);
  ac.build();
  EXPECT_TRUE(ac.match_ids({}).empty());
}

TEST(AhoCorasick, EmptyPatternIgnored) {
  AhoCorasick ac;
  ac.add_pattern("", 1);
  ac.add_pattern("ok", 2);
  ac.build();
  EXPECT_EQ(ac.pattern_count(), 1u);
  EXPECT_EQ(ac.match_ids(as_bytes(std::string{"ok"})),
            (std::vector<std::uint32_t>{2}));
}

TEST(AhoCorasick, DuplicatePatternBothIdsFire) {
  AhoCorasick ac;
  ac.add_pattern("dup", 1);
  ac.add_pattern("dup", 2);
  ac.build();
  EXPECT_EQ(ac.match_ids(as_bytes(std::string{"a dup b"})),
            (std::vector<std::uint32_t>{1, 2}));
}

/// Differential test against a naive multi-pattern scan.
class AhoCorasickProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AhoCorasickProperty, MatchesNaiveSearch) {
  util::Rng rng{GetParam()};
  for (int trial = 0; trial < 50; ++trial) {
    // Small alphabet to force overlaps.
    const auto random_string = [&rng](std::size_t max_len) {
      std::string s(1 + rng.below(max_len), 'a');
      for (auto& c : s) c = static_cast<char>('a' + rng.below(3));
      return s;
    };

    AhoCorasick ac;
    std::vector<std::string> patterns;
    for (std::uint32_t i = 0; i < 6; ++i) {
      patterns.push_back(random_string(5));
      ac.add_pattern(patterns.back(), i);
    }
    ac.build();
    const std::string text = random_string(200);

    std::map<std::uint32_t, int> naive;
    for (std::uint32_t i = 0; i < patterns.size(); ++i) {
      for (std::size_t pos = 0;
           (pos = text.find(patterns[i], pos)) != std::string::npos; ++pos) {
        ++naive[i];
      }
    }
    std::map<std::uint32_t, int> actual;
    ac.match(as_bytes(text),
             [&](std::uint32_t id, std::size_t) { ++actual[id]; });
    ASSERT_EQ(actual, naive) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AhoCorasickProperty,
                         ::testing::Values(3, 14, 159, 2653));

/// Differential test of mixed-case pattern sets: every pattern carries its
/// own nocase flag, and the oracle folds ASCII A–Z only for nocase ones.
class AhoCorasickCaseProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

char ascii_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool occurs_at(const std::string& text, std::size_t pos,
               const std::string& pattern, bool nocase) {
  for (std::size_t k = 0; k < pattern.size(); ++k) {
    const char t = text[pos + k];
    const char p = pattern[k];
    if (nocase ? ascii_lower(t) != ascii_lower(p) : t != p) return false;
  }
  return true;
}

TEST_P(AhoCorasickCaseProperty, MatchesFoldingOracle) {
  util::Rng rng{GetParam()};
  // Letters in both cases, the bytes just outside A–Z and a–z ('@' '['
  // '\\' '`' '{', where '@'/'`' and '['/'{' differ by 0x20 like 'A'/'a'),
  // NUL, and 0xC1/0xE1, which also differ by 0x20 but must never fold.
  const std::string narrow{"abAB@[\\`{\x00\xC1\xE1", 12};
  const auto random_byte = [&]() {
    if (rng.chance(0.75)) return narrow[rng.below(narrow.size())];
    const auto letter = static_cast<char>('a' + rng.below(26));
    return rng.chance(0.5) ? static_cast<char>(letter - 'a' + 'A') : letter;
  };
  const auto random_string = [&](std::size_t min_len, std::size_t max_len) {
    std::string s(min_len + rng.below(max_len - min_len + 1), 'a');
    for (char& c : s) c = random_byte();
    return s;
  };

  for (int trial = 0; trial < 100; ++trial) {
    struct Entry {
      std::string bytes;
      bool nocase;
    };
    std::vector<Entry> patterns;
    const std::size_t count = 2 + rng.below(10);
    while (patterns.size() < count) {
      const std::size_t pick = rng.below(5);
      if (patterns.empty() || pick == 0) {
        patterns.push_back({random_string(1, 4), rng.chance(0.5)});
        continue;
      }
      Entry derived = patterns[rng.below(patterns.size())];
      if (pick == 1) {
        // Same letters, flipped case: differs only by case.
        for (char& c : derived.bytes) {
          if (c >= 'a' && c <= 'z') {
            c = static_cast<char>(c - 'a' + 'A');
          } else if (c >= 'A' && c <= 'Z') {
            c = static_cast<char>(c - 'A' + 'a');
          }
        }
        derived.nocase = rng.chance(0.5);
      } else if (pick == 2) {
        derived.nocase = rng.chance(0.5);  // duplicate bytes
      } else if (pick == 3) {
        derived.bytes.resize(1 + rng.below(derived.bytes.size()));  // prefix
      } else {
        derived.bytes.erase(0, rng.below(derived.bytes.size()));  // suffix
      }
      patterns.push_back(derived);
    }

    AhoCorasick ac;
    for (std::uint32_t id = 0; id < patterns.size(); ++id) {
      ac.add_pattern(patterns[id].bytes, id, patterns[id].nocase);
    }
    ac.build();
    const std::string text = random_string(0, 300);

    std::multiset<std::pair<std::uint32_t, std::size_t>> expected;
    for (std::uint32_t id = 0; id < patterns.size(); ++id) {
      const Entry& pattern = patterns[id];
      for (std::size_t pos = 0; pos + pattern.bytes.size() <= text.size();
           ++pos) {
        if (occurs_at(text, pos, pattern.bytes, pattern.nocase)) {
          expected.emplace(id, pos + pattern.bytes.size());
        }
      }
    }
    std::multiset<std::pair<std::uint32_t, std::size_t>> actual;
    ac.match(as_bytes(text), [&](std::uint32_t id, std::size_t end) {
      actual.emplace(id, end);
    });
    ASSERT_EQ(actual, expected) << "trial " << trial;

    std::vector<std::uint32_t> ids;
    for (const auto& hit : expected) ids.push_back(hit.first);
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    EXPECT_EQ(ac.match_ids(as_bytes(text)), ids) << "trial " << trial;
    EXPECT_EQ(ac.contains_any(as_bytes(text)), !expected.empty())
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AhoCorasickCaseProperty,
                         ::testing::Values(5, 27, 182, 8459, 90210));

/// Differential test of the striped scan: texts of 0-4 KiB on both sides of
/// the one-stripe threshold, mixed-case patterns up to 24 B, and hits
/// planted across every stripe boundary and in the tail, where a short
/// warm-up misses a hit and an overlapping report duplicates one.
class AhoCorasickStripeProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AhoCorasickStripeProperty, MatchesFoldingOracleAcrossStripes) {
  util::Rng rng{GetParam()};
  // Patterns over a narrow alphabet overlap each other and themselves;
  // lowercase filler keeps most of the text free of hits.
  const std::string narrow{"abAB@[`{\x00\xC1\xE1", 11};
  const auto flip_case = [&rng](char c) {
    if (!rng.chance(0.5)) return c;
    if (c >= 'a' && c <= 'z') return static_cast<char>(c - 'a' + 'A');
    if (c >= 'A' && c <= 'Z') return static_cast<char>(c - 'A' + 'a');
    return c;
  };

  for (int trial = 0; trial < 60; ++trial) {
    struct Entry {
      std::string bytes;
      bool nocase;
    };
    std::vector<Entry> patterns;
    const std::size_t longest = 1 + rng.below(24);
    const std::size_t count = 1 + rng.below(8);
    for (std::size_t p = 0; p < count; ++p) {
      // The first pattern has the longest length, so the warm-up spans it.
      std::string bytes(p == 0 ? longest : 1 + rng.below(longest), 'a');
      for (char& c : bytes) c = narrow[rng.below(narrow.size())];
      patterns.push_back({std::move(bytes), rng.chance(0.5)});
    }
    AhoCorasick ac;
    for (std::uint32_t id = 0; id < patterns.size(); ++id) {
      ac.add_pattern(patterns[id].bytes, id, patterns[id].nocase);
    }
    ac.build();

    const std::size_t threshold =
        AhoCorasick::kStripes * (longest - 1 + 32);
    std::size_t size = rng.below(4097);
    if (rng.chance(0.3)) size = threshold - 1 + rng.below(3);
    std::string text(size, 'a');
    for (char& c : text) c = static_cast<char>('c' + rng.below(24));
    const auto plant = [&](std::size_t end) {
      const Entry& pattern =
          rng.chance(0.5) ? patterns[0] : patterns[rng.below(count)];
      const std::size_t len = pattern.bytes.size();
      if (end < len || end > text.size()) return;
      for (std::size_t k = 0; k < len; ++k) {
        const char c = pattern.bytes[k];
        text[end - len + k] = pattern.nocase ? flip_case(c) : c;
      }
    };

    // First own end offset of each stripe after the first, then the tail.
    const auto [steps, spacing] = ac.stripe_layout(text.size());
    std::vector<std::size_t> bounds;
    if (steps > 0) {
      for (std::size_t k = 1; k < AhoCorasick::kStripes; ++k) {
        bounds.push_back(k * spacing + (steps - spacing) + 1);
      }
      bounds.push_back(3 * spacing + steps + 1);
    }
    if (rng.chance(0.9)) {
      for (const std::size_t bound : bounds) {
        for (int n = 0; n < 3; ++n) plant(bound - 2 + rng.below(longest + 3));
      }
      plant(text.size() - rng.below(std::min<std::size_t>(text.size(), 8) + 1));
    }

    std::multiset<std::pair<std::uint32_t, std::size_t>> expected;
    for (std::uint32_t id = 0; id < patterns.size(); ++id) {
      const Entry& pattern = patterns[id];
      for (std::size_t pos = 0; pos + pattern.bytes.size() <= text.size();
           ++pos) {
        if (occurs_at(text, pos, pattern.bytes, pattern.nocase)) {
          expected.emplace(id, pos + pattern.bytes.size());
        }
      }
    }
    std::multiset<std::pair<std::uint32_t, std::size_t>> actual;
    ac.match(as_bytes(text), [&](std::uint32_t id, std::size_t end) {
      actual.emplace(id, end);
    });
    ASSERT_EQ(actual, expected)
        << "trial " << trial << ", " << text.size() << " bytes, longest "
        << longest << ", steps " << steps << ", spacing " << spacing;

    std::vector<std::uint32_t> ids;
    for (const auto& hit : expected) ids.push_back(hit.first);
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    EXPECT_EQ(ac.match_ids(as_bytes(text)), ids) << "trial " << trial;
    EXPECT_EQ(ac.contains_any(as_bytes(text)), !expected.empty())
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AhoCorasickStripeProperty,
                         ::testing::Values(7, 61, 433, 2718, 31337));

TEST(AhoCorasick, LongTextSplitsIntoStripes) {
  AhoCorasick ac;
  ac.add_pattern("needle", 1);
  ac.build();
  // Below 4 * (5 + 32) bytes a text is one stripe; from there on four.
  EXPECT_EQ(ac.stripe_layout(147).steps, 0u);
  const auto layout = ac.stripe_layout(148);
  EXPECT_EQ(layout.steps, (148 + 3 * 5) / 4);
  EXPECT_EQ(layout.spacing, layout.steps - 5);
}

}  // namespace
}  // namespace speedybox::nf
