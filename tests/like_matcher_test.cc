#include "core/like_matcher.h"

#include <cctype>
#include <random>
#include <string>

#include <gtest/gtest.h>

// The process-wide allocation counter behind MatchesDoesNotAllocate lives
// in tests/alloc_counter.cc (shared with the CompiledConstraint
// un-interned-fallback regression): LikeMatcher::Matches used to lower a
// copy of the text on every call, taxing every string constraint on the
// per-event hot path.
#include "alloc_counter.h"

namespace saql {
namespace {

TEST(LikeMatcherTest, ExactMatchIsCaseInsensitive) {
  LikeMatcher m("cmd.exe");
  EXPECT_TRUE(m.is_exact());
  EXPECT_TRUE(m.Matches("cmd.exe"));
  EXPECT_TRUE(m.Matches("CMD.EXE"));
  EXPECT_FALSE(m.Matches("cmd.exe.bak"));
}

TEST(LikeMatcherTest, SuffixPattern) {
  // The paper's queries constrain executables with a leading %:
  // proc p1["%cmd.exe"].
  LikeMatcher m("%cmd.exe");
  EXPECT_TRUE(m.Matches("cmd.exe"));
  EXPECT_TRUE(m.Matches("C:\\Windows\\System32\\cmd.exe"));
  EXPECT_FALSE(m.Matches("cmd.exe.txt"));
}

TEST(LikeMatcherTest, PrefixPattern) {
  LikeMatcher m("C:\\Windows\\%");
  EXPECT_TRUE(m.Matches("C:\\Windows\\notepad.exe"));
  EXPECT_TRUE(m.Matches("c:\\windows\\"));
  EXPECT_FALSE(m.Matches("D:\\Windows\\notepad.exe"));
}

TEST(LikeMatcherTest, ContainsPattern) {
  LikeMatcher m("%temp%");
  EXPECT_TRUE(m.Matches("C:\\Users\\bob\\AppData\\Temp\\x.dll"));
  EXPECT_TRUE(m.Matches("temp"));
  EXPECT_FALSE(m.Matches("tmp"));
}

TEST(LikeMatcherTest, UnderscoreMatchesOneChar) {
  LikeMatcher m("backup_.dmp");
  EXPECT_TRUE(m.Matches("backup1.dmp"));
  EXPECT_TRUE(m.Matches("backup2.dmp"));
  EXPECT_FALSE(m.Matches("backup12.dmp"));
  EXPECT_FALSE(m.Matches("backup.dmp"));
}

TEST(LikeMatcherTest, GeneralPatternWithMiddlePercent) {
  LikeMatcher m("osql%.exe");
  EXPECT_TRUE(m.Matches("osql.exe"));
  EXPECT_TRUE(m.Matches("osql64.exe"));
  EXPECT_FALSE(m.Matches("osql.exe.bak"));
}

TEST(LikeMatcherTest, MultiplePercents) {
  LikeMatcher m("%sql%serv%");
  EXPECT_TRUE(m.Matches("sqlservr.exe"));
  EXPECT_TRUE(m.Matches("C:\\mssql\\sqlserver"));
  EXPECT_FALSE(m.Matches("mysql.exe"));
}

TEST(LikeMatcherTest, PercentAloneMatchesEverything) {
  LikeMatcher m("%");
  EXPECT_TRUE(m.Matches(""));
  EXPECT_TRUE(m.Matches("anything"));
}

TEST(LikeMatcherTest, EmptyPatternMatchesOnlyEmpty) {
  LikeMatcher m("");
  EXPECT_TRUE(m.Matches(""));
  EXPECT_FALSE(m.Matches("a"));
}

TEST(LikeMatcherTest, BacktrackingCase) {
  LikeMatcher m("%ab%ab");
  EXPECT_TRUE(m.Matches("abab"));
  EXPECT_TRUE(m.Matches("xxabyyab"));
  EXPECT_TRUE(m.Matches("ababab"));
  EXPECT_FALSE(m.Matches("abba"));
}

TEST(LikeMatcherTest, MixedCaseTextAcrossAllKinds) {
  // The in-place comparison lowers text bytes on the fly; every matcher
  // kind must stay case-insensitive on the text side.
  EXPECT_TRUE(LikeMatcher("cmd.exe").Matches("CmD.eXe"));
  EXPECT_TRUE(LikeMatcher("%cmd.exe").Matches("C:\\SYS\\CMD.EXE"));
  EXPECT_TRUE(LikeMatcher("c:\\win%").Matches("C:\\WINDOWS\\x"));
  EXPECT_TRUE(LikeMatcher("%temp%").Matches("c:\\TEMP\\y"));
  EXPECT_TRUE(LikeMatcher("osql%.exe").Matches("OSQL64.EXE"));
  EXPECT_TRUE(LikeMatcher("backup_.dmp").Matches("BACKUP1.DMP"));
}

/// Byte-wise reference: LIKE over std::tolower-folded copies, by plain
/// recursion (exponential in the worst case; fine for short inputs).
bool ReferenceLike(std::string_view p, std::string_view t) {
  if (p.empty()) return t.empty();
  if (p[0] == '%') {
    for (size_t skip = 0; skip <= t.size(); ++skip) {
      if (ReferenceLike(p.substr(1), t.substr(skip))) return true;
    }
    return false;
  }
  if (t.empty()) return false;
  const auto lower = [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  };
  return (p[0] == '_' || lower(p[0]) == lower(t[0])) &&
         ReferenceLike(p.substr(1), t.substr(1));
}

TEST(LikeMatcherTest, EveryKindMatchesBytewiseReference) {
  // A small alphabet (so random texts hit the patterns often) with both
  // cases, bytes >= 0x80 whose Latin-1 "case" must not fold, and lengths
  // past one 8-byte word so the word-wise fast paths run whole words and
  // tails.
  static const char kAlphabet[] = "aAbBzZ.\xc3\x84\xa4\xc4\xe4";
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<size_t> pick(0, sizeof(kAlphabet) - 2);
  const auto random_text = [&](size_t len) {
    std::string s(len, ' ');
    for (char& c : s) c = kAlphabet[pick(rng)];
    return s;
  };
  size_t matched = 0;
  size_t checked = 0;
  for (int round = 0; round < 3000; ++round) {
    const std::string core = random_text(1 + rng() % 12);
    std::string pattern;
    switch (round % 5) {
      case 0:
        pattern = core;  // exact
        break;
      case 1:
        pattern = "%" + core;  // suffix
        break;
      case 2:
        pattern = core + "%";  // prefix
        break;
      case 3:
        pattern = "%" + core + "%";  // contains
        break;
      default: {  // general: wildcards spliced into the core
        pattern = core;
        const size_t at = rng() % (pattern.size() + 1);
        pattern.insert(at, rng() % 2 == 0 ? "%" : "_");
        if (rng() % 2 == 0) pattern += "%_";
        break;
      }
    }
    const LikeMatcher m(pattern);
    EXPECT_EQ(m.is_exact(), round % 5 == 0);
    for (int t = 0; t < 20; ++t) {
      // Half the texts embed a case-flipped copy of the core so matches
      // are common; the rest are random.
      std::string text = random_text(rng() % 24);
      if (t % 2 == 0) {
        std::string flipped = core;
        for (char& c : flipped) {
          if (rng() % 2 == 0 && std::isalpha(static_cast<unsigned char>(c))) {
            c = static_cast<char>(c ^ 0x20);
          }
        }
        text.insert(rng() % (text.size() + 1), flipped);
      }
      const bool expected = ReferenceLike(pattern, text);
      EXPECT_EQ(m.Matches(text), expected)
          << "pattern '" << pattern << "' text '" << text << "'";
      matched += expected;
      ++checked;
    }
  }
  // Both outcomes occur often enough for the comparison to mean something.
  EXPECT_GT(matched, checked / 10);
  EXPECT_LT(matched, checked - checked / 10);
}

TEST(LikeMatcherTest, MatchesDoesNotAllocate) {
  // Regression guard for the per-call lowered copy: matching must be
  // allocation-free for every matcher kind. If this fails, something put
  // a per-match string materialization back on the hot path.
  LikeMatcher exact("cmd.exe");
  LikeMatcher suffix("%cmd.exe");
  LikeMatcher prefix("c:\\windows\\%");
  LikeMatcher contains("%temp%");
  LikeMatcher general("%c_d%.exe");
  const std::string text = "C:\\Windows\\Temp\\System32\\cmd.exe";

  size_t hits = 0;
  size_t before = testing::HeapAllocs();
  for (int i = 0; i < 1000; ++i) {
    hits += exact.Matches(text);
    hits += suffix.Matches(text);
    hits += prefix.Matches(text);
    hits += contains.Matches(text);
    hits += general.Matches(text);
  }
  size_t after = testing::HeapAllocs();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(hits, 4000u);  // all but exact match the deep path
}

}  // namespace
}  // namespace saql
