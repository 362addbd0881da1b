// Interner lifecycle: size accounting for high-cardinality fields and the
// rotation hook for long-running deployments. Also the differential suite
// for the ASCII fold kernel (core/ascii_fold.h) the interner hashes and
// compares through, against the byte-wise std::tolower oracle.

#include "core/interner.h"

#include <cctype>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "core/ascii_fold.h"
#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

/// The fold the kernel must reproduce: std::tolower byte by byte, in the
/// "C" locale the engine runs under.
char OracleLower(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

std::string OracleLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = OracleLower(c);
  return out;
}

/// Random bytes biased toward letters of both cases, with the edges of the
/// A-Z / a-z ranges and bytes >= 0x80 mixed in.
std::string RandomSpelling(std::mt19937_64& rng, size_t len) {
  static const char kAlphabet[] =
      "aAbBzZyY@[`{09./\\_-\x80\xc3\x84\xa4\xc1\xe1\xff\xda\xfa";
  std::uniform_int_distribution<size_t> pick(0, sizeof(kAlphabet) - 2);
  std::uniform_int_distribution<int> any(0, 255);
  std::string s(len, '\0');
  for (char& c : s) {
    c = rng() % 4 == 0 ? static_cast<char>(any(rng)) : kAlphabet[pick(rng)];
  }
  return s;
}

/// A copy of `s` placed at `offset` in a heap buffer that ends exactly at
/// the string's last byte, so any load past it is out of bounds (and
/// reported under AddressSanitizer).
struct TightCopy {
  TightCopy(const std::string& s, size_t offset)
      : buf(new char[offset + s.size()]) {
    std::memcpy(buf.get() + offset, s.data(), s.size());
    view = std::string_view(buf.get() + offset, s.size());
  }
  std::unique_ptr<char[]> buf;
  std::string_view view;
};

TEST(InternerFoldTest, AsciiLowerAndFoldWordMatchOracleOnAllBytes) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    EXPECT_EQ(AsciiLower(c), OracleLower(c)) << "byte " << b;
    // Every lane of the word, with different neighbours on each side.
    for (int lane = 0; lane < 8; ++lane) {
      char bytes[8];
      for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(b + 37 * i);
      bytes[lane] = c;
      uint64_t w = 0;
      std::memcpy(&w, bytes, 8);
      const uint64_t folded = FoldWord(w);
      char out[8];
      std::memcpy(out, &folded, 8);
      for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(out[i], OracleLower(bytes[i]))
            << "byte " << static_cast<int>(static_cast<unsigned char>(bytes[i]))
            << " lane " << i;
      }
    }
  }
  // Bytes >= 0x80 are never folded, not even the Latin-1 capitals.
  for (int b = 0x80; b < 256; ++b) {
    EXPECT_EQ(AsciiLower(static_cast<char>(b)), static_cast<char>(b));
  }
}

TEST(InternerFoldTest, HashAndEqualityMatchOracleAtEveryTailAndOffset) {
  std::mt19937_64 rng(20240611);
  for (size_t len = 0; len <= 40; ++len) {
    for (size_t offset = 0; offset < 8; ++offset) {
      for (int rep = 0; rep < 8; ++rep) {
        const std::string s = RandomSpelling(rng, len);
        const std::string lowered = OracleLower(s);
        const TightCopy text(s, offset);
        const TightCopy low(lowered, offset);
        SCOPED_TRACE("len " + std::to_string(len) + " offset " +
                     std::to_string(offset));

        EXPECT_EQ(FoldedHash(text.view), FoldedHash(lowered));
        EXPECT_TRUE(EqualsFolded(low.view, text.view));
        EXPECT_TRUE(EqualsIgnoreCase(text.view, low.view));
        EXPECT_TRUE(EqualsIgnoreCase(low.view, text.view));

        // Change one byte so the folded spellings differ: every position
        // must be compared, including the tail lanes.
        if (len == 0) continue;
        std::string other = s;
        const size_t pos = rng() % len;
        other[pos] = static_cast<char>(OracleLower(other[pos]) == 'q' ? 'r'
                                                                      : 'Q');
        ASSERT_NE(OracleLower(other), lowered);
        const TightCopy diff(other, offset);
        EXPECT_FALSE(EqualsFolded(low.view, diff.view)) << "pos " << pos;
        EXPECT_FALSE(EqualsIgnoreCase(text.view, diff.view)) << "pos " << pos;
        // Not a guarantee for any one pair, but 64-bit hashes of random
        // spellings never collide in practice.
        EXPECT_NE(FoldedHash(diff.view), FoldedHash(lowered)) << "pos " << pos;
      }
    }
  }
  // Lengths differ: never equal, even when one is a prefix of the other.
  EXPECT_FALSE(EqualsFolded("cmd.exe", "CMD.EX"));
  EXPECT_FALSE(EqualsIgnoreCase("cmd.exe", "CMD.EXE "));
  EXPECT_NE(FoldedHash(""), FoldedHash(std::string(1, '\0')));
}

TEST(InternerTest, MixedCaseSpellingsShareOneId) {
  Interner interner;
  const uint32_t id = interner.Intern("C:\\Windows\\System32\\CMD.EXE");
  EXPECT_EQ(interner.Intern("c:\\windows\\system32\\cmd.exe"), id);
  EXPECT_EQ(interner.Intern("C:\\WINDOWS\\SYSTEM32\\Cmd.Exe"), id);
  EXPECT_EQ(interner.Find("c:\\Windows\\SYSTEM32\\cmd.EXE"), id);
  EXPECT_EQ(interner.NameOf(id), "c:\\windows\\system32\\cmd.exe");
  EXPECT_EQ(interner.Find("C:\\Windows\\System32\\cmd.ex"), Interner::kUnset);
  EXPECT_EQ(interner.stats().entries, 1u);

  // Random spellings: one id per oracle-lowered spelling, found in any
  // case.
  std::mt19937_64 rng(7);
  for (int i = 0; i < 500; ++i) {
    const std::string s = RandomSpelling(rng, rng() % 33);
    const uint32_t sid = interner.Intern(s);
    EXPECT_EQ(interner.Find(OracleLower(s)), sid);
    EXPECT_EQ(interner.NameOf(sid), OracleLower(s));
  }
}

TEST(InternerTest, BytesAboveAsciiAreNeverFolded) {
  Interner interner;
  // UTF-8 "Ä" (C3 84) and "ä" (C3 A4), Latin-1 0xC4 and 0xE4: distinct
  // in non-ASCII case, so distinct ids; the ASCII letters around them
  // still fold.
  const uint32_t upper = interner.Intern("\xC3\x84RGER.EXE");
  const uint32_t lower = interner.Intern("\xC3\xA4rger.exe");
  EXPECT_NE(upper, lower);
  EXPECT_EQ(interner.NameOf(upper), "\xC3\x84rger.exe");
  EXPECT_EQ(interner.Intern("\xC3\x84rger.EXE"), upper);
  EXPECT_NE(interner.Intern("\xC4"), interner.Intern("\xE4"));
}

TEST(InternerTest, HitPathDoesNotAllocate) {
  Interner interner;
  // Longer than any small-string buffer, so a folded copy would allocate.
  const std::vector<std::string> spellings = {
      "C:\\Program Files\\Microsoft SQL Server\\sqlservr.exe",
      "NT AUTHORITY\\SYSTEM", "db-server-01.corp.example", "x"};
  std::vector<uint32_t> ids;
  for (const std::string& s : spellings) ids.push_back(interner.Intern(s));
  const std::string upper = "C:\\PROGRAM FILES\\MICROSOFT SQL SERVER\\SQLSERVR.EXE";

  size_t same = 0;
  const size_t before = testing::HeapAllocs();
  for (int i = 0; i < 1000; ++i) {
    for (size_t k = 0; k < spellings.size(); ++k) {
      same += interner.Intern(spellings[k]) == ids[k];
    }
    same += interner.Intern(upper) == ids[0];
    same += interner.Find(upper) == ids[0];
  }
  EXPECT_EQ(testing::HeapAllocs() - before, 0u);
  EXPECT_EQ(same, 6000u);
}

TEST(InternerTest, AccountingMatchesInsertedSpellings) {
  Interner interner;
  Interner::Stats empty = interner.stats();
  EXPECT_EQ(empty.entries, 0u);
  EXPECT_EQ(empty.bytes, 0u);

  std::vector<std::string> spellings = {
      "cmd.exe", "C:\\Windows\\Temp\\payload.bin", "alice", "db-server-01",
      "/var/log/syslog"};
  size_t expected_bytes = 0;
  for (const std::string& s : spellings) {
    interner.Intern(s);
    expected_bytes += s.size();  // normalization only lowercases
  }
  Interner::Stats st = interner.stats();
  EXPECT_EQ(st.entries, spellings.size());
  EXPECT_EQ(st.bytes, expected_bytes);

  // Re-interning (any case) adds nothing: same normalized spelling.
  interner.Intern("CMD.EXE");
  interner.Intern("Alice");
  st = interner.stats();
  EXPECT_EQ(st.entries, spellings.size());
  EXPECT_EQ(st.bytes, expected_bytes);

  // A genuinely new spelling is accounted at its normalized length.
  interner.Intern("EVIL.dll");
  st = interner.stats();
  EXPECT_EQ(st.entries, spellings.size() + 1);
  EXPECT_EQ(st.bytes, expected_bytes + std::string("evil.dll").size());
}

TEST(InternerTest, RotateResetsTableAndBumpsGeneration) {
  Interner interner;
  uint64_t gen0 = interner.stats().generation;
  uint32_t id = interner.Intern("stale-path");
  EXPECT_NE(id, Interner::kUnset);
  EXPECT_EQ(interner.Find("stale-path"), id);

  interner.Rotate();
  Interner::Stats st = interner.stats();
  EXPECT_EQ(st.entries, 0u);
  EXPECT_EQ(st.bytes, 0u);
  EXPECT_EQ(st.generation, gen0 + 1);
  EXPECT_EQ(interner.Find("stale-path"), Interner::kUnset);

  // Ids restart densely after rotation.
  EXPECT_EQ(interner.Intern("fresh"), 1u);
}

TEST(InternerTest, EventSpanReinternsAfterGlobalRotation) {
  // Event buffers survive a rotation: InternEventSpan re-interns events
  // stamped with an older generation instead of trusting stale ids.
  EventBatch events;
  events.push_back(EventBuilder()
                       .At(1)
                       .OnHost("h1")
                       .Subject("sqlservr.exe", 7)
                       .Op(EventOp::kWrite)
                       .FileObject("/backup1.dmp")
                       .Build());
  InternEventSpan(events.data(), events.size());
  uint32_t gen_before = events[0].syms.gen;
  uint32_t path_before = events[0].syms.obj_path;
  ASSERT_NE(path_before, Interner::kUnset);
  EXPECT_EQ(Interner::Global().NameOf(path_before), "/backup1.dmp");

  // Memoized: a second pass does not re-stamp.
  InternEventSpan(events.data(), events.size());
  EXPECT_EQ(events[0].syms.gen, gen_before);

  Interner::Global().Rotate();
  InternEventSpan(events.data(), events.size());
  EXPECT_EQ(events[0].syms.gen, gen_before + 1);
  EXPECT_EQ(Interner::Global().NameOf(events[0].syms.obj_path),
            "/backup1.dmp");
}

}  // namespace
}  // namespace saql
