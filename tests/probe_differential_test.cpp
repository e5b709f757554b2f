// Differential tests for the stage-0 raw-byte probes. Each probe finds
// candidate offsets with a vector compare and confirms them exactly; each
// is checked here against a slow reference kept for that purpose (as
// arch::linear_sweep is kept for find_entries):
//   - extract::longest_return_region against the plain 4-phase walk;
//   - triage::LiteralSet against sig::AhoCorasick::matches_any;
//   - triage::has_getpc_code against a byte-at-a-time loop.
// Payloads are random small-alphabet bytes of every length 0..300, with
// runs, literals and lead bytes planted across the 16-, 32- and 64-byte
// block edges. Every payload ends at the last byte of an exactly sized
// heap allocation, so a sanitizer build reports any read past the end.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "extract/heuristics.hpp"
#include "sig/aho.hpp"
#include "triage/triage.hpp"
#include "util/prng.hpp"

namespace senids {
namespace {

using util::ByteView;
using util::Bytes;

constexpr std::size_t kMaxLength = 300;
constexpr std::size_t kPayloadsPerLength = 24;

/// A copy of `bytes` in an allocation of exactly its size.
class ExactBuffer {
 public:
  explicit ExactBuffer(const Bytes& bytes)
      : size_(bytes.size()), data_(std::make_unique<std::uint8_t[]>(bytes.size())) {
    std::copy(bytes.begin(), bytes.end(), data_.get());
  }
  [[nodiscard]] ByteView view() const { return {data_.get(), size_}; }

 private:
  std::size_t size_;
  std::unique_ptr<std::uint8_t[]> data_;
};

Bytes random_payload(util::Prng& prng, std::size_t n, const Bytes& alphabet) {
  Bytes out(n);
  for (auto& b : out) b = alphabet[prng.below(alphabet.size())];
  return out;
}

/// An offset near a 16-, 32- or 64-byte block edge, or anywhere, such
/// that `span` bytes from it fit in `n`. nullopt when nothing fits.
std::optional<std::size_t> plant_offset(util::Prng& prng, std::size_t n,
                                        std::size_t span) {
  if (span > n) return std::nullopt;
  const std::size_t last = n - span;
  if (prng.chance(0.25)) return prng.below(last + 1);
  static const std::size_t kEdges[] = {16, 32, 48, 64, 128, 192, 256};
  const std::size_t edge = kEdges[prng.below(std::size(kEdges))];
  // Start a few bytes before the edge, or end on it, or start on it.
  const auto back = static_cast<std::size_t>(prng.below(span + 3));
  if (edge < back || edge - back > last) return prng.below(last + 1);
  return edge - back;
}

// ------------------------------------------------------- return region

/// The return-region walk without a candidate pass: for each of the four
/// alignment phases, count runs of dwords whose three high bytes repeat.
std::optional<extract::Run> reference_return_region(ByteView payload,
                                                    std::size_t min_count) {
  extract::Run best;
  auto plausible = [&payload](std::size_t run_start, std::size_t count) {
    const std::uint8_t h1 = payload[run_start + 1];
    const std::uint8_t h2 = payload[run_start + 2];
    const std::uint8_t h3 = payload[run_start + 3];
    if (h1 != h2 || h2 != h3) return true;
    std::size_t differing = 0;
    for (std::size_t k = 0; k < count; ++k) {
      if (payload[run_start + 4 * k] != h1) ++differing;
    }
    return differing * 4 >= count;
  };
  for (std::size_t phase = 0; phase < 4 && phase + 8 <= payload.size(); ++phase) {
    std::size_t run_start = phase;
    std::size_t count = 1;
    auto consider = [&] {
      if (count >= min_count && count * 4 > best.length &&
          plausible(run_start, count)) {
        best = extract::Run{run_start, count * 4};
      }
    };
    for (std::size_t i = phase + 4; i + 4 <= payload.size(); i += 4) {
      const bool same = payload[i + 1] == payload[run_start + 1] &&
                        payload[i + 2] == payload[run_start + 2] &&
                        payload[i + 3] == payload[run_start + 3];
      if (same) {
        ++count;
      } else {
        consider();
        run_start = i;
        count = 1;
      }
    }
    consider();
  }
  if (best.length == 0) return std::nullopt;
  return best;
}

/// `count` dwords sharing their high bytes, with low bytes drawn from
/// `alphabet` (so some runs are identical-byte filler the walk rejects).
Bytes dword_run(util::Prng& prng, std::size_t count, const Bytes& alphabet) {
  const bool degenerate = prng.chance(0.3);
  const std::uint8_t h1 = alphabet[prng.below(alphabet.size())];
  const std::uint8_t h2 = degenerate ? h1 : alphabet[prng.below(alphabet.size())];
  const std::uint8_t h3 = degenerate ? h1 : alphabet[prng.below(alphabet.size())];
  Bytes out;
  for (std::size_t k = 0; k < count; ++k) {
    out.insert(out.end(), {alphabet[prng.below(alphabet.size())], h1, h2, h3});
  }
  return out;
}

TEST(ProbeDifferential, ReturnRegionEqualsFourPhaseWalk) {
  util::Prng prng(27001);
  const Bytes alphabet = {0x00, 0x41, 0x7F, 0xBF};
  std::size_t found = 0;
  for (std::size_t n = 0; n <= kMaxLength; ++n) {
    for (std::size_t rep = 0; rep < kPayloadsPerLength; ++rep) {
      Bytes payload = random_payload(prng, n, alphabet);
      // Plant up to three runs of 4..9 dwords, possibly cut short by a
      // later plant or the payload end.
      for (int k = static_cast<int>(prng.below(4)); k > 0; --k) {
        const Bytes run = dword_run(prng, 4 + prng.below(6), alphabet);
        if (auto at = plant_offset(prng, n, run.size())) {
          std::copy(run.begin(), run.end(),
                    payload.begin() + static_cast<std::ptrdiff_t>(*at));
        }
      }
      const ExactBuffer buffer(payload);
      for (std::size_t min_count : {0u, 1u, 2u, 5u, 6u, 7u}) {
        const auto got = extract::longest_return_region(buffer.view(), min_count);
        const auto want = reference_return_region(buffer.view(), min_count);
        ASSERT_EQ(got.has_value(), want.has_value()) << "n=" << n << " min=" << min_count;
        if (!want) continue;
        EXPECT_EQ(got->offset, want->offset) << "n=" << n << " min=" << min_count;
        EXPECT_EQ(got->length, want->length) << "n=" << n << " min=" << min_count;
        if (min_count == 6) ++found;
      }
    }
  }
  // The plants must reach the confirm step, not only the early reject.
  EXPECT_GT(found, 500u);
}

// ------------------------------------------------------------ literals

TEST(ProbeDifferential, LiteralSetEqualsAhoCorasick) {
  util::Prng prng(27002);
  const Bytes alphabet = {0x00, 0x0A, 0x20, 0x2F, 0x41, 0x62, 0x6E, 0x73,
                          0x80, 0x90, 0xC0, 0xCB, 0xCD, 0xD3, 0xE8, 0xFF};
  std::size_t hits = 0;
  std::size_t misses = 0;
  for (std::size_t n = 0; n <= kMaxLength; ++n) {
    for (std::size_t rep = 0; rep < kPayloadsPerLength; ++rep) {
      // 1-32 literals of 1-6 bytes; a quarter repeat an earlier
      // literal's leading pair, so leads are shared.
      std::vector<Bytes> literals;
      const std::size_t count = 1 + prng.below(32);
      for (std::size_t k = 0; k < count; ++k) {
        Bytes lit = random_payload(prng, 1 + prng.below(6), alphabet);
        if (!literals.empty() && lit.size() >= 2 && prng.chance(0.25)) {
          const Bytes& other = literals[prng.below(literals.size())];
          lit[0] = other[0];
          if (other.size() >= 2) lit[1] = other[1];
        }
        // 1-byte literals match almost everywhere; keep them rarer.
        if (lit.size() == 1 && !prng.chance(0.2)) {
          lit.push_back(alphabet[prng.below(alphabet.size())]);
        }
        literals.push_back(std::move(lit));
      }
      sig::AhoCorasick reference;
      for (const Bytes& lit : literals) reference.add_pattern(lit);
      reference.build();
      const triage::LiteralSet probe(literals);

      Bytes payload = random_payload(prng, n, alphabet);
      if (prng.chance(0.5)) {
        const Bytes& lit = literals[prng.below(literals.size())];
        if (auto at = plant_offset(prng, n, lit.size())) {
          // Plant the literal whole, or cut by one byte, so near misses
          // reach the confirm step too.
          const std::size_t len = prng.chance(0.5) ? lit.size() : lit.size() - 1;
          std::copy(lit.begin(), lit.begin() + static_cast<std::ptrdiff_t>(len),
                    payload.begin() + static_cast<std::ptrdiff_t>(*at));
        }
      }
      const ExactBuffer buffer(payload);
      const bool want = reference.matches_any(buffer.view());
      ASSERT_EQ(probe.matches_any(buffer.view()), want) << "n=" << n << " rep=" << rep;
      ++(want ? hits : misses);
    }
  }
  EXPECT_GT(hits, 1000u);
  EXPECT_GT(misses, 1000u);
}

// -------------------------------------------------------------- GetPC

/// The GetPC probe one byte at a time: a call with |disp| <= 0x1000, or
/// fnstenv [esp-12].
bool reference_getpc(ByteView data) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::uint8_t b = data[i];
    if (b == 0xE8 && i + 5 <= data.size()) {
      const std::uint32_t disp = static_cast<std::uint32_t>(data[i + 1]) |
                                 (static_cast<std::uint32_t>(data[i + 2]) << 8) |
                                 (static_cast<std::uint32_t>(data[i + 3]) << 16) |
                                 (static_cast<std::uint32_t>(data[i + 4]) << 24);
      if (disp + 0x1000u <= 0x2000u) return true;
    }
    if (b == 0xD9 && i + 4 <= data.size() && data[i + 1] == 0x74 && data[i + 2] == 0x24 &&
        data[i + 3] == 0xF4) {
      return true;
    }
  }
  return false;
}

TEST(ProbeDifferential, GetPcEqualsByteLoop) {
  util::Prng prng(27003);
  const Bytes alphabet = {0x00, 0x10, 0x24, 0x41, 0x74, 0xF4, 0xFF};
  const std::vector<Bytes> plants = {
      {0xE8, 0x00, 0x00, 0x00, 0x00}, {0xE8, 0xFF, 0xFF, 0xFF, 0xFF},
      {0xE8, 0x00, 0x10, 0x00, 0x00}, {0xE8, 0x01, 0x10, 0x00, 0x00},
      {0xE8, 0x00, 0xF0, 0xFF, 0xFF}, {0xE8, 0xFF, 0xEF, 0xFF, 0xFF},
      {0xD9, 0x74, 0x24, 0xF4},       {0xD9, 0x74, 0x24, 0xF5},
      {0xE8},                         {0xD9}};
  std::size_t hits = 0;
  std::size_t misses = 0;
  for (std::size_t n = 0; n <= kMaxLength; ++n) {
    for (std::size_t rep = 0; rep < kPayloadsPerLength; ++rep) {
      Bytes payload = random_payload(prng, n, alphabet);
      for (int k = static_cast<int>(prng.below(3)); k > 0; --k) {
        const Bytes& plant = plants[prng.below(plants.size())];
        // Sometimes cut the plant at the payload end.
        const std::size_t span = prng.chance(0.2) ? 1 : plant.size();
        if (auto at = plant_offset(prng, n, span)) {
          for (std::size_t j = 0; j < plant.size() && *at + j < n; ++j) {
            payload[*at + j] = plant[j];
          }
        }
      }
      const ExactBuffer buffer(payload);
      const bool want = reference_getpc(buffer.view());
      ASSERT_EQ(triage::has_getpc_code(buffer.view()), want)
          << "n=" << n << " rep=" << rep;
      ++(want ? hits : misses);
    }
  }
  EXPECT_GT(hits, 1000u);
  EXPECT_GT(misses, 1000u);
}

}  // namespace
}  // namespace senids
