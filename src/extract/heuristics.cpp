#include "extract/heuristics.hpp"

#include <cstring>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace senids::extract {

namespace {

/// True when some offset starts `min_count` dwords whose three high bytes
/// all repeat (min_count >= 2): without such a chain the return-region
/// walk cannot report anything. SSE2 compares the bytes 4 apart for 16
/// start offsets at once, and each offset whose first pair repeats is
/// confirmed pair by pair.
bool has_dword_chain(util::ByteView payload, std::size_t min_count) noexcept {
  if (payload.size() < 4 * min_count) return false;
  const std::size_t last = payload.size() - 4 * min_count;  // last start that fits
  const std::uint8_t* p = payload.data();
  auto chain_at = [&](std::size_t j) {
    for (std::size_t k = 1; k < min_count; ++k, j += 4) {
      if (std::memcmp(p + j + 1, p + j + 5, 3) != 0) return false;
    }
    return true;
  };
  std::size_t j = 0;
#ifdef __SSE2__
  // Starts j..j+15 read up to p[j + 22], inside the payload while j + 15 <= last.
  auto load = [p](std::size_t at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + at));
  };
  for (; j + 15 <= last; j += 16) {
    const __m128i eq = _mm_and_si128(
        _mm_and_si128(_mm_cmpeq_epi8(load(j + 1), load(j + 5)),
                      _mm_cmpeq_epi8(load(j + 2), load(j + 6))),
        _mm_cmpeq_epi8(load(j + 3), load(j + 7)));
    for (auto m = static_cast<unsigned>(_mm_movemask_epi8(eq)); m != 0; m &= m - 1) {
      if (chain_at(j + static_cast<std::size_t>(__builtin_ctz(m)))) return true;
    }
  }
#endif
  for (; j <= last; ++j) {
    if (chain_at(j)) return true;
  }
  return false;
}

}  // namespace

std::optional<Run> longest_repetition(util::ByteView payload, std::size_t min_len) {
  Run best;
  std::size_t i = 0;
  while (i < payload.size()) {
    std::size_t j = i + 1;
    while (j < payload.size() && payload[j] == payload[i]) ++j;
    if (j - i > best.length) best = Run{i, j - i};
    i = j;
  }
  if (best.length < min_len) return std::nullopt;
  return best;
}

bool is_nop_like(std::uint8_t b) noexcept {
  switch (b) {
    case 0x90:  // nop
    case 0xF5:  // cmc
    case 0xF8:  // clc
    case 0xF9:  // stc
    case 0xFC:  // cld
    case 0xFD:  // std
    case 0x98:  // cwde
    case 0x99:  // cdq
    case 0x27:  // daa
    case 0x2F:  // das
    case 0x37:  // aaa
    case 0x3F:  // aas
    case 0x9B:  // wait
    case 0x9E:  // sahf
    case 0x9F:  // lahf
    case 0xD6:  // salc
      return true;
    default:
      // inc/dec r32 and one-byte push/pop are also common sled filler.
      return (b >= 0x40 && b <= 0x4F) || (b >= 0x50 && b <= 0x5F);
  }
}

std::optional<Run> longest_nop_sled(util::ByteView payload, std::size_t min_len) {
  Run best;
  std::size_t start = 0;
  std::size_t i = 0;
  while (i <= payload.size()) {
    if (i == payload.size() || !is_nop_like(payload[i])) {
      if (i - start > best.length) best = Run{start, i - start};
      start = i + 1;
    }
    ++i;
  }
  if (best.length < min_len) return std::nullopt;
  return best;
}

std::optional<Run> longest_return_region(util::ByteView payload,
                                         std::size_t min_count) {
  // Candidate pass; the exact walk below runs only past it.
  if (min_count >= 2 && !has_dword_chain(payload, min_count)) return std::nullopt;
  Run best;
  // Degenerate-run filter: when the three high bytes are one repeated
  // byte, the "region" is an identical-byte filler unless a meaningful
  // fraction of the low bytes actually differ from it (repetition runs
  // are the filler heuristic's business, not ours).
  auto plausible = [&payload](std::size_t run_start, std::size_t count) {
    const std::uint8_t h1 = payload[run_start + 1];
    const std::uint8_t h2 = payload[run_start + 2];
    const std::uint8_t h3 = payload[run_start + 3];
    if (h1 != h2 || h2 != h3) return true;
    std::size_t differing = 0;
    for (std::size_t k = 0; k < count; ++k) {
      if (payload[run_start + 4 * k] != h1) ++differing;
    }
    return differing * 4 >= count;  // at least a quarter of lows differ
  };
  // For each alignment phase, walk dwords and count runs whose bytes
  // 1..3 (the high 24 bits, little-endian) repeat.
  for (std::size_t phase = 0; phase < 4 && phase + 8 <= payload.size(); ++phase) {
    std::size_t run_start = phase;
    std::size_t count = 1;
    auto consider = [&] {
      if (count >= min_count && count * 4 > best.length &&
          plausible(run_start, count)) {
        best = Run{run_start, count * 4};
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

std::optional<Run> longest_binary_region(util::ByteView payload, std::size_t min_len,
                                         std::size_t max_printable_gap) {
  auto printable = [](std::uint8_t b) {
    return b == '\t' || b == '\r' || b == '\n' || (b >= 0x20 && b < 0x7f);
  };
  Run best;
  std::size_t start = SIZE_MAX;
  std::size_t gap = 0;
  std::size_t last_binary = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (!printable(payload[i])) {
      if (start == SIZE_MAX) start = i;
      last_binary = i;
      gap = 0;
    } else if (start != SIZE_MAX) {
      if (++gap > max_printable_gap) {
        const std::size_t len = last_binary + 1 - start;
        if (len > best.length) best = Run{start, len};
        start = SIZE_MAX;
        gap = 0;
      }
    }
  }
  if (start != SIZE_MAX) {
    const std::size_t len = last_binary + 1 - start;
    if (len > best.length) best = Run{start, len};
  }
  if (best.length < min_len) return std::nullopt;
  return best;
}

}  // namespace senids::extract
