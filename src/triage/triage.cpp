#include "triage/triage.hpp"

#include <algorithm>
#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "extract/base64.hpp"
#include "extract/heuristics.hpp"
#include "extract/unicode.hpp"
#include "semantic/pattern.hpp"

namespace senids::triage {

namespace {

/// Everything the screen needs from one fused pass over the raw bytes.
/// Run lengths mirror the extractor heuristics exactly (first longest
/// run wins, strict '>'), so a below-threshold figure here implies the
/// corresponding heuristic cannot form a frame.
struct ScanStats {
  std::size_t rep_len = 0;     // longest identical-byte run
  std::size_t rep_end = 0;     // offset one past that run
  std::size_t sled_len = 0;    // longest NOP-like run
  std::size_t b64_len = 0;     // longest base64-alphabet run (incl. = CR LF)
  std::size_t binary_len = 0;  // longest binary region (printable gaps <= 4)
  std::size_t percent = 0;     // '%' bytes: upper bound on %u/%XX escapes
  std::size_t getpc_lead = 0;  // 0xE8/0xD9 bytes: gate for the GetPC probe
};

// One class-bit byte per input byte: the fused pass becomes a single
// table load plus branch-free run arithmetic, which is what keeps
// stage-0 at memory-scan speed (the naive per-byte branchy version
// mispredicts constantly on mixed text and runs ~10x slower).
constexpr std::uint8_t kClsNop = 1;        // extract::is_nop_like
constexpr std::uint8_t kClsB64 = 2;        // base64 alphabet incl. '=' CR LF
constexpr std::uint8_t kClsPrintable = 4;  // longest_binary_region's notion
constexpr std::uint8_t kClsPercent = 8;    // '%'
constexpr std::uint8_t kClsGetPcLead = 16; // 0xE8 (call) / 0xD9 (fnstenv)

const std::array<std::uint8_t, 256>& class_table() {
  static const std::array<std::uint8_t, 256> table = [] {
    std::array<std::uint8_t, 256> t{};
    for (int i = 0; i < 256; ++i) {
      const auto b = static_cast<std::uint8_t>(i);
      std::uint8_t cls = 0;
      if (extract::is_nop_like(b)) cls |= kClsNop;
      if ((b >= 'A' && b <= 'Z') || (b >= 'a' && b <= 'z') || (b >= '0' && b <= '9') ||
          b == '+' || b == '/' || b == '=' || b == '\r' || b == '\n') {
        cls |= kClsB64;
      }
      if (b == '\t' || b == '\r' || b == '\n' || (b >= 0x20 && b < 0x7f)) {
        cls |= kClsPrintable;
      }
      if (b == '%') cls |= kClsPercent;
      if (b == 0xE8 || b == 0xD9) cls |= kClsGetPcLead;
      t[i] = cls;
    }
    return t;
  }();
  return table;
}

inline std::uint32_t ctz32(std::uint32_t v) noexcept {
  return static_cast<std::uint32_t>(__builtin_ctz(v));
}
inline std::uint32_t leading_ones(std::uint32_t m) noexcept {
  // Caller guarantees m != ~0u, so ~m is nonzero.
  return static_cast<std::uint32_t>(__builtin_clz(~m));
}

/// Longest same-class run, fed either one classified byte at a time or
/// one 32-bit class mask (bit i = byte base+i in class) at a time. The
/// mask form is what the SIMD path produces: runs are folded with
/// carry-in/carry-out across words so word feeding and byte feeding
/// give identical results.
struct RunTracker {
  std::size_t run = 0;
  std::size_t best = 0;

  void byte(bool in_class) noexcept {
    run = in_class ? run + 1 : 0;
    if (run > best) best = run;
  }
  void word(std::uint32_t m) noexcept {
    if (m == 0) {
      run = 0;
      return;
    }
    if (m == ~0u) {
      run += 32;
      if (run > best) best = run;
      return;
    }
    const std::size_t carry = run + ctz32(~m);
    if (carry > best) best = carry;
    std::uint32_t mm = m;
    std::size_t len = 0;
    while (mm) {
      mm &= mm << 1;
      ++len;
    }
    if (len > best) best = len;
    run = leading_ones(m);
  }
};

/// Longest equal-to-previous-byte run plus the offset one past its end,
/// with the extractor's first-longest-wins tie break (strict '>'). The
/// tracked run length is the count of eq bits; the byte run is one
/// longer.
struct RepTracker {
  std::size_t run = 0;
  std::size_t best = 0;
  std::size_t end = 0;  // offset one past the last byte of the best run

  void byte(bool eq, std::size_t i) noexcept {
    run = eq ? run + 1 : 0;
    if (run > best) {
      best = run;
      end = i + 1;
    }
  }
  void word(std::uint32_t m, std::size_t base) noexcept {
    if (m == 0) {
      run = 0;
      return;
    }
    if (m == ~0u) {
      run += 32;
      if (run > best) {
        best = run;
        end = base + 32;
      }
      return;
    }
    const std::uint32_t t = ctz32(~m);
    if (run + t > best) {
      best = run + t;
      end = base + t;
    }
    std::uint32_t mm = m;
    std::uint32_t last = 0;
    std::size_t len = 0;
    while (mm) {
      last = mm;
      mm &= mm << 1;
      ++len;
    }
    if (len > best) {
      best = len;
      end = base + ctz32(last) + 1;  // first (lowest) run of that length
    }
    run = leading_ones(m);
  }
};

/// Longest binary region: non-printable bytes bridged by gaps of at
/// most four printable bytes (longest_binary_region's rule). Only the
/// non-printable byte *positions* determine region extents, so the
/// SIMD path just feeds set bits of the non-printable mask.
struct BinTracker {
  std::size_t span_start = 0;
  std::size_t last_pos = 0;
  std::size_t best = 0;
  bool active = false;

  void close() noexcept {
    if (!active) return;
    const std::size_t len = last_pos + 1 - span_start;
    if (len > best) best = len;
    active = false;
  }
  void nonprintable_at(std::size_t pos) noexcept {
    if (active && pos - last_pos > 5) close();  // gap of >4 printables
    if (!active) {
      active = true;
      span_start = pos;
    }
    last_pos = pos;
  }
};

/// Shared scan state: the scalar path feeds bytes, the SIMD path feeds
/// 32-byte class masks; both land in the same trackers so any mix of
/// the two (prologue / blocks / tail) yields identical ScanStats.
struct Trackers {
  std::size_t percent = 0;
  std::size_t getpc_lead = 0;
  RepTracker rep;
  RunTracker sled;
  RunTracker b64;
  BinTracker bin;

  void byte(std::uint8_t b, std::uint8_t prev, std::size_t i,
            const std::uint8_t* cls_of) noexcept {
    const std::uint8_t cls = cls_of[b];
    percent += cls & kClsPercent ? 1 : 0;
    getpc_lead += cls & kClsGetPcLead ? 1 : 0;
    rep.byte(i > 0 && b == prev, i);
    sled.byte(cls & kClsNop);
    b64.byte(cls & kClsB64);
    if (!(cls & kClsPrintable)) bin.nonprintable_at(i);
  }

  ScanStats finalize(std::size_t n) noexcept {
    bin.close();
    ScanStats s;
    if (n == 0) return s;
    s.rep_len = rep.best + 1;
    s.rep_end = rep.best ? rep.end : 1;
    s.sled_len = sled.best;
    s.b64_len = b64.best;
    s.binary_len = bin.best;
    s.percent = percent;
    s.getpc_lead = getpc_lead;
    return s;
  }
};

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SENIDS_TRIAGE_AVX2 1

bool cpu_has_avx2() noexcept {
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
}

/// AVX2 block scan over [begin, end) (both multiples of 32, begin >= 32
/// so the eq-mask can load at begin-1). Byte classes are resolved with
/// nibble-pair shuffles: a byte is in a class iff hi_lut[hi] &
/// lo_lut[lo] is nonzero, with one bit per (hi-set x lo-set) rectangle
/// of the class's byte set. NOP-like needs five rectangles, the base64
/// alphabet five; ranges and single bytes use compares directly.
__attribute__((target("avx2"))) void scan_blocks_avx2(const std::uint8_t* data,
                                                      std::size_t begin, std::size_t end,
                                                      Trackers& t) {
  // NOP-like rectangles (see extract::is_nop_like):
  //   bit0 hi{4,5} x lo{0..F}   inc/dec/push/pop r32
  //   bit1 hi{2,3} x lo{7,F}    daa das aaa aas
  //   bit2 hi{9}   x lo{0,8,9,B,E,F}  nop cwde cdq wait sahf lahf
  //   bit3 hi{D}   x lo{6}      salc
  //   bit4 hi{F}   x lo{5,8,9,C,D}    cmc clc stc cld std
  const __m256i nop_hi = _mm256_setr_epi8(0, 0, 2, 2, 1, 1, 0, 0, 0, 4, 0, 0, 0, 8, 0, 16,
                                          0, 0, 2, 2, 1, 1, 0, 0, 0, 4, 0, 0, 0, 8, 0, 16);
  const __m256i nop_lo = _mm256_setr_epi8(5, 1, 1, 1, 1, 17, 9, 3, 21, 21, 1, 5, 17, 17, 5, 7,
                                          5, 1, 1, 1, 1, 17, 9, 3, 21, 21, 1, 5, 17, 17, 5, 7);
  // Base64 alphabet rectangles (A-Z a-z 0-9 + / = CR LF):
  //   bit0 hi{4,6} x lo{1..F}   bit1 hi{5,7} x lo{0..A}
  //   bit2 hi{3} x lo{0..9,D}   bit3 hi{2} x lo{B,F}   bit4 hi{0} x lo{A,D}
  const __m256i b64_hi = _mm256_setr_epi8(16, 0, 8, 4, 1, 2, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0,
                                          16, 0, 8, 4, 1, 2, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0);
  const __m256i b64_lo = _mm256_setr_epi8(6, 7, 7, 7, 7, 7, 7, 7, 7, 7, 19, 9, 1, 21, 1, 9,
                                          6, 7, 7, 7, 7, 7, 7, 7, 7, 7, 19, 9, 1, 21, 1, 9);
  const __m256i low_nibble = _mm256_set1_epi8(0x0F);
  const __m256i zero = _mm256_setzero_si256();

  for (std::size_t base = begin; base < end; base += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + base));
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), low_nibble);
    const __m256i lo = _mm256_and_si256(x, low_nibble);

    const __m256i nop_bits = _mm256_and_si256(_mm256_shuffle_epi8(nop_hi, hi),
                                              _mm256_shuffle_epi8(nop_lo, lo));
    const std::uint32_t nop_mask = ~static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(nop_bits, zero)));

    const __m256i b64_bits = _mm256_and_si256(_mm256_shuffle_epi8(b64_hi, hi),
                                              _mm256_shuffle_epi8(b64_lo, lo));
    const std::uint32_t b64_mask = ~static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(b64_bits, zero)));

    // Printable: [0x20, 0x7E] plus tab/CR/LF. Bytes >= 0x80 are negative
    // in epi8 compares and fail the lower bound, as intended.
    const __m256i eq_tab = _mm256_cmpeq_epi8(x, _mm256_set1_epi8(0x09));
    const __m256i eq_lf = _mm256_cmpeq_epi8(x, _mm256_set1_epi8(0x0A));
    const __m256i eq_cr = _mm256_cmpeq_epi8(x, _mm256_set1_epi8(0x0D));
    const __m256i in_range =
        _mm256_and_si256(_mm256_cmpgt_epi8(x, _mm256_set1_epi8(0x1F)),
                         _mm256_cmpgt_epi8(_mm256_set1_epi8(0x7F), x));
    const __m256i printable = _mm256_or_si256(
        _mm256_or_si256(in_range, eq_tab), _mm256_or_si256(eq_lf, eq_cr));
    const std::uint32_t nonprint_mask =
        ~static_cast<std::uint32_t>(_mm256_movemask_epi8(printable));

    const std::uint32_t pct_mask = static_cast<std::uint32_t>(_mm256_movemask_epi8(
        _mm256_cmpeq_epi8(x, _mm256_set1_epi8(0x25))));
    const std::uint32_t getpc_mask = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_or_si256(
            _mm256_cmpeq_epi8(x, _mm256_set1_epi8(static_cast<char>(0xE8))),
            _mm256_cmpeq_epi8(x, _mm256_set1_epi8(static_cast<char>(0xD9))))));

    const __m256i prev =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + base - 1));
    const std::uint32_t eq_mask = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(x, prev)));

    if (pct_mask) t.percent += static_cast<std::size_t>(__builtin_popcount(pct_mask));
    if (getpc_mask) {
      t.getpc_lead += static_cast<std::size_t>(__builtin_popcount(getpc_mask));
    }
    t.rep.word(eq_mask, base);
    t.sled.word(nop_mask);
    t.b64.word(b64_mask);
    std::uint32_t np = nonprint_mask;
    while (np) {
      t.bin.nonprintable_at(base + ctz32(np));
      np &= np - 1;
    }
  }
}
#endif  // x86-64

ScanStats scan(util::ByteView payload, [[maybe_unused]] bool allow_simd = true) {
  Trackers t;
  const std::uint8_t* cls_of = class_table().data();
  const std::size_t n = payload.size();
  std::size_t i = 0;
#ifdef SENIDS_TRIAGE_AVX2
  if (allow_simd && n >= 96 && cpu_has_avx2()) {
    // Scalar prologue covers the first block (the SIMD eq-mask reads one
    // byte before each block, so blocks must start at offset >= 1); the
    // scalar tail picks up the last partial block.
    for (; i < 32; ++i) t.byte(payload[i], i ? payload[i - 1] : 0, i, cls_of);
    const std::size_t end = 32 + ((n - 32) & ~static_cast<std::size_t>(31));
    scan_blocks_avx2(payload.data(), 32, end, t);
    i = end;
  }
#endif
  for (; i < n; ++i) t.byte(payload[i], i ? payload[i - 1] : 0, i, cls_of);
  return t.finalize(n);
}

void collect_fixed_consts(const semantic::PatPtr& p, std::vector<util::Bytes>& out) {
  if (!p) return;
  if (p->kind == semantic::PatKind::kFixedConst) {
    const std::uint32_t v = p->fixed;
    out.push_back(util::Bytes{
        static_cast<std::uint8_t>(v & 0xff), static_cast<std::uint8_t>((v >> 8) & 0xff),
        static_cast<std::uint8_t>((v >> 16) & 0xff),
        static_cast<std::uint8_t>((v >> 24) & 0xff)});
  }
  collect_fixed_consts(p->a, out);
  collect_fixed_consts(p->b, out);
  collect_fixed_consts(p->base, out);
}

}  // namespace

namespace detail {

ScanProfile scan_profile(util::ByteView payload, bool allow_simd) {
  const ScanStats s = scan(payload, allow_simd);
  return ScanProfile{s.rep_len, s.rep_end, s.sled_len, s.b64_len,
                     s.binary_len, s.percent, s.getpc_lead};
}

}  // namespace detail

std::string_view triage_reason_name(TriageReason r) noexcept {
  switch (r) {
    case TriageReason::kExtractAll: return "extract-all";
    case TriageReason::kRepetitionRun: return "repetition-run";
    case TriageReason::kNopSled: return "nop-sled";
    case TriageReason::kReturnRegion: return "return-region";
    case TriageReason::kGetPcCode: return "getpc-code";
    case TriageReason::kLiteralMatch: return "literal-match";
    case TriageReason::kDecodedCodeEvidence: return "decoded-code-evidence";
    case TriageReason::kSpectrumAnomaly: return "spectrum-anomaly";
    case TriageReason::kEmptyUnit: return "empty-unit";
    case TriageReason::kNoFramesPossible: return "no-frames-possible";
    case TriageReason::kDataNoCodeEvidence: return "data-no-code-evidence";
  }
  return "?";
}

std::vector<util::Bytes> template_literals(
    const std::vector<semantic::Template>& templates) {
  std::vector<util::Bytes> out;
  for (const semantic::Template& t : templates) {
    for (const semantic::Stmt& stmt : t.stmts) {
      collect_fixed_consts(stmt.addr, out);
      collect_fixed_consts(stmt.value, out);
      if (stmt.kind == semantic::Stmt::Kind::kSyscall) {
        // int-vector statements pin the two-byte CD imm8 encoding. The
        // x86-64 `syscall` vector (0x100) has no int encoding and its
        // 0F 05 pair is too common in binary traffic to be a useful
        // literal, so those statements contribute strings only — keeping
        // the 32-bit literal set byte-identical.
        if (stmt.vector <= 0xff) {
          out.push_back(util::Bytes{0xCD, static_cast<std::uint8_t>(stmt.vector)});
        }
        if (!stmt.ebx_points_to.empty()) {
          out.emplace_back(stmt.ebx_points_to.begin(), stmt.ebx_points_to.end());
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool has_getpc_code(util::ByteView data) noexcept {
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::uint8_t b = data[i];
    if (b == 0xE8 && i + 5 <= data.size()) {
      const std::uint32_t disp = static_cast<std::uint32_t>(data[i + 1]) |
                                 (static_cast<std::uint32_t>(data[i + 2]) << 8) |
                                 (static_cast<std::uint32_t>(data[i + 3]) << 16) |
                                 (static_cast<std::uint32_t>(data[i + 4]) << 24);
      // |disp| <= 0x1000, branch-free on the unsigned representation.
      if (disp + 0x1000u <= 0x2000u) return true;
    }
    if (b == 0xD9 && i + 4 <= data.size() && data[i + 1] == 0x74 && data[i + 2] == 0x24 &&
        data[i + 3] == 0xF4) {
      return true;  // fnstenv [esp-12]
    }
  }
  return false;
}

TriageFilter::TriageFilter(TriageOptions options, extract::ExtractorOptions extractor,
                           const std::vector<semantic::Template>& templates)
    : options_(std::move(options)), extract_all_(extractor.extract_all) {
  for (const util::Bytes& lit : template_literals(templates)) {
    literals_.add_pattern(lit);
  }
  literals_.build();
}

bool TriageFilter::code_evidence(util::ByteView data) const {
  // Same probes the raw-byte path runs, re-applied to decoded bytes.
  // The fused scan supplies the run lengths; the GetPC walk only runs
  // when the scan saw at least one candidate lead byte.
  const ScanStats s = scan(data);
  if (s.sled_len >= extract::kMinSled) return true;
  if (s.rep_len >= extract::kMinRepetition && s.rep_end < data.size()) return true;
  if (s.getpc_lead > 0 && has_getpc_code(data)) return true;
  if (extract::longest_return_region(data, extract::kMinReturnAddresses)) return true;
  return literals_.matches_any(data);
}

TriageDecision TriageFilter::screen(util::ByteView payload, std::uint16_t dst_port) const {
  if (extract_all_) {
    // Bypass mode frames every payload whole; nothing can be rejected.
    return {true, TriageReason::kExtractAll};
  }
  if (payload.empty()) {
    return {false, TriageReason::kEmptyUnit};
  }

  const ScanStats s = scan(payload);

  // Code probes over the raw bytes, cheapest first. Any hit escalates:
  // the matching extractor heuristic would form a frame (or, for GetPC /
  // literals, the analyzer could find matching code inside one).
  if (s.rep_len >= extract::kMinRepetition && s.rep_end < payload.size()) {
    return {true, TriageReason::kRepetitionRun};
  }
  if (s.sled_len >= extract::kMinSled) {
    return {true, TriageReason::kNopSled};
  }
  if (s.getpc_lead > 0 && has_getpc_code(payload)) {
    return {true, TriageReason::kGetPcCode};
  }
  if (extract::longest_return_region(payload, extract::kMinReturnAddresses)) {
    return {true, TriageReason::kReturnRegion};
  }
  if (literals_.matches_any(payload)) {
    return {true, TriageReason::kLiteralMatch};
  }
  if (options_.spectrum && options_.spectrum->is_anomalous(payload, dst_port)) {
    return {true, TriageReason::kSpectrumAnomaly};
  }

  // Data-shaped frame sources: decode exactly what the extractor would
  // and re-run the code probes over the bytes the analyzer would see.
  bool data_frames = false;
  if (s.percent >= extract::kMinUnicodeEscapes) {
    const extract::UnicodeDecodeResult uni = extract::decode_u_escapes(payload);
    if (uni.escape_count >= extract::kMinUnicodeEscapes) {
      if (code_evidence(uni.decoded)) {
        return {true, TriageReason::kDecodedCodeEvidence};
      }
      data_frames = true;
    }
  }
  if (s.b64_len >= extract::kMinBase64Encoded) {
    if (auto region = extract::find_base64_region(payload, extract::kMinBase64Encoded,
                                                  extract::kMinBase64Decoded)) {
      if (code_evidence(region->decoded)) {
        return {true, TriageReason::kDecodedCodeEvidence};
      }
      data_frames = true;
    }
  }
  if (s.binary_len >= extract::kMinBinaryRegion) data_frames = true;

  // No probe fired. Either no heuristic can form a frame at all (provably
  // alert-free) or only data-shaped frames are possible and none of them
  // shows code evidence (empirically alert-free; differential-tested).
  return data_frames ? TriageDecision{false, TriageReason::kDataNoCodeEvidence}
                     : TriageDecision{false, TriageReason::kNoFramesPossible};
}

}  // namespace senids::triage
