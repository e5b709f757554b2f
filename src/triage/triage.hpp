// Stage-0 triage: a cheap prefilter screening every analysis unit before
// the stage (b)-(e) pipeline (and before the verdict cache's SHA-256 —
// hashing at memory bandwidth would cap the fast path). The screen runs a
// handful of O(n) byte passes — run statistics mirroring the extractor
// heuristics, a GetPC code probe, a probe for the template library's
// fixed byte literals, and optionally a PAYL byte-spectrum model — and
// only escalates units that show code evidence. The GetPC, literal and
// return-region probes find candidate offsets with a vector compare and
// confirm each one exactly, so they answer as their byte loops would.
//
// Escalation policy (conservative, escalate-on-doubt):
//
//   * A unit is rejected as kNoFramesPossible only when *no* extractor
//     heuristic can fire on it, which provably implies zero frames and
//     therefore zero alerts (templates and emulation only ever see
//     frames). This branch is sound by construction.
//   * A unit that would produce data-shaped frames (binary region,
//     base64 attachment, %u-encoded body) is rejected as
//     kDataNoCodeEvidence only after every code probe — sled run,
//     overflow-filler run, return-address region, GetPC idiom, template
//     literal — misses on both the raw bytes and the decoded bytes.
//     This branch is empirically alert-free; it is pinned by
//     tests/triage_differential_test.cpp, which requires triage-on and
//     triage-off reports to be byte-identical over every corpus.
//
// The filter is immutable after construction and safe to share across
// analysis workers (the literal set is built once; screen() is const and
// touches no mutable state).
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "anomaly/payl.hpp"
#include "extract/extractor.hpp"
#include "semantic/template.hpp"
#include "util/bytes.hpp"

namespace senids::triage {

enum class TriageMode : std::uint8_t {
  kOff,  // every unit goes straight to stages (b)-(e)
  kOn,   // screen units; reject provably/empirically clean ones
};

/// Why a unit was escalated or rejected. Escalation reasons name the
/// first probe that fired; rejection reasons name the soundness argument
/// that justifies skipping stages (b)-(e).
enum class TriageReason : std::uint8_t {
  // Escalations.
  kExtractAll,          // extractor bypass mode frames every payload
  kRepetitionRun,       // overflow-filler run would form a frame
  kNopSled,             // NOP-like sled run would form a frame
  kReturnRegion,        // repeated return-address dwords present
  kGetPcCode,           // call/pop or fnstenv GetPC idiom present
  kLiteralMatch,        // a template's fixed byte literal occurs
  kDecodedCodeEvidence, // base64/%u decoded bytes held code evidence
  kSpectrumAnomaly,     // PAYL byte-spectrum model flagged the payload
  // Rejections.
  kEmptyUnit,           // empty payloads never form frames
  kNoFramesPossible,    // no extractor heuristic can fire: provably clean
  kDataNoCodeEvidence,  // data-shaped frames only, every code probe missed
};

[[nodiscard]] std::string_view triage_reason_name(TriageReason r) noexcept;

/// Default-constructed, a decision escalates: the side that cannot lose
/// an alert.
struct TriageDecision {
  bool escalate = true;
  TriageReason reason = TriageReason::kExtractAll;
};

struct TriageOptions {
  TriageMode mode = TriageMode::kOff;
  /// Optional trained PAYL model (see src/anomaly): payloads the model
  /// flags as anomalous for their destination port are escalated. The
  /// model can only *add* escalations — rejection never consults it — so
  /// an untrained or absent model keeps the policy exactly as documented
  /// above. Shared const; the filter never mutates it.
  std::shared_ptr<const anomaly::PaylDetector> spectrum;
};

/// Fixed byte strings every template of `templates` needs verbatim in a
/// frame to match: little-endian immediates of kFixedConst patterns (an
/// x86 store/push of a fixed dword carries it as imm32), `int N` opcode
/// bytes of syscall statements, and ebx_points_to strings (carried as
/// raw data in the frame). Deduplicated. Exposed for tests.
[[nodiscard]] std::vector<util::Bytes> template_literals(
    const std::vector<semantic::Template>& templates);

/// A set of byte literals, probed for any occurrence. A vector compare
/// per distinct leading byte pair (a 1-byte literal's lead is its byte)
/// finds the candidate offsets 16 at a time, and each candidate is
/// confirmed against every literal, so the cost per byte grows with the
/// number of distinct leads. Empty literals are ignored.
class LiteralSet {
 public:
  explicit LiteralSet(std::vector<util::Bytes> literals);

  /// True if any literal occurs in `data`.
  [[nodiscard]] bool matches_any(util::ByteView data) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return literals_.size(); }

 private:
  [[nodiscard]] bool match_at(util::ByteView data, std::size_t at) const noexcept;

  std::vector<util::Bytes> literals_;
  /// Per distinct lead, three 16-byte compare operands: its first byte,
  /// its second byte, and 0xFF when the second byte is any (else 0).
  std::vector<std::uint8_t> splats_;
};

/// True when `data` contains a GetPC idiom: a call (0xE8) whose 32-bit
/// displacement is small (|disp| <= 0x1000 — jmp/call/pop shellcode
/// calls backwards or just past itself, never megabytes away), or the
/// fnstenv [esp-12] encoding D9 74 24 F4. False-hit rate on random bytes
/// is ~1e-8 per position. Exposed for tests.
[[nodiscard]] bool has_getpc_code(util::ByteView data) noexcept;

namespace detail {

/// Raw figures from the fused stage-0 byte scan. Exposed only so tests
/// can prove the SIMD block path and the scalar path are equivalent;
/// screen() consumes these internally.
struct ScanProfile {
  std::size_t rep_len = 0;     // longest identical-byte run
  std::size_t rep_end = 0;     // offset one past that run
  std::size_t sled_len = 0;    // longest NOP-like run
  std::size_t b64_len = 0;     // longest base64-alphabet run
  std::size_t binary_len = 0;  // longest binary region (gaps <= 4)
  std::size_t percent = 0;     // '%' byte count
  std::size_t getpc_lead = 0;  // 0xE8/0xD9 byte count
};

/// Run the fused scan; `allow_simd == false` forces the scalar
/// fallback on every architecture. Both paths must agree bit for bit.
[[nodiscard]] ScanProfile scan_profile(util::ByteView payload, bool allow_simd);

}  // namespace detail

class TriageFilter {
 public:
  /// `extractor` must be the engine's extractor options: in bypass mode
  /// (extract_all) every payload forms a frame, so nothing is rejected.
  /// The screen mirrors the extractor's thresholds (the extract::kMin*
  /// constants), so "no frames possible" is decided against the
  /// extractor that actually runs on escalation.
  TriageFilter(TriageOptions options, extract::ExtractorOptions extractor,
               const std::vector<semantic::Template>& templates);

  /// Screen one analysis unit. `dst_port` selects the PAYL model cell
  /// when a spectrum model is configured (pass 0 when unknown).
  [[nodiscard]] TriageDecision screen(util::ByteView payload,
                                      std::uint16_t dst_port = 0) const;

  [[nodiscard]] const TriageOptions& options() const noexcept { return options_; }
  [[nodiscard]] std::size_t literal_count() const noexcept { return literals_.size(); }

 private:
  /// The code probes over one byte view (raw payload or decoded region):
  /// filler run, sled run, return region, GetPC idiom, template literal.
  [[nodiscard]] bool code_evidence(util::ByteView data) const;

  TriageOptions options_;
  bool extract_all_;
  LiteralSet literals_;
};

}  // namespace senids::triage
