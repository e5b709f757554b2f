// Binary detection and extraction (Section 4.2): locate the approximate
// region of a payload that carries binary content and hand it to the
// disassembler as a "binary frame". This stage is what keeps the
// CPU-intensive semantic stages off ordinary traffic; it can be bypassed
// (extract_all) at a large performance cost — the paper's remark, and
// our bench_ablation_extraction experiment.
#pragma once

#include <vector>

#include "util/bytes.hpp"

namespace senids::extract {

enum class FrameReason : std::uint8_t {
  kUnicodeDecoded,   // %uXXXX escapes translated to binary
  kAfterRepetition,  // content following an overflow filler run
  kNopSled,          // variant NOP sled onward
  kBinaryRegion,     // dense non-printable region
  kReturnRegion,     // repeated return addresses (Figure 4 invariant)
  kWholePayload,     // extraction bypassed
  kBase64Decoded,    // MIME/base64 attachment translated to binary
  kEmulatedDecode,   // frame decrypted by the emulator (deep analysis)
  kEmulatedBehavior, // behaviour observed while emulating the frame
};

std::string_view frame_reason_name(FrameReason r) noexcept;

/// Is a frame of reason `r` a window of its payload: the raw bytes
/// [src_offset, src_offset + size), not a transformed copy?
constexpr bool is_payload_window(FrameReason r) noexcept {
  switch (r) {
    case FrameReason::kAfterRepetition:
    case FrameReason::kNopSled:
    case FrameReason::kBinaryRegion:
    case FrameReason::kReturnRegion:
    case FrameReason::kWholePayload:
      return true;
    default:
      return false;
  }
}

struct BinaryFrame {
  util::Bytes data;
  std::size_t src_offset = 0;  // where in the payload the frame began
  FrameReason reason{};
};

/// Minimum evidence for each extraction heuristic. The stage-0 triage
/// screen reads the same constants, so its "no frames possible" verdict
/// is decided against the thresholds the extractor applies.
inline constexpr std::size_t kMinUnicodeEscapes = 8;
inline constexpr std::size_t kMinRepetition = 32;
inline constexpr std::size_t kMinSled = 12;
inline constexpr std::size_t kMinBinaryRegion = 24;
inline constexpr std::size_t kMinReturnAddresses = 6;  // repeated dwords in the ret region
inline constexpr std::size_t kMinBase64Encoded = 96;   // encoded chars
inline constexpr std::size_t kMinBase64Decoded = 64;   // decoded bytes

struct ExtractorOptions {
  /// Bypass mode: emit the whole payload as one frame regardless of the
  /// heuristics (used by the FP evaluation and the ablation bench).
  bool extract_all = false;
};

class BinaryExtractor {
 public:
  explicit BinaryExtractor(ExtractorOptions options = ExtractorOptions{})
      : options_(options) {}

  /// Extract candidate binary frames from one application payload into
  /// `out`, which is cleared first: a worker analyzing a stream of
  /// payloads reuses one frame vector (the frame byte buffers themselves
  /// are per-payload — they are decoded or sliced content and move on
  /// into analysis). `out` stays empty when nothing looks like binary
  /// content — that payload is pruned from the expensive pipeline stages.
  void extract(util::ByteView payload, std::vector<BinaryFrame>& out) const;

  [[nodiscard]] const ExtractorOptions& options() const noexcept { return options_; }

 private:
  ExtractorOptions options_;
};

}  // namespace senids::extract
