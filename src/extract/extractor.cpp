#include "extract/extractor.hpp"

#include "extract/base64.hpp"
#include "extract/heuristics.hpp"
#include "extract/unicode.hpp"

namespace senids::extract {

std::string_view frame_reason_name(FrameReason r) noexcept {
  switch (r) {
    case FrameReason::kUnicodeDecoded: return "unicode-decoded";
    case FrameReason::kAfterRepetition: return "after-repetition";
    case FrameReason::kNopSled: return "nop-sled";
    case FrameReason::kBinaryRegion: return "binary-region";
    case FrameReason::kReturnRegion: return "return-region";
    case FrameReason::kWholePayload: return "whole-payload";
    case FrameReason::kBase64Decoded: return "base64-decoded";
    case FrameReason::kEmulatedDecode: return "emulated-decode";
    case FrameReason::kEmulatedBehavior: return "emulated-behavior";
  }
  return "?";
}

void BinaryExtractor::extract(util::ByteView payload, std::vector<BinaryFrame>& frames) const {
  frames.clear();
  if (payload.empty()) return;

  if (options_.extract_all) {
    frames.push_back(BinaryFrame{util::Bytes(payload.begin(), payload.end()), 0,
                                 FrameReason::kWholePayload});
    return;
  }

  // 1. %u-encoded content: translate to its binary form. This is how the
  //    Code Red II vector reaches the disassembler.
  UnicodeDecodeResult uni = decode_u_escapes(payload);
  if (uni.escape_count >= kMinUnicodeEscapes) {
    frames.push_back(
        BinaryFrame{std::move(uni.decoded), uni.first_offset, FrameReason::kUnicodeDecoded});
  }

  // 2. Suspicious repetition: overflow filler; the exploit content sits
  //    at/after the run, so extract from the run's end.
  if (auto rep = longest_repetition(payload, kMinRepetition)) {
    const std::size_t from = rep->offset + rep->length;
    if (from < payload.size()) {
      frames.push_back(BinaryFrame{
          util::Bytes(payload.begin() + static_cast<std::ptrdiff_t>(from), payload.end()),
          from, FrameReason::kAfterRepetition});
    }
  }

  // 3. Variant NOP sled: extract from the sled start (the decoder and
  //    payload follow it).
  if (auto sled = longest_nop_sled(payload, kMinSled)) {
    frames.push_back(BinaryFrame{
        util::Bytes(payload.begin() + static_cast<std::ptrdiff_t>(sled->offset),
                    payload.end()),
        sled->offset, FrameReason::kNopSled});
  }

  // 4. Return-address region (Figure 4): repeated 4-byte addresses whose
  //    low byte varies mark the overwrite; the shellcode precedes it, so
  //    extract everything up to the region.
  if (auto ret = longest_return_region(payload, kMinReturnAddresses)) {
    if (ret->offset > 0) {
      frames.push_back(BinaryFrame{
          util::Bytes(payload.begin(),
                      payload.begin() + static_cast<std::ptrdiff_t>(ret->offset)),
          0, FrameReason::kReturnRegion});
    }
  }

  // 5. Base64/MIME attachment: translate to binary (email-worm vector).
  if (auto b64 = find_base64_region(payload, kMinBase64Encoded, kMinBase64Decoded)) {
    frames.push_back(
        BinaryFrame{std::move(b64->decoded), b64->offset, FrameReason::kBase64Decoded});
  }

  // 6. Dense binary region inside an otherwise textual payload.
  if (auto bin = longest_binary_region(payload, kMinBinaryRegion)) {
    // Extend to the payload end: decoders frequently trail their encoded
    // data, and the semantic stage is cheap once a frame is this small.
    frames.push_back(BinaryFrame{
        util::Bytes(payload.begin() + static_cast<std::ptrdiff_t>(bin->offset),
                    payload.end()),
        bin->offset, FrameReason::kBinaryRegion});
  }
}

}  // namespace senids::extract
