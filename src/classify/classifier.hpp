// Traffic classification (Section 4.1): decide which packets are
// "interesting" before the expensive stages run. Two schemes, exactly as
// in the paper:
//   1. Honeypot: traffic to registered decoy addresses taints the sender.
//   2. Dark space: a source that keeps probing unused addresses is
//      counted (n) and becomes suspicious at a threshold (t).
//
// Configuration vs. state: the honeypot registry, dark prefixes, and
// options are *configuration* — registered before traffic flows and
// read-only after. The taint set and the per-source probe counters are
// *state* — mutated per packet. Each pipeline shard owns one classifier
// built by with_empty_state() from the engine's configuration, so every
// source's state has exactly one owner and the packet hot path needs no
// cross-shard synchronization.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/packet.hpp"

namespace senids::classify {

/// CIDR prefix of unused address space.
struct Prefix {
  net::Ipv4Addr base;
  std::uint8_t bits = 32;

  [[nodiscard]] bool contains(net::Ipv4Addr addr) const noexcept {
    if (bits == 0) return true;
    const std::uint32_t mask = bits >= 32 ? 0xffffffffu : ~((1u << (32 - bits)) - 1);
    return (addr.value & mask) == (base.value & mask);
  }
};

class HoneypotRegistry {
 public:
  void add_decoy(net::Ipv4Addr addr) { decoys_.insert(addr.value); }
  [[nodiscard]] bool is_decoy(net::Ipv4Addr addr) const {
    return decoys_.contains(addr.value);
  }
  [[nodiscard]] std::size_t size() const noexcept { return decoys_.size(); }

 private:
  std::unordered_set<std::uint32_t> decoys_;
};

/// Bounded per-source dark-space probe counters. A spoofed-source flood
/// would otherwise grow the table one entry per forged address, so past
/// `max_sources` live entries the least-recently-probed source is
/// evicted (its count resets if it probes again — an attacker cycling
/// more addresses than the cap trades taint progress for table space).
/// 0 = unbounded.
class DarkSpaceCounters {
 public:
  explicit DarkSpaceCounters(std::size_t max_sources = 0) : max_sources_(max_sources) {}

  /// Bump (and LRU-refresh) the probe count for `src`; returns the new
  /// count. Evicts the coldest source first when the cap is exceeded.
  std::size_t increment(std::uint32_t src);

  [[nodiscard]] std::size_t count(std::uint32_t src) const {
    auto it = counts_.find(src);
    return it == counts_.end() ? 0 : it->second.count;
  }
  DarkSpaceCounters(DarkSpaceCounters&&) = default;
  DarkSpaceCounters& operator=(DarkSpaceCounters&&) = default;
  // Move-only: the map holds iterators into lru_, so a copied table would
  // splice nodes out of the source's list.
  DarkSpaceCounters(const DarkSpaceCounters&) = delete;
  DarkSpaceCounters& operator=(const DarkSpaceCounters&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return counts_.size(); }
  /// Sources evicted to enforce the cap since construction.
  [[nodiscard]] std::size_t evictions() const noexcept { return evictions_; }

 private:
  struct Entry {
    std::size_t count = 0;
    std::list<std::uint32_t>::iterator lru_pos;
  };
  std::size_t max_sources_;
  std::size_t evictions_ = 0;
  std::list<std::uint32_t> lru_;  // front = least recently probed
  std::unordered_map<std::uint32_t, Entry> counts_;
};

/// Dark-space scheme: the prefix list and threshold are configuration;
/// the probe counters are state.
class DarkSpaceDetector {
 public:
  explicit DarkSpaceDetector(std::size_t threshold = 5, std::size_t max_sources = 0)
      : threshold_(threshold), counters_(max_sources) {}

  void add_unused_prefix(Prefix p) { prefixes_.push_back(p); }
  [[nodiscard]] bool is_unused(net::Ipv4Addr addr) const {
    for (const Prefix& p : prefixes_) {
      if (p.contains(addr)) return true;
    }
    return false;
  }
  [[nodiscard]] const std::vector<Prefix>& prefixes() const noexcept { return prefixes_; }

  /// Record one probe to an unused address; returns the source's count n.
  std::size_t record_probe(net::Ipv4Addr src) { return counters_.increment(src.value); }

  [[nodiscard]] std::size_t count(net::Ipv4Addr src) const {
    return counters_.count(src.value);
  }
  [[nodiscard]] std::size_t threshold() const noexcept { return threshold_; }
  /// Sources with a live probe counter (bounded by the cap).
  [[nodiscard]] std::size_t tracked_sources() const noexcept { return counters_.size(); }
  /// Sources evicted to enforce the counter cap.
  [[nodiscard]] std::size_t evictions() const noexcept { return counters_.evictions(); }

 private:
  std::size_t threshold_;
  std::vector<Prefix> prefixes_;
  DarkSpaceCounters counters_;
};

enum class Verdict : std::uint8_t { kIgnore, kAnalyze };

/// The two detection methods have no switch of their own: a classifier
/// with no decoys registered never taints by the honeypot method, and one
/// with no dark prefixes never taints by the dark-space method.
struct ClassifierOptions {
  std::size_t dark_space_threshold = 5;
  /// Cap on live per-source dark-space counters (LRU eviction past it;
  /// see DarkSpaceCounters). 0 = unbounded. The default bounds the table
  /// at ~16 MB under a spoofed-source flood while being far above any
  /// honest source population.
  std::size_t dark_space_max_sources = 1u << 20;
  /// Disable classification entirely — every packet is analyzed (the
  /// Section 5.4 false-positive configuration).
  bool analyze_everything = false;
};

/// Stateful classifier. observe() must see every packet in order; it
/// returns the verdict for that packet. Sources stay tainted for the
/// remainder of the run (the paper takes "further action ... against the
/// offending IP address").
///
/// Two usage shapes:
///  - Configuration: register decoys and dark prefixes on the engine's
///    classifier (NidsEngine::classifier()) before traffic flows. The
///    engine never feeds that instance.
///  - State: every pipeline shard owns a with_empty_state() copy and is
///    its only caller, so one thread owns each source's taint and probe
///    counts. A standalone classifier works the same way.
class TrafficClassifier {
 public:
  explicit TrafficClassifier(ClassifierOptions options = ClassifierOptions{});

  /// This classifier's configuration (options, decoys, dark prefixes)
  /// with no taint and no probe counts.
  [[nodiscard]] TrafficClassifier with_empty_state() const;

  HoneypotRegistry& honeypots() noexcept { return honeypots_; }
  DarkSpaceDetector& dark_space() noexcept { return dark_space_; }

  Verdict observe(const net::ParsedPacket& pkt);

  /// Verdict without state update (used for reassembled datagrams, whose
  /// fragments were already observed individually).
  [[nodiscard]] Verdict check(const net::ParsedPacket& pkt) const {
    if (options_.analyze_everything) return Verdict::kAnalyze;
    return tainted_.contains(pkt.ip.src.value) ? Verdict::kAnalyze : Verdict::kIgnore;
  }

  [[nodiscard]] bool is_tainted(net::Ipv4Addr src) const {
    return tainted_.contains(src.value);
  }
  [[nodiscard]] std::size_t tainted_count() const noexcept { return tainted_.size(); }
  [[nodiscard]] const ClassifierOptions& options() const noexcept { return options_; }

 private:
  ClassifierOptions options_;
  HoneypotRegistry honeypots_;
  DarkSpaceDetector dark_space_;
  std::unordered_set<std::uint32_t> tainted_;
};

}  // namespace senids::classify
