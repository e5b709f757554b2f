#include "obs/flight_recorder.hpp"

#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/pipeline.hpp"
#include "util/sync.hpp"

namespace senids::obs {

namespace {

using SteadyClock = std::chrono::steady_clock;

#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void append_format(std::string& out, const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list measured;
  va_copy(measured, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, measured);
  va_end(measured);
  if (n > 0) {
    const std::size_t old = out.size();
    out.resize(old + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + old, static_cast<std::size_t>(n) + 1, fmt, args);
    out.resize(old + static_cast<std::size_t>(n));
  }
  va_end(args);
}

constexpr std::size_t kWords = 8;

std::uint16_t fold16(std::uint64_t w) noexcept {
  w ^= w >> 32;
  w ^= w >> 16;
  return static_cast<std::uint16_t>(w & 0xffff);
}

/// Pack a record into 8 words. w7 carries a 16-bit fold checksum over
/// the other words plus its own payload bits, so a reader can reject a
/// torn slot even if the seqlock validation races.
std::array<std::uint64_t, kWords> pack(const UnitRecord& r) noexcept {
  std::array<std::uint64_t, kWords> w{};
  w[0] = r.unit_id;
  w[1] = r.ts_us;
  w[2] = std::uint64_t{r.src} | (std::uint64_t{r.payload_bytes} << 32);
  w[3] = std::uint64_t{r.frames} | (std::uint64_t{r.alerts} << 32);
  w[4] = std::uint64_t{r.extract_us} | (std::uint64_t{r.disasm_us} << 32);
  w[5] = std::uint64_t{r.lift_us} | (std::uint64_t{r.match_us} << 32);
  w[6] = std::uint64_t{r.emulate_us} | (std::uint64_t{r.total_us} << 32);
  w[7] = std::uint64_t{r.worker} |
         (std::uint64_t{static_cast<std::uint8_t>(r.cache)} << 32);
  std::uint16_t sum = 0;
  for (std::size_t i = 0; i < kWords; ++i) sum ^= fold16(w[i]);
  sum ^= 0xa5a5;  // an all-zero slot must not look like a valid record
  w[7] |= std::uint64_t{sum} << 40;
  return w;
}

bool unpack(const std::array<std::uint64_t, kWords>& w, UnitRecord& r) noexcept {
  const std::uint16_t stored = static_cast<std::uint16_t>(w[7] >> 40);
  std::uint16_t sum = 0;
  for (std::size_t i = 0; i < kWords - 1; ++i) sum ^= fold16(w[i]);
  sum ^= fold16(w[7] & ((std::uint64_t{1} << 40) - 1));
  sum ^= 0xa5a5;
  if (sum != stored) return false;
  r.unit_id = w[0];
  r.ts_us = w[1];
  r.src = static_cast<std::uint32_t>(w[2]);
  r.payload_bytes = static_cast<std::uint32_t>(w[2] >> 32);
  r.frames = static_cast<std::uint32_t>(w[3]);
  r.alerts = static_cast<std::uint32_t>(w[3] >> 32);
  r.extract_us = static_cast<std::uint32_t>(w[4]);
  r.disasm_us = static_cast<std::uint32_t>(w[4] >> 32);
  r.lift_us = static_cast<std::uint32_t>(w[5]);
  r.match_us = static_cast<std::uint32_t>(w[5] >> 32);
  r.emulate_us = static_cast<std::uint32_t>(w[6]);
  r.total_us = static_cast<std::uint32_t>(w[6] >> 32);
  r.worker = static_cast<std::uint32_t>(w[7]);
  r.cache = static_cast<CacheDisposition>((w[7] >> 32) & 0xff);
  return true;
}

/// One seqlock-guarded slot. seq == 0 means never written; odd means a
/// write is in flight; even > 0 means stable. All accesses are atomic,
/// so racing reads are well-defined; torn ones fail seq or checksum.
/// The ordering needs no fence: the writer stores each word with release
/// after its odd seq, so a reader whose acquire load sees a new word also
/// sees the odd seq on its re-check; the writer's even seq is released
/// after the words, so a reader that acquires it sees them all. On x86
/// both are plain moves.
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::array<std::atomic<std::uint64_t>, kWords> w{};

  void write(const UnitRecord& r) noexcept {
    const auto packed = pack(r);
    const std::uint64_t s = seq.load(std::memory_order_relaxed);
    seq.store(s + 1, std::memory_order_relaxed);
    for (std::size_t i = 0; i < kWords; ++i) {
      w[i].store(packed[i], std::memory_order_release);
    }
    seq.store(s + 2, std::memory_order_release);
  }

  [[nodiscard]] bool read(UnitRecord& r) const noexcept {
    for (int attempt = 0; attempt < 4; ++attempt) {
      const std::uint64_t s1 = seq.load(std::memory_order_acquire);
      if (s1 == 0 || (s1 & 1)) return false;  // unwritten or mid-write
      std::array<std::uint64_t, kWords> copy{};
      for (std::size_t i = 0; i < kWords; ++i) {
        copy[i] = w[i].load(std::memory_order_acquire);
      }
      const std::uint64_t s2 = seq.load(std::memory_order_relaxed);
      if (s1 == s2 && unpack(copy, r)) return true;
    }
    return false;
  }
};

/// Single-writer ring of Slots plus the writer's private cursor. The
/// head is atomic only so scrapers can read it.
struct Ring {
  explicit Ring(std::size_t n, std::uint32_t idx) : slots(n), index(idx) {}
  std::vector<Slot> slots;
  std::atomic<std::uint64_t> head{0};  // next write position (monotonic)
  std::uint32_t index = 0;
  std::uint32_t since_refresh = 0;  // writer-private refresh countdown
};

std::atomic<bool> g_enabled{false};

}  // namespace

std::string_view cache_disposition_name(CacheDisposition d) noexcept {
  switch (d) {
    case CacheDisposition::kHit: return "hit";
    case CacheDisposition::kMiss: return "miss";
    case CacheDisposition::kBypass: return "bypass";
    case CacheDisposition::kNone: break;
  }
  return "none";
}

struct FlightRecorder::Impl {
  const SteadyClock::time_point epoch = SteadyClock::now();
  // Guards the options/rings *structure*, never the record path (writers
  // go through per-thread rings and atomics; collectors copy raw ring
  // pointers out under mu and then read via the seqlock protocol).
  mutable util::Mutex mu{"FlightRecorder"};
  Options options GUARDED_BY(mu);
  std::atomic<std::uint64_t> generation{0};
  std::vector<std::unique_ptr<Ring>> rings GUARDED_BY(mu);
  // Multi-writer slow buffer: slots claimed by fetch_add on slow_head.
  std::vector<std::unique_ptr<Slot>> slow_slots GUARDED_BY(mu);
  std::atomic<std::uint64_t> slow_head{0};
  std::atomic<std::uint64_t> slow_threshold_ns{0};

  [[nodiscard]] std::uint64_t now_us() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(SteadyClock::now() -
                                                              epoch)
            .count());
  }
};

FlightRecorder::FlightRecorder() : impl_(new Impl) {}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

bool FlightRecorder::enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

FlightRecorder::Options FlightRecorder::options() const {
  util::MutexLock lock(impl_->mu);
  return impl_->options;
}

void FlightRecorder::configure(const Options& options) {
  util::MutexLock lock(impl_->mu);
  impl_->options = options;
  impl_->rings.clear();
  impl_->slow_slots.clear();
  const std::size_t slow_n = options.slots ? std::max<std::size_t>(1, options.slow_slots) : 0;
  impl_->slow_slots.reserve(slow_n);
  for (std::size_t i = 0; i < slow_n; ++i) {
    impl_->slow_slots.push_back(std::make_unique<Slot>());
  }
  impl_->slow_head.store(0, std::memory_order_relaxed);
  impl_->slow_threshold_ns.store(
      static_cast<std::uint64_t>(options.slow_floor_seconds * 1e9),
      std::memory_order_relaxed);
  impl_->generation.fetch_add(1, std::memory_order_release);
  g_enabled.store(options.slots > 0, std::memory_order_relaxed);
}

double FlightRecorder::slow_threshold_seconds() const noexcept {
  return static_cast<double>(impl_->slow_threshold_ns.load(std::memory_order_relaxed)) *
         1e-9;
}

void FlightRecorder::refresh_slow_threshold() noexcept {
  double floor_s;
  double mult;
  {
    util::MutexLock lock(impl_->mu);
    floor_s = impl_->options.slow_floor_seconds;
    mult = impl_->options.slow_multiplier;
  }
  const Histogram::Snapshot snap = pipeline_metrics().unit_seconds->snapshot();
  double threshold = floor_s;
  if (snap.count >= 16) {  // too few samples: stick to the floor
    threshold = std::max(floor_s, mult * snap.quantile(0.95));
  }
  impl_->slow_threshold_ns.store(static_cast<std::uint64_t>(threshold * 1e9),
                                 std::memory_order_relaxed);
}

namespace {

/// The calling thread's ring for the current configuration generation.
/// Binding takes the structure mutex once per thread per configure().
struct TlBinding {
  std::uint64_t generation = 0;
  Ring* ring = nullptr;
};

}  // namespace

void FlightRecorder::record(const UnitRecord& rec) noexcept {
  if (!enabled() || !metrics_enabled()) return;
  Impl& im = *impl_;
  thread_local TlBinding tl;
  const std::uint64_t gen = im.generation.load(std::memory_order_acquire);
  if (tl.generation != gen || tl.ring == nullptr) {
    util::MutexLock lock(im.mu);
    if (im.options.slots == 0) return;  // raced a disable
    im.rings.push_back(std::make_unique<Ring>(
        im.options.slots, static_cast<std::uint32_t>(im.rings.size())));
    tl.ring = im.rings.back().get();
    tl.generation = im.generation.load(std::memory_order_relaxed);
  }
  Ring& ring = *tl.ring;
  UnitRecord r = rec;
  r.worker = ring.index;
  r.ts_us = im.now_us();
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  ring.slots[head % ring.slots.size()].write(r);
  ring.head.store(head + 1, std::memory_order_release);

  if (++ring.since_refresh >= 256) {
    ring.since_refresh = 0;
    refresh_slow_threshold();
  }
  const std::uint64_t threshold_ns =
      im.slow_threshold_ns.load(std::memory_order_relaxed);
  if (std::uint64_t{r.total_us} * 1000 > threshold_ns) {
    // Unguarded-field finding from the thread-safety annotation pass:
    // this branch used to index slow_slots without im.mu, racing a
    // concurrent configure() that swaps the vector out under it. Taking
    // the lock here is fine — only slow outliers (above the rolling p95
    // threshold) ever reach this branch, never the per-unit fast path.
    util::MutexLock lock(im.mu);
    if (!im.slow_slots.empty()) {
      const std::uint64_t slow_head = im.slow_head.fetch_add(1, std::memory_order_relaxed);
      im.slow_slots[slow_head % im.slow_slots.size()]->write(r);
    }
  }
}

std::vector<UnitRecord> FlightRecorder::recent() const {
  std::vector<Ring*> rings;
  {
    util::MutexLock lock(impl_->mu);
    rings.reserve(impl_->rings.size());
    for (const auto& r : impl_->rings) rings.push_back(r.get());
  }
  std::vector<UnitRecord> out;
  for (Ring* ring : rings) {
    const std::size_t n = ring->slots.size();
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t first = head > n ? head - n : 0;
    for (std::uint64_t i = first; i < head; ++i) {
      UnitRecord r;
      if (ring->slots[i % n].read(r)) out.push_back(r);
    }
  }
  return out;
}

std::vector<UnitRecord> FlightRecorder::slow(bool clear) {
  std::vector<Slot*> slots;
  {
    util::MutexLock lock(impl_->mu);
    slots.reserve(impl_->slow_slots.size());
    for (const auto& s : impl_->slow_slots) slots.push_back(s.get());
  }
  std::vector<UnitRecord> out;
  if (slots.empty()) return out;
  const std::uint64_t head = impl_->slow_head.load(std::memory_order_acquire);
  const std::uint64_t n = slots.size();
  const std::uint64_t first = head > n ? head - n : 0;
  for (std::uint64_t i = first; i < head; ++i) {
    UnitRecord r;
    if (slots[i % n]->read(r)) out.push_back(r);
  }
  if (clear) {
    for (Slot* s : slots) s->seq.store(0, std::memory_order_relaxed);
    impl_->slow_head.store(0, std::memory_order_relaxed);
  }
  return out;
}

void FlightRecorder::reset() {
  util::MutexLock lock(impl_->mu);
  // Bump the generation so bound threads re-register; dropping the rings
  // drops their contents.
  impl_->rings.clear();
  for (auto& s : impl_->slow_slots) s->seq.store(0, std::memory_order_relaxed);
  impl_->slow_head.store(0, std::memory_order_relaxed);
  impl_->slow_threshold_ns.store(
      static_cast<std::uint64_t>(impl_->options.slow_floor_seconds * 1e9),
      std::memory_order_relaxed);
  impl_->generation.fetch_add(1, std::memory_order_release);
}

namespace {

void append_record_json(std::string& out, const UnitRecord& r) {
  append_format(
      out,
      "{\"unit_id\": %llu, \"ts_us\": %llu, \"src\": \"%u.%u.%u.%u\", "
      "\"bytes\": %u, \"frames\": %u, \"alerts\": %u, \"worker\": %u, "
      "\"cache\": \"%s\", \"extract_us\": %u, \"disasm_us\": %u, "
      "\"lift_us\": %u, \"match_us\": %u, \"emulate_us\": %u, \"total_us\": %u}",
      static_cast<unsigned long long>(r.unit_id),
      static_cast<unsigned long long>(r.ts_us), (r.src >> 24) & 0xff,
      (r.src >> 16) & 0xff, (r.src >> 8) & 0xff, r.src & 0xff, r.payload_bytes,
      r.frames, r.alerts, r.worker,
      std::string(cache_disposition_name(r.cache)).c_str(), r.extract_us,
      r.disasm_us, r.lift_us, r.match_us, r.emulate_us, r.total_us);
}

}  // namespace

std::string FlightRecorder::json() const {
  std::string out = "{\n";
  Options opts = options();
  append_format(out, "  \"enabled\": %s,\n", enabled() ? "true" : "false");
  append_format(out, "  \"slots\": %zu,\n  \"slow_slots\": %zu,\n", opts.slots,
                opts.slow_slots);
  append_format(out, "  \"slow_threshold_us\": %.3f,\n",
                slow_threshold_seconds() * 1e6);
  out += "  \"recent\": [\n";
  const std::vector<UnitRecord> rec = recent();
  for (std::size_t i = 0; i < rec.size(); ++i) {
    out += "    ";
    append_record_json(out, rec[i]);
    out += i + 1 < rec.size() ? ",\n" : "\n";
  }
  out += "  ],\n  \"slow\": [\n";
  // const_cast-free read: slow(false) does not mutate, but is non-const
  // because of the clear option; route through instance().
  const std::vector<UnitRecord> slow_rec = FlightRecorder::instance().slow(false);
  for (std::size_t i = 0; i < slow_rec.size(); ++i) {
    out += "    ";
    append_record_json(out, slow_rec[i]);
    out += i + 1 < slow_rec.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace senids::obs
