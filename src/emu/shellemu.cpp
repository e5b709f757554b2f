#include "emu/shellemu.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "arch/arch.hpp"
#include "arch/scan.hpp"

namespace senids::emu {

namespace {

/// Process-wide sandbox counters. Per-stop-reason totals matter beyond
/// capacity planning: emulation-evasion work (arXiv:0906.1963) shows
/// step/bailout distributions are themselves a detection signal — code
/// engineered to exhaust or escape the sandbox skews them.
struct EmuMetrics {
  obs::Counter& frames;
  obs::Counter& runs;
  obs::Counter& steps;
  std::array<obs::Counter*, 9> stops;  // indexed by StopReason
};

EmuMetrics& emu_metrics() {
  auto& r = obs::Registry::instance();
  static EmuMetrics m = [&] {
    EmuMetrics e{
        r.counter("senids_emu_frames_total", "Frames handed to the sandbox"),
        r.counter("senids_emu_runs_total", "Sandbox runs (candidate entries tried)"),
        r.counter("senids_emu_steps_total", "Instructions executed in the sandbox"),
        {},
    };
    for (std::size_t i = 0; i < e.stops.size(); ++i) {
      e.stops[i] = &r.counter("senids_emu_stop_total",
                              "Sandbox runs ended, by stop reason", "reason",
                              stop_reason_name(static_cast<StopReason>(i)));
    }
    return e;
  }();
  return m;
}

}  // namespace

namespace {

// Vector the 64-bit `syscall` instruction is recorded under.
const std::uint16_t kSyscall64Vector =
    senids::arch::Arch::x86_64().syscall_conventions()[0].vector;

// Decode-run length that makes a candidate entry (the analyzer's default).
constexpr std::size_t kMinRunInsns = 6;

}  // namespace

bool EmulationResult::made_syscall() const {
  return std::any_of(syscalls.begin(), syscalls.end(), [](const EmulatedSyscall& s) {
    return s.vector == 0x80 || s.vector == kSyscall64Vector;
  });
}

bool EmulationResult::spawned_shell() const {
  for (const EmulatedSyscall& s : syscalls) {
    const bool execve32 = s.vector == 0x80 && (s.eax & 0xff) == 0x0b;
    const bool execve64 = s.vector == kSyscall64Vector && s.eax == 59;
    if (!execve32 && !execve64) continue;
    if (s.ebx_string.rfind("/bin", 0) == 0) return true;
  }
  return false;
}

bool EmulationResult::bound_port() const {
  // i386: socketcall socket(1) then bind(2) then listen(4), in order.
  static constexpr std::uint8_t kSequence[] = {1, 2, 4};
  std::size_t want = 0;
  // x86-64: direct socket(41) then bind(49) then listen(50), in order.
  static constexpr std::uint32_t kSequence64[] = {41, 49, 50};
  std::size_t want64 = 0;
  for (const EmulatedSyscall& s : syscalls) {
    if (s.vector == 0x80 && (s.eax & 0xff) == 0x66) {
      if ((s.ebx & 0xff) == kSequence[want] && ++want == std::size(kSequence)) {
        return true;
      }
    } else if (s.vector == kSyscall64Vector) {
      if (s.eax == kSequence64[want64] && ++want64 == std::size(kSequence64)) {
        return true;
      }
    }
  }
  return false;
}

EmulationResult emulate_entry(util::ByteView frame, std::size_t entry, arch::Mode mode) {
  EmulationResult result;
  result.entry = entry;
  if (entry >= frame.size()) {
    result.stop = StopReason::kUnmappedFetch;
    EmuMetrics& metrics = emu_metrics();
    metrics.runs.add();
    metrics.stops[static_cast<std::size_t>(result.stop)]->add();
    return result;
  }

  VirtualMemory mem(frame);
  Cpu cpu(mem, kFrameBase + static_cast<std::uint32_t>(entry), mode);

  std::uint32_t next_fd = 3;  // plausible kernel returns for socket-ish calls
  auto hook = [&](const SyscallRecord& rec) -> std::optional<std::uint32_t> {
    EmulatedSyscall s;
    s.vector = rec.vector;
    if (rec.vector == kSyscall64Vector) {
      // Normalize the x86-64 convention: number in rax, args rdi,rsi,rdx.
      s.eax = static_cast<std::uint32_t>(rec.reg(arch::RegFamily::kAx));
      s.ebx = static_cast<std::uint32_t>(rec.reg(arch::RegFamily::kDi));
      s.ecx = static_cast<std::uint32_t>(rec.reg(arch::RegFamily::kSi));
      s.edx = static_cast<std::uint32_t>(rec.reg(arch::RegFamily::kDx));
    } else {
      s.eax = static_cast<std::uint32_t>(rec.reg(arch::RegFamily::kAx));
      s.ebx = static_cast<std::uint32_t>(rec.reg(arch::RegFamily::kBx));
      s.ecx = static_cast<std::uint32_t>(rec.reg(arch::RegFamily::kCx));
      s.edx = static_cast<std::uint32_t>(rec.reg(arch::RegFamily::kDx));
    }
    if (auto str = mem.read_cstring(s.ebx)) s.ebx_string = *str;
    const bool execve = (rec.vector == 0x80 && (s.eax & 0xff) == 0x0b) ||
                        (rec.vector == kSyscall64Vector && s.eax == 59);
    const bool wants_fd = (rec.vector == 0x80 && (s.eax & 0xff) == 0x66) ||
                          (rec.vector == kSyscall64Vector &&
                           (s.eax == 41 || s.eax == 43));
    result.syscalls.push_back(std::move(s));
    if (result.syscalls.size() >= kMaxSyscalls) return std::nullopt;
    // execve does not return on success; stopping here mirrors reality
    // and keeps the trace clean.
    if (execve) return std::nullopt;
    if (wants_fd) return next_fd++;
    return 0;
  };

  result.stop = cpu.run(kMaxSteps, hook);
  result.steps = cpu.steps();
  result.frame_bytes_modified = mem.frame_bytes_modified();
  if (result.frame_bytes_modified > 0) {
    result.decoded_frame = mem.snapshot_frame();
  }
  EmuMetrics& metrics = emu_metrics();
  metrics.runs.add();
  metrics.steps.add(result.steps);
  const auto stop_index = static_cast<std::size_t>(result.stop);
  if (stop_index < metrics.stops.size()) metrics.stops[stop_index]->add();
  return result;
}

EmulationResult emulate_frame(util::ByteView frame, arch::Mode mode) {
  emu_metrics().frames.add();
  std::vector<arch::CodeRun> runs;
  arch::ScanScratch scratch;
  arch::Arch::of_mode(mode).find_code_runs(frame, kMinRunInsns, runs, scratch);

  EmulationResult best;
  auto better = [](const EmulationResult& a, const EmulationResult& b) {
    // Prefer syscall evidence, then self-modification, then longer runs.
    const auto score = [](const EmulationResult& r) {
      return std::tuple(r.made_syscall(), r.frame_bytes_modified, r.steps);
    };
    return score(a) > score(b);
  };

  std::size_t tried = 0;
  for (const auto& run : runs) {
    if (tried++ >= kMaxEntries) break;
    EmulationResult r = emulate_entry(frame, run.start, mode);
    if (better(r, best)) best = std::move(r);
    if (best.spawned_shell() || best.bound_port()) break;  // decisive
  }
  return best;
}

}  // namespace senids::emu
