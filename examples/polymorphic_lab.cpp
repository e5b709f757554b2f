// Polymorphic lab: generate ADMmutate/Clet instances, show what the
// obfuscation does to the bytes, and trace one instance through the
// pipeline — disassembly, execution-order linearization, lifted events,
// and the template match with its recovered key.
//
//   $ ./polymorphic_lab [seed]
#include <cstdio>
#include <cstdlib>

#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "ir/deadcode.hpp"
#include "ir/lifter.hpp"
#include "semantic/library.hpp"
#include "util/hexdump.hpp"
#include "arch/format.hpp"
#include "arch/arch.hpp"

using namespace senids;

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2006;
  util::Prng prng(seed);

  const auto payload = gen::make_shell_spawn_corpus()[1].code;
  std::printf("== plain payload (%zu bytes): push-builder execve shellcode ==\n",
              payload.size());
  std::printf("%s\n", util::hexdump(payload).c_str());

  gen::PolyResult poly = gen::admmutate_encode(payload, prng);
  std::printf("== ADMmutate instance (seed %llu) ==\n",
              static_cast<unsigned long long>(seed));
  std::printf("scheme: %s   key: 0x%02x   sled: %zu bytes   total: %zu bytes\n\n",
              poly.scheme == gen::DecoderScheme::kXor ? "xor" : "mov/or/and/not",
              poly.key, poly.sled_len, poly.bytes.size());
  std::printf("%s\n", util::hexdump(poly.bytes).c_str());

  // Execution-order disassembly from the sled entry, with the junk the
  // engine injected flagged by the dead-code analysis.
  std::printf("== execution-order trace (out-of-order linearized; junk marked) ==\n");
  const arch::Arch& isa = arch::Arch::x86_32();
  arch::ScanScratch scratch;
  std::vector<arch::Instruction> trace;
  isa.execution_trace(poly.bytes, 0, 4096, trace, scratch);
  auto junk_marks = ir::find_dead_code(trace);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    std::printf("%08zx:  %-36s%s\n", std::size_t{trace[i].offset},
                arch::format(trace[i]).c_str(), junk_marks.dead[i] ? " ; junk" : "");
  }
  std::printf("(%zu of %zu instructions are junk)\n\n", junk_marks.dead_count,
              trace.size());

  // Lift and show the semantically relevant events.
  ir::LiftResult lifted;
  ir::lift(trace, lifted);
  std::printf("== lifted memory-write events ==\n");
  for (const auto& ev : lifted.events) {
    if (ev.kind != ir::EventKind::kMemWrite) continue;
    std::printf("  @%04x  mem%u[%s] := %s\n", ev.insn_offset, ev.width,
                ir::to_string(ev.addr).c_str(), ir::to_string(ev.value).c_str());
  }

  // Template matching.
  std::printf("\n== template matching ==\n");
  semantic::LiftedCode lc{&trace, &lifted.events, poly.bytes};
  for (const auto& t : semantic::make_decoder_library()) {
    auto m = semantic::match_template(t, lc);
    if (!m) {
      std::printf("  %-28s no match\n", t.name.c_str());
      continue;
    }
    std::uint32_t key = 0;
    bool have_key = false;
    if (auto it = m->bindings.find("K"); it != m->bindings.end()) {
      have_key = ir::is_const(it->second, &key);
    }
    if (have_key) {
      std::printf("  %-28s MATCH, recovered key 0x%02x (engine used 0x%02x)\n",
                  t.name.c_str(), key, poly.key);
    } else {
      std::printf("  %-28s MATCH\n", t.name.c_str());
    }
  }

  // A Clet instance for contrast.
  std::printf("\n== Clet instance (same payload) ==\n");
  gen::PolyResult clet = gen::clet_encode(payload, prng);
  arch::ScanScratch clet_scratch;
  std::vector<arch::Instruction> clet_trace;
  isa.execution_trace(clet.bytes, 0, 4096, clet_trace, clet_scratch);
  ir::lift(clet_trace, lifted);  // reuses the buffers of the first lift
  semantic::LiftedCode clet_lc{&clet_trace, &lifted.events, clet.bytes};
  auto m = semantic::match_template(semantic::builtin_template("xor-decrypt-loop"), clet_lc);
  std::printf("xor template on Clet instance: %s\n", m ? "MATCH" : "no match");
  return 0;
}
