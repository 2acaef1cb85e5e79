#include "fgq/vm/program.h"

namespace fgq {
namespace vm {

const char* OpName(Op op) {
  switch (op) {
    case Op::kInitRoot:
      return "init_root";
    case Op::kProbe1:
      return "probe1";
    case Op::kProbe2:
      return "probe2";
    case Op::kProbeN:
      return "probeN";
    case Op::kEmit:
      return "emit";
    case Op::kEmitNullary:
      return "emit_nullary";
    case Op::kAdvance:
      return "advance";
    case Op::kHalt:
      return "halt";
  }
  return "unknown";
}

namespace {

void ListCode(const std::vector<Insn>& code, const char* title,
              std::string* out) {
  *out += title;
  *out += ":\n";
  for (size_t pc = 0; pc < code.size(); ++pc) {
    const Insn& in = code[pc];
    std::string line = "  " + std::to_string(pc) + ": " + OpName(in.op);
    switch (in.op) {
      case Op::kInitRoot:
      case Op::kProbe1:
      case Op::kProbe2:
      case Op::kProbeN:
      case Op::kAdvance:
        line += " node=" + std::to_string(in.arg);
        line += " -> " + std::to_string(in.jump);
        break;
      case Op::kEmit:
      case Op::kEmitNullary:
        line += " resume-> " + std::to_string(in.jump);
        break;
      case Op::kHalt:
        break;
    }
    *out += line + "\n";
  }
}

}  // namespace

std::string Program::Disassemble() const {
  std::string text = "program: " + source + "\n";
  text += "algorithm: " + algorithm + "\n";
  text += "nodes: " + std::to_string(nodes.size());
  text += "  arity: " + std::to_string(arity);
  if (is_boolean) text += "  boolean";
  if (empty) text += "  empty";
  text += "\n";
  for (size_t i = 0; i < nodes.size(); ++i) {
    const ProgramNode& n = nodes[i];
    text += "  node " + std::to_string(i) + ": ";
    if (n.index == nullptr) {
      text += "root candidates=" + std::to_string(n.root_count);
    } else {
      text += "probe parent=" + std::to_string(n.parent) +
              " key_arity=" + std::to_string(n.npcols) +
              " keys=" + std::to_string(n.index->NumKeys());
    }
    text += "\n";
  }
  if (!out.empty()) {
    text += "  out:";
    for (const OutSlot& s : out) {
      text += " (" + std::to_string(s.node) + "," + std::to_string(s.col) +
              ")";
    }
    text += "\n";
  }
  ListCode(code, "code", &text);
  return text;
}

}  // namespace vm
}  // namespace fgq
