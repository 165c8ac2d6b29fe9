// openSAGE -- compiled Alter: the bytecode chunk.
//
// The resolver/compiler (alter/compiler.hpp) lowers a read program into
// a Chunk -- a flat opcode stream plus a constant pool, a parallel line
// table for error attribution, and the prototypes of nested lambdas.
// The stack VM (alter/vm.hpp) executes chunks against slot-indexed
// environment frames; a closure is a (chunk, captured frame) pair.
//
// Variable coordinates: lexically resolved variables are addressed as
// (depth, slot), where depth counts environment frames outward from the
// innermost one and slot indexes into that frame. Names that resolve to
// no lexical scope compile to by-name global accesses against the
// interpreter's global Environment, which is how builtins and
// top-level (define ...)s keep their late-bound map semantics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alter/value.hpp"

namespace sage::alter {

enum class Op : std::uint8_t {
  kConst,        // a: constant index             -> push constants[a]
  kNil,          //                               -> push nil
  kPop,          //                               -> drop top of stack
  kGetLocal,     // a: depth, b: slot             -> push frame value
  kSetLocal,     // a: depth, b: slot             -> pop into frame slot
  kGetGlobal,    // a: constant index (symbol)    -> push global lookup
  kSetGlobal,    // a: constant index (symbol)    -> pop, set! semantics
  kDefGlobal,    // a: constant index (symbol)    -> pop, define semantics
  kJump,         // a: target ip
  kJumpIfFalse,  // a: target ip                  -> pop, jump when falsy
  kJumpIfFalsePeek,  // a: target ip              -> peek, jump when falsy
  kJumpIfTruePeek,   // a: target ip              -> peek, jump when truthy
  kPushFrame,    // a: slot count                 -> enter a child frame
  kPopFrame,     //                               -> leave to parent frame
  kClosure,      // a: proto index                -> push closure over env
  kCall,         // a: argc; stack: callee args...-> push call result
  kReturn,       //                               -> pop VM call frame
  kIterNext,     // a: exit ip, b: list slot, c: var slot (index at b+1)
  kRangeNext,    // a: exit ip, b: counter slot (limit at b+1), c: var slot
};

/// One fixed-width instruction. 32-bit operands keep jump targets and
/// pool indices unbounded by script size.
struct Instruction {
  Op op;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
};

/// A compiled program unit: the top-level script or one lambda body.
struct Chunk {
  std::string name;  // "script", lambda name, "" when anonymous

  // Callable shape (top-level chunks take no parameters).
  std::vector<std::string> params;
  std::string rest_param;  // empty when no &rest tail
  // Frame slots the arguments land in. Usually param_slots[i] == i, but
  // duplicate parameter names share a slot (the later binding wins).
  std::vector<int> param_slots;
  int rest_slot = -1;      // slot of the &rest list; -1 when absent
  int slot_count = 0;      // frame size: params + rest + hoisted defines

  std::vector<Instruction> code;
  std::vector<int> lines;  // parallel to code; 0 = unknown
  ValueList constants;
  std::vector<std::shared_ptr<const Chunk>> protos;  // nested lambdas

  int line_at(std::size_t ip) const {
    return ip < lines.size() ? lines[ip] : 0;
  }
};

using ChunkPtr = std::shared_ptr<const Chunk>;

/// A slot-indexed environment frame. Frames chain to their parent, are
/// heap-shared, and stay alive while any closure captures them -- which
/// is exactly how (set!) through a captured frame stays visible to
/// every closure over the same scope.
struct Frame {
  explicit Frame(std::shared_ptr<Frame> parent_frame, int slots)
      : parent(std::move(parent_frame)), values(static_cast<std::size_t>(slots)) {}

  std::shared_ptr<Frame> parent;
  std::vector<Value> values;
};

using FramePtr = std::shared_ptr<Frame>;

/// A compiled user function: the chunk plus the frame chain it closed
/// over (its upvalues).
struct Closure {
  ChunkPtr chunk;
  FramePtr env;
};

/// Human-readable listing of a chunk (and, recursively, its nested
/// lambda prototypes): constants, then one line per instruction with
/// resolved operand comments. Surfaced as `sagec alter --disasm`.
std::string disassemble(const Chunk& chunk);

}  // namespace sage::alter
