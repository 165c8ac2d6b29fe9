// openSAGE -- the Alter resolver + bytecode compiler.
//
// Lowers a read program into an executable Chunk in one structured
// pass per scope:
//   1. classify -- each list form's head is classified as a special
//      form (the fixed set listed in alter/interp.hpp) or an
//      application;
//   2. resolve  -- lexical scopes become slot-indexed frames: binding
//      names (params, let bindings, loop variables, body defines) are
//      assigned slots up front, and every variable reference is
//      resolved to a (depth, slot) coordinate or falls back to a
//      late-bound global-by-name access;
//   3. emit     -- special forms lower to jumps and dedicated loop
//      opcodes, constants and symbols are interned into the chunk's
//      pool, and every instruction is tagged with the source line the
//      reader recorded for error attribution.
//
// Variable references resolve lexically at compile time: a reference
// names the binding visible where it is written, and a name bound in
// no enclosing scope is a global looked up when it runs. The language
// is specified in docs/ALTER.md; tests/alter_test.cpp and the golden
// files under tests/golden/ pin its behaviour.
#pragma once

#include <string>
#include <string_view>

#include "alter/chunk.hpp"
#include "alter/reader.hpp"

namespace sage::alter {

/// Compiles a read program. `map` (optional) supplies per-form source
/// lines for the chunk's line table; `name` labels the chunk in
/// disassembly and runtime error attribution.
ChunkPtr compile_program(const ValueList& program, const SourceMap* map,
                         std::string name);

/// Reads and compiles `source` in one step, threading reader source
/// positions into the chunk line table.
ChunkPtr compile_string(std::string_view source, std::string name = "script");

}  // namespace sage::alter
