// openSAGE -- the Alter interpreter.
//
// Alter source is read, compiled to a bytecode Chunk
// (alter/compiler.hpp) and run on the stack VM (alter/vm.hpp); that is
// the only way Alter executes. Special forms:
//   (quote x) / 'x          (if c a b?)          (cond (c e...)... (else e...))
//   (define name expr)      (define (f a b) ...) (set! name expr)
//   (lambda (a b) ...)      (lambda (a &rest r) ...)
//   (let ((a 1) (b 2)) ...) (let* (...) ...)     (begin e...)
//   (while cond e...)       (and e...) (or e...) (when c e...) (unless c e...)
//   (dolist (x list) e...)  (dotimes (i n) e...)
//
// This class owns what a run needs besides the code: the global
// environment the builtins are installed in, the emit-stream table the
// glue-code generator writes source files into ((set-output "file.c")
// selects the current stream, (emit ...) / (emit-line ...) append to
// it), the (print ...) log, and an optional model root for
// (model-root) and the traversal builtins.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "alter/chunk.hpp"
#include "alter/env.hpp"
#include "alter/value.hpp"

namespace sage::model {
class ModelObject;
}

namespace sage::alter {

class Interpreter {
 public:
  /// Creates an interpreter with all core and model builtins installed.
  Interpreter();

  Environment& global_env() { return global_; }

  /// Attaches the model the traversal builtins operate on. The object
  /// must outlive the interpreter's use of it.
  void attach_model(model::ModelObject& root) { model_root_ = &root; }
  model::ModelObject* model_root() const { return model_root_; }

  // --- evaluation -----------------------------------------------------------
  /// Compiles `source` and runs it against the global environment;
  /// returns the last expression's value.
  Value eval_string(std::string_view source);

  /// Compiles `source` to a chunk without executing it.
  ChunkPtr compile(std::string_view source, std::string name = "script") const;
  /// Runs a compiled chunk on the stack VM against the global environment.
  Value execute(const ChunkPtr& chunk);

  /// Calls a callable value (builtin or compiled closure) with arguments.
  Value apply(const Value& callable, ValueList args);

  // --- emit streams -----------------------------------------------------------
  /// Selects (creating if needed) the current output stream.
  void set_output(std::string name);
  const std::string& current_output_name() const { return current_output_; }
  void emit(std::string_view text);
  /// All streams written during evaluation, keyed by name.
  const std::map<std::string, std::string>& outputs() const { return outputs_; }
  void clear_outputs();

  /// Values printed by (print ...) -- captured for tests and tools.
  const std::string& print_log() const { return print_log_; }
  void print(std::string_view text) { print_log_ += text; }

 private:
  Environment global_;
  model::ModelObject* model_root_ = nullptr;
  std::map<std::string, std::string> outputs_;
  std::string current_output_ = "default";
  std::string print_log_;
  int depth_ = 0;
};

/// Installs the arithmetic/list/string builtins (called by the
/// constructor).
void install_core_builtins(Environment& env);

/// Installs the model-traversal and emit builtins.
void install_model_builtins(Environment& env);

}  // namespace sage::alter
