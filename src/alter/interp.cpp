#include "alter/interp.hpp"

#include "alter/compiler.hpp"
#include "alter/vm.hpp"
#include "support/error.hpp"

namespace sage::alter {

namespace {

constexpr int kMaxDepth = 4000;

struct DepthGuard {
  explicit DepthGuard(int& depth) : depth_(depth) {
    if (++depth_ > kMaxDepth) {
      --depth_;
      raise<AlterError>("evaluation too deep (", kMaxDepth,
                        " nested evals); runaway recursion?");
    }
  }
  ~DepthGuard() { --depth_; }
  int& depth_;
};

}  // namespace

Interpreter::Interpreter() {
  install_core_builtins(global_);
  install_model_builtins(global_);
}

Value Interpreter::eval_string(std::string_view source) {
  return execute(compile(source));
}

ChunkPtr Interpreter::compile(std::string_view source, std::string name) const {
  return compile_string(source, std::move(name));
}

Value Interpreter::execute(const ChunkPtr& chunk) {
  VM vm(*this);
  return vm.execute(chunk);
}

Value Interpreter::apply(const Value& callable, ValueList args) {
  if (callable.is_builtin()) {
    const Builtin& fn = callable.as_builtin();
    try {
      return fn.fn(*this, args);
    } catch (const AlterError&) {
      throw;
    } catch (const Error& e) {
      raise<AlterError>("in builtin '", fn.name, "': ", e.what());
    }
  }
  if (callable.is_closure()) {
    // Compiled closure handed back through a builtin (map/filter/...):
    // run it on a nested VM. The depth guard bounds native re-entrancy.
    DepthGuard guard(depth_);
    VM vm(*this);
    return vm.call_closure(callable.as_closure(), std::move(args));
  }
  raise<AlterError>("not callable: ", callable.to_string());
}

void Interpreter::set_output(std::string name) {
  current_output_ = std::move(name);
  outputs_.try_emplace(current_output_);
}

void Interpreter::emit(std::string_view text) {
  outputs_[current_output_] += text;
}

void Interpreter::clear_outputs() {
  outputs_.clear();
  current_output_ = "default";
}

}  // namespace sage::alter
