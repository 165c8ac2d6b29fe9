#include "alter/vm.hpp"

#include <iterator>
#include <utility>

#include "alter/env.hpp"
#include "alter/interp.hpp"
#include "support/error.hpp"

namespace sage::alter {

Value VM::execute(const ChunkPtr& chunk) {
  frames_.push_back(CallFrame{chunk, 0, nullptr, stack_.size()});
  return run();
}

Value VM::call_closure(const std::shared_ptr<const Closure>& closure,
                       ValueList args) {
  stack_.push_back(Value::closure(closure));
  const std::int32_t argc = static_cast<std::int32_t>(args.size());
  for (Value& arg : args) stack_.push_back(std::move(arg));
  do_call(argc);
  return run();
}

Value VM::run() {
  const std::size_t entry_frames = frames_.size();
  try {
    while (true) {
      CallFrame& fr = frames_.back();
      const Instruction in = fr.chunk->code[fr.ip++];
      switch (in.op) {
        case Op::kConst:
          stack_.push_back(fr.chunk->constants[static_cast<std::size_t>(in.a)]);
          break;
        case Op::kNil:
          stack_.emplace_back();
          break;
        case Op::kPop:
          stack_.pop_back();
          break;
        case Op::kGetLocal: {
          const Frame* frame = fr.env.get();
          for (std::int32_t d = in.a; d > 0; --d) frame = frame->parent.get();
          stack_.push_back(frame->values[static_cast<std::size_t>(in.b)]);
          break;
        }
        case Op::kSetLocal: {
          Frame* frame = fr.env.get();
          for (std::int32_t d = in.a; d > 0; --d) frame = frame->parent.get();
          frame->values[static_cast<std::size_t>(in.b)] =
              std::move(stack_.back());
          stack_.pop_back();
          break;
        }
        case Op::kGetGlobal: {
          const std::string& name =
              fr.chunk->constants[static_cast<std::size_t>(in.a)]
                  .as_symbol()
                  .name;
          stack_.push_back(interp_.global_env().lookup(name));
          break;
        }
        case Op::kSetGlobal: {
          const std::string& name =
              fr.chunk->constants[static_cast<std::size_t>(in.a)]
                  .as_symbol()
                  .name;
          interp_.global_env().set(name, std::move(stack_.back()));
          stack_.pop_back();
          break;
        }
        case Op::kDefGlobal: {
          const std::string& name =
              fr.chunk->constants[static_cast<std::size_t>(in.a)]
                  .as_symbol()
                  .name;
          interp_.global_env().define(name, std::move(stack_.back()));
          stack_.pop_back();
          break;
        }
        case Op::kJump:
          fr.ip = static_cast<std::size_t>(in.a);
          break;
        case Op::kJumpIfFalse: {
          const bool truthy = stack_.back().truthy();
          stack_.pop_back();
          if (!truthy) fr.ip = static_cast<std::size_t>(in.a);
          break;
        }
        case Op::kJumpIfFalsePeek:
          if (!stack_.back().truthy()) fr.ip = static_cast<std::size_t>(in.a);
          break;
        case Op::kJumpIfTruePeek:
          if (stack_.back().truthy()) fr.ip = static_cast<std::size_t>(in.a);
          break;
        case Op::kPushFrame:
          fr.env = std::make_shared<Frame>(fr.env, in.a);
          break;
        case Op::kPopFrame:
          fr.env = fr.env->parent;
          break;
        case Op::kClosure:
          stack_.push_back(Value::closure(std::make_shared<const Closure>(
              Closure{fr.chunk->protos[static_cast<std::size_t>(in.a)],
                      fr.env})));
          break;
        case Op::kCall:
          do_call(in.a);
          break;
        case Op::kReturn: {
          Value result = std::move(stack_.back());
          stack_.pop_back();
          stack_.resize(fr.stack_base);
          frames_.pop_back();
          if (frames_.size() < entry_frames) return result;
          stack_.push_back(std::move(result));
          break;
        }
        case Op::kIterNext: {
          // (dolist) step: advance the hidden index over the list slot,
          // binding the loop variable, or exit the loop.
          std::vector<Value>& slots = fr.env->values;
          const ValueList& items =
              slots[static_cast<std::size_t>(in.b)].as_list();
          const std::int64_t index =
              slots[static_cast<std::size_t>(in.b) + 1].as_int();
          if (index < static_cast<std::int64_t>(items.size())) {
            slots[static_cast<std::size_t>(in.c)] =
                items[static_cast<std::size_t>(index)];
            slots[static_cast<std::size_t>(in.b) + 1] = Value(index + 1);
          } else {
            fr.ip = static_cast<std::size_t>(in.a);
          }
          break;
        }
        case Op::kRangeNext: {
          // (dotimes) step: count the hidden counter up to the limit.
          std::vector<Value>& slots = fr.env->values;
          const std::int64_t counter =
              slots[static_cast<std::size_t>(in.b)].as_int();
          const std::int64_t limit =
              slots[static_cast<std::size_t>(in.b) + 1].as_int();
          if (counter < limit) {
            slots[static_cast<std::size_t>(in.c)] = Value(counter);
            slots[static_cast<std::size_t>(in.b)] = Value(counter + 1);
          } else {
            fr.ip = static_cast<std::size_t>(in.a);
          }
          break;
        }
      }
    }
  } catch (const AlterError& e) {
    // Annotate with the instruction that raised. Nested VM entries (a
    // closure called back through a builtin) each add their own frame
    // note, producing a small traceback.
    if (frames_.empty()) throw;
    const CallFrame& fr = frames_.back();
    const std::size_t ip = fr.ip > 0 ? fr.ip - 1 : 0;
    const int line = fr.chunk->line_at(ip);
    if (line > 0) {
      raise<AlterError>(e.what(), " (",
                        fr.chunk->name.empty() ? "lambda"
                                               : fr.chunk->name.c_str(),
                        " line ", line, ")");
    }
    throw;
  }
}

void VM::do_call(std::int32_t argc) {
  const std::size_t nargs = static_cast<std::size_t>(argc);
  const std::size_t callee_index = stack_.size() - nargs - 1;
  const Value callee = stack_[callee_index];

  if (callee.is_closure()) {
    const std::shared_ptr<const Closure>& closure = callee.as_closure();
    const Chunk& chunk = *closure->chunk;
    const char* who = chunk.name.empty() ? "lambda" : chunk.name.c_str();
    if (chunk.rest_param.empty()) {
      SAGE_CHECK_AS(AlterError, nargs == chunk.params.size(), who,
                    ": expected ", chunk.params.size(), " args, got ", nargs);
    } else {
      SAGE_CHECK_AS(AlterError, nargs >= chunk.params.size(), who,
                    ": expected at least ", chunk.params.size(), " args, got ",
                    nargs);
    }
    SAGE_CHECK_AS(AlterError, frames_.size() < kMaxCallFrames,
                  "call stack too deep (", kMaxCallFrames,
                  " frames); runaway recursion?");
    auto frame = std::make_shared<Frame>(closure->env, chunk.slot_count);
    for (std::size_t i = 0; i < chunk.params.size(); ++i) {
      frame->values[static_cast<std::size_t>(chunk.param_slots[i])] =
          std::move(stack_[callee_index + 1 + i]);
    }
    if (chunk.rest_slot >= 0) {
      ValueList rest(
          std::make_move_iterator(stack_.begin() +
                                  static_cast<std::ptrdiff_t>(
                                      callee_index + 1 + chunk.params.size())),
          std::make_move_iterator(stack_.end()));
      frame->values[static_cast<std::size_t>(chunk.rest_slot)] =
          Value::list(std::move(rest));
    }
    stack_.resize(callee_index);
    frames_.push_back(
        CallFrame{closure->chunk, 0, std::move(frame), stack_.size()});
    return;
  }

  if (callee.is_builtin()) {
    const Builtin& fn = callee.as_builtin();
    ValueList args(std::make_move_iterator(
                       stack_.begin() +
                       static_cast<std::ptrdiff_t>(callee_index + 1)),
                   std::make_move_iterator(stack_.end()));
    stack_.resize(callee_index);
    try {
      stack_.push_back(fn.fn(interp_, args));
    } catch (const AlterError&) {
      throw;
    } catch (const Error& e) {
      raise<AlterError>("in builtin '", fn.name, "': ", e.what());
    }
    return;
  }

  raise<AlterError>("not callable: ", callee.to_string());
}

}  // namespace sage::alter
