#include "alter/compiler.hpp"

#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

#include "support/error.hpp"

namespace sage::alter {

namespace {

class Compiler {
 public:
  explicit Compiler(const SourceMap* map) : map_(map) {}

  ChunkPtr compile_toplevel(const ValueList& program, std::string name) {
    Chunk chunk;
    chunk.name = std::move(name);
    chunk_ = &chunk;
    compile_body(program, 0);
    emit(Op::kReturn);
    return std::make_shared<const Chunk>(std::move(chunk));
  }

 private:
  /// Raises sage::AlterError from `parts` unless `ok`, naming the
  /// script position the way the VM names it for runtime errors:
  /// "(<chunk> line N)", N being the line of the form being compiled.
  template <typename... Parts>
  void check(bool ok, const Parts&... parts) const {
    if (ok) return;
    if (line_ > 0) {
      raise<AlterError>(parts..., " (",
                        chunk_->name.empty() ? "lambda" : chunk_->name.c_str(),
                        " line ", line_, ")");
    }
    raise<AlterError>(parts...);
  }

  /// Splits a lambda parameter list into fixed parameters plus an
  /// optional &rest tail; raises sage::AlterError on malformed lists.
  void parse_params(const ValueList& param_list,
                    std::vector<std::string>& params,
                    std::string& rest_param) const {
    bool rest_next = false;
    for (const Value& p : param_list) {
      const std::string& name = p.as_symbol().name;
      if (name == "&rest") {
        check(!rest_next, "duplicate &rest");
        rest_next = true;
        continue;
      }
      if (rest_next) {
        check(rest_param.empty(), "only one &rest parameter allowed");
        rest_param = name;
      } else {
        params.push_back(name);
      }
    }
    check(!rest_next || !rest_param.empty(), "&rest without a parameter name");
  }

  // --- scopes ---------------------------------------------------------------

  /// One lexical scope; becomes exactly one runtime frame.
  struct Scope {
    std::unordered_map<std::string, int> slots;
    int next_slot = 0;
  };

  struct Local {
    int depth;
    int slot;
  };

  void push_scope() { scopes_.emplace_back(); }

  int pop_scope() {
    const int slots = scopes_.back().next_slot;
    scopes_.pop_back();
    return slots;
  }

  /// Declares `name` in the innermost scope (reusing the slot when the
  /// name is already bound there, so a redefinition rebinds it).
  int declare_local(const std::string& name) {
    Scope& scope = scopes_.back();
    auto it = scope.slots.find(name);
    if (it != scope.slots.end()) return it->second;
    const int slot = scope.next_slot++;
    scope.slots.emplace(name, slot);
    return slot;
  }

  /// Reserves an anonymous slot (loop bookkeeping).
  int declare_hidden() { return scopes_.back().next_slot++; }

  std::optional<Local> resolve(const std::string& name) const {
    for (std::size_t i = scopes_.size(); i-- > 0;) {
      auto it = scopes_[i].slots.find(name);
      if (it != scopes_[i].slots.end()) {
        return Local{static_cast<int>(scopes_.size() - 1 - i), it->second};
      }
    }
    return std::nullopt;
  }

  // --- define hoisting ------------------------------------------------------

  /// Pre-scans a scope body for (define ...) forms so their slots exist
  /// before the body compiles -- this is what lets mutually recursive
  /// local functions and later-in-body definitions resolve. The scan
  /// recurses through forms that introduce no scope of their own
  /// (begin/if/cond/when/unless/while/and/or and call arguments) and
  /// stops at lambda bodies and let/dolist/dotimes bodies, which hoist
  /// into their own scopes when compiled.
  void hoist_defines(const ValueList& body, std::size_t start) {
    for (std::size_t i = start; i < body.size(); ++i) collect_defines(body[i]);
  }

  void collect_defines(const Value& form) {
    if (!form.is_list()) return;
    const ValueList& list = form.as_list();
    if (list.empty()) return;
    if (list[0].is_symbol()) {
      const std::string& head = list[0].as_symbol().name;
      if (head == "quote" || head == "lambda") return;
      if (head == "define") {
        if (list.size() >= 2 && list[1].is_list()) {
          const ValueList& sig = list[1].as_list();
          if (!sig.empty() && sig[0].is_symbol()) {
            declare_local(sig[0].as_symbol().name);
          }
          return;  // sugar body is the lambda's own scope
        }
        if (list.size() >= 2 && list[1].is_symbol()) {
          declare_local(list[1].as_symbol().name);
        }
        for (std::size_t i = 2; i < list.size(); ++i) collect_defines(list[i]);
        return;
      }
      if (head == "let" || head == "let*") {
        // The body hoists into the let's own scope; plain-let binding
        // initialisers evaluate in this scope, so scan those.
        if (head == "let" && list.size() >= 2 && list[1].is_list()) {
          for (const Value& b : list[1].as_list()) {
            if (b.is_list() && b.as_list().size() == 2) {
              collect_defines(b.as_list()[1]);
            }
          }
        }
        return;
      }
      if (head == "dolist" || head == "dotimes") {
        // The iterated expression evaluates in this scope.
        if (list.size() >= 2 && list[1].is_list() &&
            list[1].as_list().size() == 2) {
          collect_defines(list[1].as_list()[1]);
        }
        return;
      }
    }
    for (const Value& sub : list) collect_defines(sub);
  }

  // --- chunk emission -------------------------------------------------------

  std::size_t emit(Op op, std::int32_t a = 0, std::int32_t b = 0,
                   std::int32_t c = 0) {
    chunk_->code.push_back(Instruction{op, a, b, c});
    chunk_->lines.push_back(line_);
    return chunk_->code.size() - 1;
  }

  std::size_t here() const { return chunk_->code.size(); }

  void patch(std::size_t at, std::size_t target) {
    chunk_->code[at].a = static_cast<std::int32_t>(target);
  }

  /// Interns a constant, deduplicating simple values by same-typed
  /// equality (equals() alone would merge 1 and 1.0).
  std::int32_t intern(const Value& v) {
    const bool simple = v.is_nil() || v.is_bool() || v.is_int() ||
                        v.is_real() || v.is_string() || v.is_symbol();
    if (simple) {
      for (std::size_t i = 0; i < chunk_->constants.size(); ++i) {
        const Value& c = chunk_->constants[i];
        const bool same_type =
            (c.is_nil() && v.is_nil()) || (c.is_bool() && v.is_bool()) ||
            (c.is_int() && v.is_int()) || (c.is_real() && v.is_real()) ||
            (c.is_string() && v.is_string()) ||
            (c.is_symbol() && v.is_symbol());
        if (same_type && c.equals(v)) return static_cast<std::int32_t>(i);
      }
    }
    chunk_->constants.push_back(v);
    return static_cast<std::int32_t>(chunk_->constants.size() - 1);
  }

  std::int32_t intern_symbol(const std::string& name) {
    return intern(Value::symbol(name));
  }

  // --- expression compilation -----------------------------------------------

  void compile_expr(const Value& expr) {
    if (expr.is_symbol()) {
      compile_variable(expr.as_symbol().name);
      return;
    }
    if (expr.is_nil()) {
      emit(Op::kNil);
      return;
    }
    if (!expr.is_list()) {
      emit(Op::kConst, intern(expr));
      return;
    }
    const int saved_line = line_;
    if (map_ != nullptr) {
      const int line = map_->line_of(expr);
      if (line > 0) line_ = line;
    }
    compile_list(expr.as_list());
    line_ = saved_line;
  }

  void compile_variable(const std::string& name) {
    if (const auto local = resolve(name)) {
      emit(Op::kGetLocal, local->depth, local->slot);
    } else {
      emit(Op::kGetGlobal, intern_symbol(name));
    }
  }

  /// Statement sequence: each expression's value is dropped except the
  /// last; an empty body yields nil. Net stack effect is +1.
  void compile_body(const ValueList& body, std::size_t start) {
    if (start >= body.size()) {
      emit(Op::kNil);
      return;
    }
    for (std::size_t i = start; i < body.size(); ++i) {
      if (i > start) emit(Op::kPop);
      compile_expr(body[i]);
    }
  }

  void compile_list(const ValueList& form) {
    if (form.empty()) {
      emit(Op::kConst, intern(Value::list({})));
      return;
    }

    if (form[0].is_symbol()) {
      const std::string& head = form[0].as_symbol().name;

      if (head == "quote") {
        check(form.size() == 2, "(quote x) takes one arg");
        emit(Op::kConst, intern(form[1]));
        return;
      }
      if (head == "if") {
        compile_if(form);
        return;
      }
      if (head == "cond") {
        compile_cond(form);
        return;
      }
      if (head == "define") {
        compile_define(form);
        return;
      }
      if (head == "set!") {
        compile_set(form);
        return;
      }
      if (head == "lambda") {
        check(form.size() >= 3, "(lambda (args) body...)");
        compile_lambda("", form[1].as_list(), form, 2);
        return;
      }
      if (head == "let") {
        compile_let(form);
        return;
      }
      if (head == "let*") {
        compile_let_star(form);
        return;
      }
      if (head == "begin") {
        compile_body(form, 1);
        return;
      }
      if (head == "while") {
        compile_while(form);
        return;
      }
      if (head == "and") {
        compile_and(form);
        return;
      }
      if (head == "or") {
        compile_or(form);
        return;
      }
      if (head == "when") {
        compile_when(form);
        return;
      }
      if (head == "unless") {
        compile_unless(form);
        return;
      }
      if (head == "dolist") {
        compile_dolist(form);
        return;
      }
      if (head == "dotimes") {
        compile_dotimes(form);
        return;
      }
    }

    // Function application: callee, then arguments left to right.
    compile_expr(form[0]);
    for (std::size_t i = 1; i < form.size(); ++i) {
      compile_expr(form[i]);
    }
    emit(Op::kCall, static_cast<std::int32_t>(form.size() - 1));
  }

  // --- special forms --------------------------------------------------------

  void compile_if(const ValueList& form) {
    check(form.size() == 3 || form.size() == 4, "(if c then else?)");
    compile_expr(form[1]);
    const std::size_t to_else = emit(Op::kJumpIfFalse);
    compile_expr(form[2]);
    const std::size_t to_end = emit(Op::kJump);
    patch(to_else, here());
    if (form.size() == 4) {
      compile_expr(form[3]);
    } else {
      emit(Op::kNil);
    }
    patch(to_end, here());
  }

  void compile_cond(const ValueList& form) {
    std::vector<std::size_t> end_jumps;
    bool saw_else = false;
    for (std::size_t i = 1; i < form.size(); ++i) {
      const ValueList& clause = form[i].as_list();
      check(!clause.empty(), "empty cond clause");
      saw_else = clause[0].is_symbol() && clause[0].as_symbol().name == "else";
      if (saw_else) {
        check(clause.size() > 1, "cond: (else) clause has no body");
        compile_body(clause, 1);
        break;
      }
      compile_expr(clause[0]);
      if (clause.size() == 1) {
        // A test-only clause yields the test's value, evaluated once
        // (the `or` pattern).
        end_jumps.push_back(emit(Op::kJumpIfTruePeek));
        emit(Op::kPop);
        continue;
      }
      const std::size_t to_next = emit(Op::kJumpIfFalse);
      compile_body(clause, 1);
      end_jumps.push_back(emit(Op::kJump));
      patch(to_next, here());
    }
    if (!saw_else) emit(Op::kNil);
    for (const std::size_t j : end_jumps) patch(j, here());
  }

  void compile_define(const ValueList& form) {
    check(form.size() >= 3, "(define name expr)");
    if (form[1].is_list()) {
      // (define (f a b) body...) sugar.
      const ValueList& sig = form[1].as_list();
      check(!sig.empty(), "define: empty signature");
      const std::string name = sig[0].as_symbol().name;
      if (scopes_.empty()) {
        compile_lambda(name, ValueList(sig.begin() + 1, sig.end()), form, 2);
        emit(Op::kDefGlobal, intern_symbol(name));
      } else {
        const int slot = declare_local(name);
        compile_lambda(name, ValueList(sig.begin() + 1, sig.end()), form, 2);
        emit(Op::kSetLocal, 0, slot);
      }
      emit(Op::kNil);
      return;
    }
    check(form.size() == 3, "(define name expr)");
    const std::string& name = form[1].as_symbol().name;
    if (scopes_.empty()) {
      compile_expr(form[2]);
      emit(Op::kDefGlobal, intern_symbol(name));
    } else {
      const int slot = declare_local(name);
      compile_expr(form[2]);
      emit(Op::kSetLocal, 0, slot);
    }
    emit(Op::kNil);
  }

  void compile_set(const ValueList& form) {
    check(form.size() == 3, "(set! name expr)");
    const std::string& name = form[1].as_symbol().name;
    compile_expr(form[2]);
    if (const auto local = resolve(name)) {
      emit(Op::kSetLocal, local->depth, local->slot);
    } else {
      emit(Op::kSetGlobal, intern_symbol(name));
    }
    emit(Op::kNil);
  }

  void compile_lambda(const std::string& name, const ValueList& param_list,
                      const ValueList& body, std::size_t start) {
    Chunk proto;
    proto.name = name;
    parse_params(param_list, proto.params, proto.rest_param);

    push_scope();
    for (const std::string& p : proto.params) {
      proto.param_slots.push_back(declare_local(p));
    }
    if (!proto.rest_param.empty()) {
      proto.rest_slot = declare_local(proto.rest_param);
    }
    hoist_defines(body, start);

    Chunk* const enclosing = chunk_;
    chunk_ = &proto;
    compile_body(body, start);
    emit(Op::kReturn);
    chunk_ = enclosing;

    proto.slot_count = pop_scope();
    chunk_->protos.push_back(std::make_shared<const Chunk>(std::move(proto)));
    emit(Op::kClosure,
         static_cast<std::int32_t>(chunk_->protos.size() - 1));
  }

  void compile_let(const ValueList& form) {
    check(form.size() >= 3, "(let ((a 1)...) body...)");
    // Plain let: initialisers evaluate in the enclosing scope, pushed
    // left to right before the frame exists.
    std::vector<std::string> names;
    for (const Value& binding : form[1].as_list()) {
      const ValueList& pair = binding.as_list();
      check(pair.size() == 2, "let binding (name expr)");
      names.push_back(pair[0].as_symbol().name);
      compile_expr(pair[1]);
    }
    push_scope();
    std::vector<int> slots;
    slots.reserve(names.size());
    for (const std::string& n : names) slots.push_back(declare_local(n));
    hoist_defines(form, 2);
    const std::size_t frame_at = emit(Op::kPushFrame);
    // Pop the stacked initialiser values into their slots in reverse.
    // Duplicate binding names share a slot; the rightmost binding wins
    // (stored first from the top of the stack), earlier ones are dropped.
    std::set<int> stored;
    for (std::size_t i = slots.size(); i-- > 0;) {
      if (stored.insert(slots[i]).second) {
        emit(Op::kSetLocal, 0, slots[i]);
      } else {
        emit(Op::kPop);
      }
    }
    compile_body(form, 2);
    emit(Op::kPopFrame);
    chunk_->code[frame_at].a = pop_scope();
  }

  void compile_let_star(const ValueList& form) {
    check(form.size() >= 3, "(let ((a 1)...) body...)");
    // let*: the frame exists up front; each initialiser sees the
    // bindings declared before it.
    push_scope();
    const std::size_t frame_at = emit(Op::kPushFrame);
    for (const Value& binding : form[1].as_list()) {
      const ValueList& pair = binding.as_list();
      check(pair.size() == 2, "let binding (name expr)");
      compile_expr(pair[1]);
      emit(Op::kSetLocal, 0, declare_local(pair[0].as_symbol().name));
    }
    hoist_defines(form, 2);
    compile_body(form, 2);
    emit(Op::kPopFrame);
    chunk_->code[frame_at].a = pop_scope();
  }

  void compile_while(const ValueList& form) {
    check(form.size() >= 2, "(while cond body...)");
    emit(Op::kNil);  // result of zero iterations
    const std::size_t loop = here();
    compile_expr(form[1]);
    const std::size_t to_exit = emit(Op::kJumpIfFalse);
    emit(Op::kPop);  // drop the previous iteration's value
    compile_body(form, 2);
    emit(Op::kJump, static_cast<std::int32_t>(loop));
    patch(to_exit, here());
  }

  void compile_and(const ValueList& form) {
    if (form.size() == 1) {
      emit(Op::kConst, intern(Value(true)));
      return;
    }
    std::vector<std::size_t> exits;
    for (std::size_t i = 1; i < form.size(); ++i) {
      compile_expr(form[i]);
      if (i + 1 < form.size()) {
        exits.push_back(emit(Op::kJumpIfFalsePeek));
        emit(Op::kPop);
      }
    }
    for (const std::size_t j : exits) patch(j, here());
  }

  void compile_or(const ValueList& form) {
    if (form.size() == 1) {
      emit(Op::kConst, intern(Value(false)));
      return;
    }
    std::vector<std::size_t> exits;
    for (std::size_t i = 1; i < form.size(); ++i) {
      compile_expr(form[i]);
      exits.push_back(emit(Op::kJumpIfTruePeek));
      emit(Op::kPop);
    }
    // No truthy operand: the result is #f, not the last falsy value.
    emit(Op::kConst, intern(Value(false)));
    for (const std::size_t j : exits) patch(j, here());
  }

  void compile_when(const ValueList& form) {
    check(form.size() >= 2, "(when cond body...)");
    compile_expr(form[1]);
    const std::size_t to_nil = emit(Op::kJumpIfFalse);
    compile_body(form, 2);
    const std::size_t to_end = emit(Op::kJump);
    patch(to_nil, here());
    emit(Op::kNil);
    patch(to_end, here());
  }

  void compile_unless(const ValueList& form) {
    check(form.size() >= 2, "(unless cond body...)");
    compile_expr(form[1]);
    const std::size_t to_body = emit(Op::kJumpIfFalse);
    emit(Op::kNil);
    const std::size_t to_end = emit(Op::kJump);
    patch(to_body, here());
    compile_body(form, 2);
    patch(to_end, here());
  }

  void compile_dolist(const ValueList& form) {
    check(form.size() >= 2, "(dolist (x list) body...)");
    const ValueList& spec = form[1].as_list();
    check(spec.size() == 2, "(dolist (x list) body...)");
    const std::string& var = spec[0].as_symbol().name;
    compile_expr(spec[1]);  // the list, in the enclosing scope

    push_scope();
    const int var_slot = declare_local(var);
    const int list_slot = declare_hidden();
    declare_hidden();  // iteration index at list_slot + 1
    hoist_defines(form, 2);

    const std::size_t frame_at = emit(Op::kPushFrame);
    emit(Op::kSetLocal, 0, list_slot);
    emit(Op::kConst, intern(Value(0)));
    emit(Op::kSetLocal, 0, list_slot + 1);
    emit(Op::kNil);  // result of zero iterations
    const std::size_t loop = here();
    const std::size_t iter = emit(Op::kIterNext, 0, list_slot, var_slot);
    emit(Op::kPop);
    compile_body(form, 2);
    emit(Op::kJump, static_cast<std::int32_t>(loop));
    patch(iter, here());
    emit(Op::kPopFrame);
    chunk_->code[frame_at].a = pop_scope();
  }

  void compile_dotimes(const ValueList& form) {
    check(form.size() >= 2, "(dotimes (i n) body...)");
    const ValueList& spec = form[1].as_list();
    check(spec.size() == 2, "(dotimes (i n) body...)");
    const std::string& var = spec[0].as_symbol().name;
    compile_expr(spec[1]);  // the count, in the enclosing scope

    push_scope();
    const int var_slot = declare_local(var);
    const int ctr_slot = declare_hidden();
    declare_hidden();  // loop limit at ctr_slot + 1
    hoist_defines(form, 2);

    const std::size_t frame_at = emit(Op::kPushFrame);
    emit(Op::kSetLocal, 0, ctr_slot + 1);  // limit
    emit(Op::kConst, intern(Value(0)));
    emit(Op::kSetLocal, 0, ctr_slot);  // counter
    emit(Op::kNil);  // result of zero iterations
    const std::size_t loop = here();
    const std::size_t iter = emit(Op::kRangeNext, 0, ctr_slot, var_slot);
    emit(Op::kPop);
    compile_body(form, 2);
    emit(Op::kJump, static_cast<std::int32_t>(loop));
    patch(iter, here());
    emit(Op::kPopFrame);
    chunk_->code[frame_at].a = pop_scope();
  }

  const SourceMap* map_;
  std::vector<Scope> scopes_;
  Chunk* chunk_ = nullptr;
  int line_ = 0;
};

}  // namespace

ChunkPtr compile_program(const ValueList& program, const SourceMap* map,
                         std::string name) {
  Compiler compiler(map);
  return compiler.compile_toplevel(program, std::move(name));
}

ChunkPtr compile_string(std::string_view source, std::string name) {
  SourceMap map;
  const ValueList program = read_program(source, &map);
  return compile_program(program, &map, std::move(name));
}

}  // namespace sage::alter
