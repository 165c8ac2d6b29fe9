// Core (model-independent) Alter builtins: arithmetic, comparison,
// lists, strings, formatted output, and the emit-stream interface the
// glue-code generator writes files through.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

#include "alter/interp.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace sage::alter {

namespace {

void expect_args(const std::string& name, const ValueList& args,
                 std::size_t count) {
  SAGE_CHECK_AS(AlterError, args.size() == count, "(", name, " ...) takes ",
                count, " args, got ", args.size());
}

void expect_min_args(const std::string& name, const ValueList& args,
                     std::size_t count) {
  SAGE_CHECK_AS(AlterError, args.size() >= count, "(", name,
                " ...) takes at least ", count, " args, got ", args.size());
}

bool all_ints(const ValueList& args) {
  return std::all_of(args.begin(), args.end(),
                     [](const Value& v) { return v.is_int(); });
}

Value numeric_fold(const std::string& name, const ValueList& args,
                   std::int64_t int_init,
                   std::int64_t (*ifold)(std::int64_t, std::int64_t),
                   double (*dfold)(double, double)) {
  expect_min_args(name, args, 1);
  if (all_ints(args)) {
    std::int64_t acc = args.size() == 1 ? int_init : args[0].as_int();
    const std::size_t start = args.size() == 1 ? 0 : 1;
    for (std::size_t i = start; i < args.size(); ++i) {
      acc = ifold(acc, args[i].as_int());
    }
    return Value(acc);
  }
  double acc =
      args.size() == 1 ? static_cast<double>(int_init) : args[0].as_real();
  const std::size_t start = args.size() == 1 ? 0 : 1;
  for (std::size_t i = start; i < args.size(); ++i) {
    acc = dfold(acc, args[i].as_real());
  }
  return Value(acc);
}

// Checked int64 arithmetic: a result that does not fit raises an
// AlterError naming the operator, the way a zero divisor does, instead
// of wrapping (or, for INT64_MIN / -1, trapping).
constexpr std::int64_t kIntMin = std::numeric_limits<std::int64_t>::min();

/// Raises the overflow error for `(op a)` or, with `b`, `(op a b)`.
[[noreturn]] void overflow(const char* op, std::int64_t a,
                           std::optional<std::int64_t> b = std::nullopt) {
  if (!b) raise<AlterError>("(", op, " ", a, "): integer overflow");
  raise<AlterError>("(", op, " ", a, " ", *b, "): integer overflow");
}

std::int64_t checked_add(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) overflow("+", a, b);
  return r;
}

std::int64_t checked_sub(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_sub_overflow(a, b, &r)) overflow("-", a, b);
  return r;
}

std::int64_t checked_mul(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) overflow("*", a, b);
  return r;
}

/// `(op x)` for the float-to-int builtins: `rounded` (op applied to x)
/// as an int64, or an AlterError naming the operator when it is NaN or
/// outside the int64 range (casting such a double is undefined).
std::int64_t checked_to_int(const char* op, double x, double rounded) {
  if (std::isnan(rounded)) {
    raise<AlterError>("(", op, " ", x, "): not a number");
  }
  // [-2^63, 2^63) is exactly the doubles that fit; both bounds are exact.
  if (rounded < -0x1p63 || rounded >= 0x1p63) {
    raise<AlterError>("(", op, " ", x, "): integer overflow");
  }
  return static_cast<std::int64_t>(rounded);
}

Value compare_chain(const std::string& name, const ValueList& args,
                    bool (*cmp)(double, double)) {
  expect_min_args(name, args, 2);
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (!cmp(args[i].as_real(), args[i + 1].as_real())) return Value(false);
  }
  return Value(true);
}

std::string format_impl(Interpreter&, const ValueList& args) {
  expect_min_args("format", args, 1);
  const std::string& spec = args[0].as_string();
  std::string out;
  std::size_t arg_index = 1;
  for (std::size_t i = 0; i < spec.size(); ++i) {
    if (spec[i] != '~' || i + 1 == spec.size()) {
      out += spec[i];
      continue;
    }
    const char directive = spec[++i];
    switch (directive) {
      case 'a':  // display form
      case 'A':
        SAGE_CHECK_AS(AlterError, arg_index < args.size(),
                      "format: not enough arguments for directives");
        out += args[arg_index++].display();
        break;
      case 's':  // write form
      case 'S':
        SAGE_CHECK_AS(AlterError, arg_index < args.size(),
                      "format: not enough arguments for directives");
        out += args[arg_index++].to_string();
        break;
      case '%':
        out += '\n';
        break;
      case '~':
        out += '~';
        break;
      default:
        raise<AlterError>("format: unknown directive '~", directive, "'");
    }
  }
  return out;
}

void def(Environment& env, const std::string& name,
         std::function<Value(Interpreter&, ValueList&)> fn) {
  env.define(name, Value::builtin(name, std::move(fn)));
}

}  // namespace

void install_core_builtins(Environment& env) {
  // --- arithmetic ------------------------------------------------------------
  def(env, "+", [](Interpreter&, ValueList& args) {
    return numeric_fold("+", args, 0, checked_add,
                        [](double a, double b) { return a + b; });
  });
  def(env, "-", [](Interpreter&, ValueList& args) {
    if (args.size() == 1) {
      if (args[0].is_int()) {
        const std::int64_t v = args[0].as_int();
        if (v == kIntMin) overflow("-", v);
        return Value(-v);
      }
      return Value(-args[0].as_real());
    }
    return numeric_fold("-", args, 0, checked_sub,
                        [](double a, double b) { return a - b; });
  });
  def(env, "*", [](Interpreter&, ValueList& args) {
    return numeric_fold("*", args, 1, checked_mul,
                        [](double a, double b) { return a * b; });
  });
  def(env, "/", [](Interpreter&, ValueList& args) {
    expect_min_args("/", args, 2);
    if (all_ints(args)) {
      std::int64_t acc = args[0].as_int();
      for (std::size_t i = 1; i < args.size(); ++i) {
        const std::int64_t d = args[i].as_int();
        SAGE_CHECK_AS(AlterError, d != 0, "division by zero");
        if (acc == kIntMin && d == -1) overflow("/", acc, d);
        acc /= d;
      }
      return Value(acc);
    }
    double acc = args[0].as_real();
    for (std::size_t i = 1; i < args.size(); ++i) acc /= args[i].as_real();
    return Value(acc);
  });
  def(env, "mod", [](Interpreter&, ValueList& args) {
    expect_args("mod", args, 2);
    const std::int64_t a = args[0].as_int();
    const std::int64_t d = args[1].as_int();
    SAGE_CHECK_AS(AlterError, d != 0, "mod by zero");
    if (a == kIntMin && d == -1) overflow("mod", a, d);
    return Value(a % d);
  });
  def(env, "abs", [](Interpreter&, ValueList& args) {
    expect_args("abs", args, 1);
    if (args[0].is_int()) {
      const std::int64_t v = args[0].as_int();
      if (v == kIntMin) overflow("abs", v);
      return Value(v < 0 ? -v : v);
    }
    return Value(std::fabs(args[0].as_real()));
  });
  def(env, "min", [](Interpreter&, ValueList& args) {
    return numeric_fold(
        "min", args, 0,
        [](std::int64_t a, std::int64_t b) { return std::min(a, b); },
        [](double a, double b) { return std::min(a, b); });
  });
  def(env, "max", [](Interpreter&, ValueList& args) {
    return numeric_fold(
        "max", args, 0,
        [](std::int64_t a, std::int64_t b) { return std::max(a, b); },
        [](double a, double b) { return std::max(a, b); });
  });
  def(env, "floor", [](Interpreter&, ValueList& args) {
    expect_args("floor", args, 1);
    const double x = args[0].as_real();
    return Value(checked_to_int("floor", x, std::floor(x)));
  });
  def(env, "ceiling", [](Interpreter&, ValueList& args) {
    expect_args("ceiling", args, 1);
    const double x = args[0].as_real();
    return Value(checked_to_int("ceiling", x, std::ceil(x)));
  });

  // --- comparison / logic -------------------------------------------------------
  def(env, "=", [](Interpreter&, ValueList& args) {
    return compare_chain("=", args, [](double a, double b) { return a == b; });
  });
  def(env, "<", [](Interpreter&, ValueList& args) {
    return compare_chain("<", args, [](double a, double b) { return a < b; });
  });
  def(env, ">", [](Interpreter&, ValueList& args) {
    return compare_chain(">", args, [](double a, double b) { return a > b; });
  });
  def(env, "<=", [](Interpreter&, ValueList& args) {
    return compare_chain("<=", args, [](double a, double b) { return a <= b; });
  });
  def(env, ">=", [](Interpreter&, ValueList& args) {
    return compare_chain(">=", args, [](double a, double b) { return a >= b; });
  });
  def(env, "not", [](Interpreter&, ValueList& args) {
    expect_args("not", args, 1);
    return Value(!args[0].truthy());
  });
  def(env, "equal?", [](Interpreter&, ValueList& args) {
    expect_args("equal?", args, 2);
    return Value(args[0].equals(args[1]));
  });

  // --- predicates ---------------------------------------------------------------
  def(env, "null?", [](Interpreter&, ValueList& args) {
    expect_args("null?", args, 1);
    return Value(args[0].is_nil() ||
                 (args[0].is_list() && args[0].as_list().empty()));
  });
  def(env, "list?", [](Interpreter&, ValueList& args) {
    expect_args("list?", args, 1);
    return Value(args[0].is_list());
  });
  def(env, "number?", [](Interpreter&, ValueList& args) {
    expect_args("number?", args, 1);
    return Value(args[0].is_number());
  });
  def(env, "string?", [](Interpreter&, ValueList& args) {
    expect_args("string?", args, 1);
    return Value(args[0].is_string());
  });
  def(env, "symbol?", [](Interpreter&, ValueList& args) {
    expect_args("symbol?", args, 1);
    return Value(args[0].is_symbol());
  });
  def(env, "object?", [](Interpreter&, ValueList& args) {
    expect_args("object?", args, 1);
    return Value(args[0].is_object());
  });
  def(env, "procedure?", [](Interpreter&, ValueList& args) {
    expect_args("procedure?", args, 1);
    return Value(args[0].is_callable());
  });

  // --- lists ------------------------------------------------------------------
  def(env, "list", [](Interpreter&, ValueList& args) {
    return Value::list(std::move(args));
  });
  def(env, "cons", [](Interpreter&, ValueList& args) {
    expect_args("cons", args, 2);
    ValueList out;
    out.push_back(std::move(args[0]));
    for (const Value& v : args[1].as_list()) out.push_back(v);
    return Value::list(std::move(out));
  });
  def(env, "first", [](Interpreter&, ValueList& args) {
    expect_args("first", args, 1);
    const ValueList& items = args[0].as_list();
    return items.empty() ? Value::nil() : items.front();
  });
  def(env, "rest", [](Interpreter&, ValueList& args) {
    expect_args("rest", args, 1);
    const ValueList& items = args[0].as_list();
    if (items.empty()) return Value::list({});
    return Value::list(ValueList(items.begin() + 1, items.end()));
  });
  def(env, "last", [](Interpreter&, ValueList& args) {
    expect_args("last", args, 1);
    const ValueList& items = args[0].as_list();
    return items.empty() ? Value::nil() : items.back();
  });
  def(env, "nth", [](Interpreter&, ValueList& args) {
    expect_args("nth", args, 2);
    const std::int64_t n = args[0].as_int();
    const ValueList& items = args[1].as_list();
    SAGE_CHECK_AS(AlterError,
                  n >= 0 && n < static_cast<std::int64_t>(items.size()),
                  "nth: index ", n, " out of range for list of ",
                  items.size());
    return items[static_cast<std::size_t>(n)];
  });
  def(env, "length", [](Interpreter&, ValueList& args) {
    expect_args("length", args, 1);
    if (args[0].is_string()) {
      return Value(static_cast<std::int64_t>(args[0].as_string().size()));
    }
    return Value(static_cast<std::int64_t>(args[0].as_list().size()));
  });
  def(env, "append", [](Interpreter&, ValueList& args) {
    ValueList out;
    for (const Value& arg : args) {
      for (const Value& v : arg.as_list()) out.push_back(v);
    }
    return Value::list(std::move(out));
  });
  def(env, "reverse", [](Interpreter&, ValueList& args) {
    expect_args("reverse", args, 1);
    ValueList out = args[0].as_list();
    std::reverse(out.begin(), out.end());
    return Value::list(std::move(out));
  });
  def(env, "range", [](Interpreter&, ValueList& args) {
    expect_min_args("range", args, 1);
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    if (args.size() == 1) {
      hi = args[0].as_int();
    } else {
      lo = args[0].as_int();
      hi = args[1].as_int();
    }
    ValueList out;
    for (std::int64_t i = lo; i < hi; ++i) out.emplace_back(i);
    return Value::list(std::move(out));
  });
  def(env, "map", [](Interpreter& in, ValueList& args) {
    expect_args("map", args, 2);
    ValueList out;
    for (const Value& v : args[1].as_list()) {
      out.push_back(in.apply(args[0], {v}));
    }
    return Value::list(std::move(out));
  });
  def(env, "filter", [](Interpreter& in, ValueList& args) {
    expect_args("filter", args, 2);
    ValueList out;
    for (const Value& v : args[1].as_list()) {
      if (in.apply(args[0], {v}).truthy()) out.push_back(v);
    }
    return Value::list(std::move(out));
  });
  def(env, "reduce", [](Interpreter& in, ValueList& args) {
    expect_args("reduce", args, 3);  // (reduce fn init list)
    Value acc = args[1];
    for (const Value& v : args[2].as_list()) {
      acc = in.apply(args[0], {acc, v});
    }
    return acc;
  });
  def(env, "apply", [](Interpreter& in, ValueList& args) {
    expect_args("apply", args, 2);
    return in.apply(args[0], args[1].as_list());
  });
  def(env, "sort-by", [](Interpreter& in, ValueList& args) {
    expect_args("sort-by", args, 2);  // (sort-by keyfn list)
    ValueList items = args[1].as_list();
    std::stable_sort(items.begin(), items.end(),
                     [&](const Value& a, const Value& b) {
                       return in.apply(args[0], {a}).as_real() <
                              in.apply(args[0], {b}).as_real();
                     });
    return Value::list(std::move(items));
  });
  def(env, "member?", [](Interpreter&, ValueList& args) {
    expect_args("member?", args, 2);
    for (const Value& v : args[1].as_list()) {
      if (v.equals(args[0])) return Value(true);
    }
    return Value(false);
  });
  def(env, "assoc", [](Interpreter&, ValueList& args) {
    expect_args("assoc", args, 2);  // (assoc key alist) -> (key value) | nil
    for (const Value& pair : args[1].as_list()) {
      const ValueList& kv = pair.as_list();
      if (!kv.empty() && kv[0].equals(args[0])) return pair;
    }
    return Value::nil();
  });

  // --- strings -------------------------------------------------------------------
  def(env, "string-append", [](Interpreter&, ValueList& args) {
    std::string out;
    for (const Value& v : args) out += v.display();
    return Value(std::move(out));
  });
  def(env, "substring", [](Interpreter&, ValueList& args) {
    expect_args("substring", args, 3);
    const std::string& s = args[0].as_string();
    const auto from = static_cast<std::size_t>(args[1].as_int());
    const auto to = static_cast<std::size_t>(args[2].as_int());
    SAGE_CHECK_AS(AlterError, from <= to && to <= s.size(),
                  "substring: bad range");
    return Value(s.substr(from, to - from));
  });
  def(env, "string-upcase", [](Interpreter&, ValueList& args) {
    expect_args("string-upcase", args, 1);
    std::string out = args[0].as_string();
    for (auto& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return Value(std::move(out));
  });
  def(env, "string-downcase", [](Interpreter&, ValueList& args) {
    expect_args("string-downcase", args, 1);
    return Value(support::to_lower(args[0].as_string()));
  });
  def(env, "number->string", [](Interpreter&, ValueList& args) {
    expect_args("number->string", args, 1);
    return Value(args[0].display());
  });
  def(env, "string->number", [](Interpreter&, ValueList& args) {
    expect_args("string->number", args, 1);
    const std::string& s = args[0].as_string();
    if (support::is_integer(s)) {
      return Value(static_cast<std::int64_t>(support::parse_int(s)));
    }
    return Value(support::parse_double(s));
  });
  def(env, "symbol->string", [](Interpreter&, ValueList& args) {
    expect_args("symbol->string", args, 1);
    return Value(args[0].as_symbol().name);
  });
  def(env, "string->symbol", [](Interpreter&, ValueList& args) {
    expect_args("string->symbol", args, 1);
    return Value::symbol(args[0].as_string());
  });
  def(env, "string-split", [](Interpreter&, ValueList& args) {
    expect_args("string-split", args, 2);  // (string-split s sep-char)
    const std::string& sep = args[1].as_string();
    SAGE_CHECK_AS(AlterError, sep.size() == 1,
                  "string-split: separator must be one character");
    ValueList out;
    for (const std::string& part :
         support::split(args[0].as_string(), sep[0])) {
      out.emplace_back(part);
    }
    return Value::list(std::move(out));
  });
  def(env, "string-join", [](Interpreter&, ValueList& args) {
    expect_args("string-join", args, 2);  // (string-join list sep)
    std::string out;
    const ValueList& items = args[0].as_list();
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i) out += args[1].as_string();
      out += items[i].display();
    }
    return Value(std::move(out));
  });
  def(env, "string-contains?", [](Interpreter&, ValueList& args) {
    expect_args("string-contains?", args, 2);  // (string-contains? needle s)
    return Value(args[1].as_string().find(args[0].as_string()) !=
                 std::string::npos);
  });
  def(env, "string-replace", [](Interpreter&, ValueList& args) {
    expect_args("string-replace", args, 3);  // (string-replace from to s)
    const std::string& from = args[0].as_string();
    const std::string& to = args[1].as_string();
    SAGE_CHECK_AS(AlterError, !from.empty(),
                  "string-replace: empty pattern");
    std::string s = args[2].as_string();
    std::size_t pos = 0;
    while ((pos = s.find(from, pos)) != std::string::npos) {
      s.replace(pos, from.size(), to);
      pos += to.size();
    }
    return Value(std::move(s));
  });
  def(env, "format", [](Interpreter& in, ValueList& args) {
    return Value(format_impl(in, args));
  });

  // --- diagnostics -----------------------------------------------------------------
  def(env, "print", [](Interpreter& in, ValueList& args) {
    std::string line;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i) line += " ";
      line += args[i].display();
    }
    line += "\n";
    in.print(line);
    return Value::nil();
  });
  def(env, "error", [](Interpreter&, ValueList& args) -> Value {
    std::string message;
    for (const Value& v : args) message += v.display();
    raise<AlterError>("alter error: ", message);
  });
  def(env, "assert", [](Interpreter&, ValueList& args) {
    expect_min_args("assert", args, 1);
    if (!args[0].truthy()) {
      std::string message = "assertion failed";
      if (args.size() > 1) message += ": " + args[1].display();
      raise<AlterError>(message);
    }
    return Value(true);
  });

  // --- emit streams ------------------------------------------------------------------
  def(env, "set-output", [](Interpreter& in, ValueList& args) {
    expect_args("set-output", args, 1);
    in.set_output(args[0].as_string());
    return Value::nil();
  });
  def(env, "current-output", [](Interpreter& in, ValueList& args) {
    expect_args("current-output", args, 0);
    return Value(in.current_output_name());
  });
  def(env, "emit", [](Interpreter& in, ValueList& args) {
    for (const Value& v : args) in.emit(v.display());
    return Value::nil();
  });
  def(env, "emit-line", [](Interpreter& in, ValueList& args) {
    for (const Value& v : args) in.emit(v.display());
    in.emit("\n");
    return Value::nil();
  });
}

}  // namespace sage::alter
