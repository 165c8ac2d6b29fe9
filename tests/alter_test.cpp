// Alter language tests: the reader, evaluator semantics (closures,
// scoping, special forms), core builtins, model-traversal builtins, the
// emit-stream interface, and the bytecode pipeline (compiler + VM).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "alter/compiler.hpp"
#include "alter/interp.hpp"
#include "alter/reader.hpp"
#include "model/app.hpp"
#include "model/serialize.hpp"
#include "model/workspace.hpp"
#include "support/error.hpp"

namespace sage::alter {
namespace {

Value run(Interpreter& interp, const std::string& src) {
  return interp.eval_string(src);
}

Value run(const std::string& src) {
  Interpreter interp;
  return interp.eval_string(src);
}

// --- reader -------------------------------------------------------------------

TEST(ReaderTest, Atoms) {
  EXPECT_TRUE(read_one("nil").is_nil());
  EXPECT_EQ(read_one("#t").as_bool(), true);
  EXPECT_EQ(read_one("false").as_bool(), false);
  EXPECT_EQ(read_one("42").as_int(), 42);
  EXPECT_EQ(read_one("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(read_one("2.5").as_real(), 2.5);
  EXPECT_DOUBLE_EQ(read_one("-1e3").as_real(), -1000.0);
  EXPECT_EQ(read_one("foo-bar").as_symbol().name, "foo-bar");
  EXPECT_EQ(read_one("\"hi\\nthere\"").as_string(), "hi\nthere");
}

TEST(ReaderTest, ListsAndQuote) {
  const Value v = read_one("(a (b 1) \"s\")");
  ASSERT_TRUE(v.is_list());
  ASSERT_EQ(v.as_list().size(), 3u);
  EXPECT_EQ(v.as_list()[1].as_list()[1].as_int(), 1);

  const Value q = read_one("'(1 2)");
  EXPECT_EQ(q.as_list()[0].as_symbol().name, "quote");
}

TEST(ReaderTest, CommentsSkipped) {
  const ValueList program = read_program("; header\n1 ; trailing\n2\n");
  ASSERT_EQ(program.size(), 2u);
  EXPECT_EQ(program[1].as_int(), 2);
}

TEST(ReaderTest, Errors) {
  EXPECT_THROW(read_one("(unclosed"), AlterError);
  EXPECT_THROW(read_one(")"), AlterError);
  EXPECT_THROW(read_one("\"unterminated"), AlterError);
  EXPECT_THROW(read_one("1 2"), AlterError);  // trailing input
  EXPECT_THROW(read_one("\"bad \\x\""), AlterError);
}

// --- evaluator -----------------------------------------------------------------

TEST(EvalTest, ArithmeticAndComparison) {
  EXPECT_EQ(run("(+ 1 2 3)").as_int(), 6);
  EXPECT_EQ(run("(- 10 3 2)").as_int(), 5);
  EXPECT_EQ(run("(- 5)").as_int(), -5);
  EXPECT_EQ(run("(* 2 3 4)").as_int(), 24);
  EXPECT_EQ(run("(/ 12 4)").as_int(), 3);
  EXPECT_DOUBLE_EQ(run("(/ 1.0 4)").as_real(), 0.25);
  EXPECT_EQ(run("(mod 10 3)").as_int(), 1);
  EXPECT_TRUE(run("(< 1 2 3)").as_bool());
  EXPECT_FALSE(run("(< 1 3 2)").as_bool());
  EXPECT_TRUE(run("(= 2 2.0)").as_bool());
  EXPECT_EQ(run("(max 1 7 3)").as_int(), 7);
  EXPECT_EQ(run("(floor 2.9)").as_int(), 2);
  EXPECT_THROW(run("(/ 1 0)"), AlterError);
}

TEST(EvalTest, DefineSetAndScope) {
  Interpreter interp;
  run(interp, "(define x 10)");
  EXPECT_EQ(run(interp, "x").as_int(), 10);
  run(interp, "(set! x 20)");
  EXPECT_EQ(run(interp, "x").as_int(), 20);
  EXPECT_THROW(run(interp, "(set! undefined-var 1)"), AlterError);
  EXPECT_THROW(run(interp, "undefined-var"), AlterError);
}

TEST(EvalTest, LambdasAndClosures) {
  Interpreter interp;
  run(interp, "(define (make-adder n) (lambda (x) (+ x n)))");
  run(interp, "(define add5 (make-adder 5))");
  EXPECT_EQ(run(interp, "(add5 3)").as_int(), 8);
  // The closure captured its own n.
  run(interp, "(define add1 (make-adder 1))");
  EXPECT_EQ(run(interp, "(add5 0)").as_int(), 5);
  EXPECT_EQ(run(interp, "(add1 0)").as_int(), 1);
}

TEST(EvalTest, RestParameters) {
  Interpreter interp;
  run(interp, "(define (count-args a &rest more) (list a (length more)))");
  const Value v = run(interp, "(count-args 1 2 3 4)");
  EXPECT_EQ(v.as_list()[0].as_int(), 1);
  EXPECT_EQ(v.as_list()[1].as_int(), 3);
  EXPECT_THROW(run(interp, "(count-args)"), AlterError);  // too few
}

TEST(EvalTest, WrongArityReported) {
  Interpreter interp;
  run(interp, "(define (f a b) (+ a b))");
  EXPECT_THROW(run(interp, "(f 1)"), AlterError);
  EXPECT_THROW(run(interp, "(f 1 2 3)"), AlterError);
}

TEST(EvalTest, ConditionalsAndLogic) {
  EXPECT_EQ(run("(if #t 1 2)").as_int(), 1);
  EXPECT_EQ(run("(if #f 1 2)").as_int(), 2);
  EXPECT_TRUE(run("(if #f 1)").is_nil());
  EXPECT_EQ(run("(cond (#f 1) (#t 2) (else 3))").as_int(), 2);
  EXPECT_EQ(run("(cond (#f 1) (else 3))").as_int(), 3);
  EXPECT_EQ(run("(and 1 2 3)").as_int(), 3);
  EXPECT_FALSE(run("(and 1 #f 3)").truthy());
  EXPECT_EQ(run("(or #f 7)").as_int(), 7);
  EXPECT_EQ(run("(when #t 1 2)").as_int(), 2);
  EXPECT_TRUE(run("(unless #t 1)").is_nil());
  // 0 and "" are truthy (Scheme-style).
  EXPECT_EQ(run("(if 0 1 2)").as_int(), 1);
}

TEST(EvalTest, LetAndLetStar) {
  EXPECT_EQ(run("(let ((a 1) (b 2)) (+ a b))").as_int(), 3);
  EXPECT_EQ(run("(let* ((a 1) (b (+ a 1))) b)").as_int(), 2);
  // Plain let does not see sibling bindings.
  Interpreter interp;
  run(interp, "(define a 100)");
  EXPECT_EQ(run(interp, "(let ((a 1) (b a)) b)").as_int(), 100);
}

TEST(EvalTest, LoopsAccumulate) {
  Interpreter interp;
  EXPECT_EQ(run(interp,
                "(define total 0)"
                "(define i 0)"
                "(while (< i 5) (set! total (+ total i)) (set! i (+ i 1)))"
                "total")
                .as_int(),
            10);
  EXPECT_EQ(run(interp,
                "(define acc 0)"
                "(dotimes (k 4) (set! acc (+ acc k)))"
                "acc")
                .as_int(),
            6);
  EXPECT_EQ(run(interp,
                "(define acc2 0)"
                "(dolist (x (list 5 6 7)) (set! acc2 (+ acc2 x)))"
                "acc2")
                .as_int(),
            18);
}

TEST(EvalTest, RunawayRecursionCaught) {
  Interpreter interp;
  run(interp, "(define (loop x) (loop x))");
  EXPECT_THROW(run(interp, "(loop 1)"), AlterError);
}

// --- bytecode pipeline -----------------------------------------------------------

/// Runs `src` in a fresh interpreter and requires the printed form of
/// its value and its (print ...) log.
void expect_eval(const std::string& src, const std::string& value,
                 const std::string& print_log = "") {
  Interpreter interp;
  EXPECT_EQ(interp.eval_string(src).to_string(), value) << src;
  EXPECT_EQ(interp.print_log(), print_log) << src;
}

TEST(VmTest, SpecialForms) {
  expect_eval("(if 0 'zero 'other)", "zero");
  expect_eval("(cond (#f 1) (2) (else 3))", "2");  // test-only clause
  expect_eval("(cond)", "nil");
  expect_eval("(and)", "#t");
  expect_eval("(and 1 nil 3)", "nil");
  expect_eval("(or nil 7 (error \"unreached\"))", "7");
  expect_eval("(begin)", "nil");
  expect_eval("(while #f 1)", "nil");
  expect_eval("(define i 0) (while (< i 3) (set! i (+ i 1)) (* i 10))", "30");
  expect_eval("(when 1)", "nil");
  expect_eval("(unless nil 1 2)", "2");
  expect_eval("(quote (a b (c)))", "(a b (c))");
  expect_eval("()", "()");
}

TEST(VmTest, CondEvaluatesEachTestOnceAndOrDefaultsToFalse) {
  // A test-only clause returns its test's value without running it again.
  expect_eval("(cond ((begin (print \"x\") 1)))", "1", "x\n");
  expect_eval("(cond (#f 1) ((begin (print \"y\") nil)) (else 3))", "3",
              "y\n");
  // A bare (else) has nothing to return: rejected before anything runs.
  Interpreter interp;
  try {
    interp.eval_string("(print \"ran\") (cond (#f 1) (else))");
    FAIL() << "expected a compile error";
  } catch (const AlterError& e) {
    EXPECT_NE(std::string(e.what()).find("cond: (else) clause has no body"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(interp.print_log(), "");
  // An or with no truthy operand is #f, not its last falsy value.
  expect_eval("(or)", "#f");
  expect_eval("(or nil)", "#f");
  expect_eval("(or nil #f)", "#f");
}

TEST(VmTest, Scoping) {
  expect_eval("(define a 100) (let ((a 1) (b a)) (list a b))", "(1 100)");
  expect_eval("(let* ((a 1) (b (+ a 1))) (list a b))", "(1 2)");
  expect_eval("(let ((x 1)) (define y 2) (+ x y))", "3");
  expect_eval("(let ((a 1) (a 2)) a)", "2");  // duplicate binding: last wins
  expect_eval("(define (f) (define x 1) (define (g) x) (set! x 2) (g)) (f)",
              "2");
  expect_eval("(define x 'outer) (dolist (x (list 1 2)) x) x",
              "outer");  // loop var is scoped
  expect_eval("(dotimes (i 4) (* i i))", "9");
  expect_eval("(dolist (x (list)) (error \"unreached\")) 'done", "done");
  expect_eval("(define acc (list))"
              "(dotimes (i 3) (set! acc (cons i acc))) acc",
              "(2 1 0)");
}

TEST(VmTest, Functions) {
  expect_eval("(define (fact n) (if (< n 2) 1 (* n (fact (- n 1)))))"
              "(fact 10)",
              "3628800");
  expect_eval("(map (lambda (x) (* x x)) (list 1 2 3))", "(1 4 9)");
  expect_eval("(reduce + 0 (range 10))", "45");
  expect_eval("(define (f a &rest r) (list a r)) (f 1 2 3)", "(1 (2 3))");
  expect_eval("(define (f a &rest r) (list a r)) (f 1)", "(1 ())");
  expect_eval("(apply + (list 1 2 3))", "6");
  expect_eval("(print \"side\" 1) (print \"effects\")", "nil",
              "side 1\neffects\n");
}

TEST(VmTest, ClosuresOverLoopScopeShareTheFinalValue) {
  // dolist creates ONE frame reused across iterations, so every closure
  // made in the body sees the final loop value.
  expect_eval("(define fns (list))"
              "(dolist (i (list 1 2 3)) (set! fns (cons (lambda () i) fns)))"
              "(map (lambda (f) (f)) fns)",
              "(3 3 3)");
}

TEST(VmTest, SetThroughCapturedFrames) {
  Interpreter interp;
  run(interp,
      "(define (make-counter)"
      "  (let ((n 0)) (lambda () (set! n (+ n 1)) n)))"
      "(define c1 (make-counter))"
      "(define c2 (make-counter))");
  EXPECT_EQ(run(interp, "(c1)").as_int(), 1);
  EXPECT_EQ(run(interp, "(c1)").as_int(), 2);
  EXPECT_EQ(run(interp, "(c2)").as_int(), 1);  // counters are independent
  EXPECT_EQ(run(interp, "(c1)").as_int(), 3);
}

TEST(VmTest, RestArityChecked) {
  Interpreter interp;
  run(interp, "(define (f a b &rest r) (list a b (length r)))");
  EXPECT_EQ(run(interp, "(f 1 2)").to_string(), "(1 2 0)");
  EXPECT_EQ(run(interp, "(f 1 2 3 4 5)").to_string(), "(1 2 3)");
  try {
    run(interp, "(f 1)");
    FAIL() << "expected arity error";
  } catch (const AlterError& e) {
    EXPECT_NE(std::string(e.what()).find("expected at least 2 args, got 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(VmTest, DeepRecursionUsesVmFramesNotNativeStack) {
  // 10k-deep non-tail recursion would overflow the C++ stack under a
  // recursive evaluator; the VM's explicit call-frame stack handles it.
  Interpreter interp;
  run(interp, "(define (sum n acc) (if (= n 0) acc (sum (- n 1) (+ acc n))))");
  EXPECT_EQ(run(interp, "(sum 10000 0)").as_int(), 50005000);
}

TEST(VmTest, RuntimeErrorNamesSourceLine) {
  Interpreter interp;
  try {
    interp.eval_string("(define x 1)\n"
                       "(define y 2)\n"
                       "(+ x \"oops\")\n");
    FAIL() << "expected a type error";
  } catch (const AlterError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("script"), std::string::npos) << what;
  }
}

TEST(VmTest, RuntimeErrorInsideNamedFunctionNamesIt) {
  Interpreter interp;
  try {
    interp.eval_string("(define (boom n)\n"
                       "  (+ n 'not-a-number))\n"
                       "(boom 1)\n");
    FAIL() << "expected a type error";
  } catch (const AlterError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("boom line 2"), std::string::npos) << what;
  }
}

TEST(VmTest, CompileErrorNamesScriptLine) {
  // A malformed form is reported before anything runs, at the script
  // position of the form, in the VM's "(<chunk> line N)" style.
  const std::pair<const char*, const char*> cases[] = {
      {"(print 1)\n(print (cond (else)))\n",
       "cond: (else) clause has no body (script line 2)"},
      {"(define (f)\n  (let ((x)) x))\n", "let binding (name expr) (f line 2)"},
      {"(define (g a &rest) a)\n",
       "&rest without a parameter name (script line 1)"},
  };
  for (const auto& [src, message] : cases) {
    Interpreter interp;
    try {
      interp.eval_string(src);
      ADD_FAILURE() << "expected a compile error: " << src;
    } catch (const AlterError& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
    EXPECT_EQ(interp.print_log(), "");
  }
}

TEST(VmTest, DisassemblerListsChunkStructure) {
  const ChunkPtr chunk = compile_string(
      "(define (square x) (* x x))\n"
      "(dotimes (i 3) (square i))\n",
      "demo");
  const std::string listing = disassemble(*chunk);
  EXPECT_NE(listing.find("== demo =="), std::string::npos);
  EXPECT_NE(listing.find("== square =="), std::string::npos);
  EXPECT_NE(listing.find("def-global"), std::string::npos);
  EXPECT_NE(listing.find("range-next"), std::string::npos);
  EXPECT_NE(listing.find("params: x"), std::string::npos);
  EXPECT_NE(listing.find("; square"), std::string::npos);  // constant note
}

TEST(VmTest, ChunksAreReusableAcrossInterpreters) {
  const ChunkPtr chunk = compile_string("(+ 20 22)");
  Interpreter a;
  Interpreter b;
  EXPECT_EQ(a.execute(chunk).as_int(), 42);
  EXPECT_EQ(b.execute(chunk).as_int(), 42);
}

// --- core builtins ---------------------------------------------------------------

TEST(BuiltinTest, ListOperations) {
  EXPECT_EQ(run("(length (list 1 2 3))").as_int(), 3);
  EXPECT_EQ(run("(first (list 9 8))").as_int(), 9);
  EXPECT_EQ(run("(last (list 9 8))").as_int(), 8);
  EXPECT_EQ(run("(nth 1 (list 4 5 6))").as_int(), 5);
  EXPECT_EQ(run("(length (rest (list 1 2 3)))").as_int(), 2);
  EXPECT_EQ(run("(first (cons 0 (list 1)))").as_int(), 0);
  EXPECT_EQ(run("(length (append (list 1) (list 2 3)))").as_int(), 3);
  EXPECT_EQ(run("(first (reverse (list 1 2 3)))").as_int(), 3);
  EXPECT_EQ(run("(length (range 5))").as_int(), 5);
  EXPECT_EQ(run("(first (range 3 6))").as_int(), 3);
  EXPECT_TRUE(run("(member? 2 (list 1 2))").as_bool());
  EXPECT_TRUE(run("(null? (list))").as_bool());
  EXPECT_FALSE(run("(null? (list 1))").as_bool());
  EXPECT_THROW(run("(nth 5 (list 1))"), AlterError);
}

TEST(BuiltinTest, HigherOrderFunctions) {
  EXPECT_EQ(run("(nth 1 (map (lambda (x) (* x x)) (list 1 2 3)))").as_int(),
            4);
  EXPECT_EQ(run("(length (filter (lambda (x) (> x 1)) (list 0 1 2 3)))")
                .as_int(),
            2);
  EXPECT_EQ(run("(reduce + 0 (list 1 2 3 4))").as_int(), 10);
  EXPECT_EQ(run("(apply + (list 1 2 3))").as_int(), 6);
  EXPECT_EQ(run("(first (sort-by (lambda (x) (- x)) (list 1 3 2)))").as_int(),
            3);
}

TEST(BuiltinTest, AssocFindsPairs) {
  Interpreter interp;
  run(interp, "(define table (list (list \"a\" 1) (list \"b\" 2)))");
  EXPECT_EQ(run(interp, "(nth 1 (assoc \"b\" table))").as_int(), 2);
  EXPECT_TRUE(run(interp, "(null? (assoc \"z\" table))").as_bool());
}

TEST(BuiltinTest, StringOperations) {
  EXPECT_EQ(run("(string-append \"a\" 1 \"b\")").as_string(), "a1b");
  EXPECT_EQ(run("(substring \"hello\" 1 3)").as_string(), "el");
  EXPECT_EQ(run("(string-upcase \"aBc\")").as_string(), "ABC");
  EXPECT_EQ(run("(string-downcase \"aBc\")").as_string(), "abc");
  EXPECT_EQ(run("(number->string 42)").as_string(), "42");
  EXPECT_EQ(run("(string->number \"3.5\")").as_real(), 3.5);
  EXPECT_EQ(run("(string->number \"12\")").as_int(), 12);
  EXPECT_EQ(run("(symbol->string 'abc)").as_string(), "abc");
  EXPECT_EQ(run("(length \"four\")").as_int(), 4);
}

TEST(BuiltinTest, StringSplitJoinReplace) {
  EXPECT_EQ(run("(length (string-split \"a,b,,c\" \",\"))").as_int(), 4);
  EXPECT_EQ(run("(nth 1 (string-split \"a,b\" \",\"))").as_string(), "b");
  EXPECT_EQ(run("(string-join (list 1 2 3) \"-\")").as_string(), "1-2-3");
  EXPECT_EQ(run("(string-join (list) \",\")").as_string(), "");
  EXPECT_TRUE(run("(string-contains? \"ell\" \"hello\")").as_bool());
  EXPECT_FALSE(run("(string-contains? \"z\" \"hello\")").as_bool());
  EXPECT_EQ(run("(string-replace \"ab\" \"X\" \"abcabd\")").as_string(),
            "XcXd");
  EXPECT_THROW(run("(string-replace \"\" \"x\" \"s\")"), AlterError);
}

TEST(BuiltinTest, Format) {
  EXPECT_EQ(run("(format \"x=~a y=~s~%\" 5 \"q\")").as_string(),
            "x=5 y=\"q\"\n");
  EXPECT_EQ(run("(format \"~~\")").as_string(), "~");
  EXPECT_THROW(run("(format \"~a\")"), AlterError);  // missing arg
  EXPECT_THROW(run("(format \"~z\" 1)"), AlterError);
}

TEST(BuiltinTest, IntegerOverflowIsAnErrorNamingTheOperator) {
  // int64 arithmetic is checked: no wrap-around, and no SIGFPE from
  // INT64_MIN / -1.
  const std::string max = "9223372036854775807";
  const std::string min = "(- 0 " + max + " 1)";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"(* " + max + " 2)", "(* "},     {"(+ " + max + " 1)", "(+ "},
      {"(- " + min + " 1)", "(- "},     {"(- " + min + ")", "(- "},
      {"(abs " + min + ")", "(abs "},   {"(/ " + min + " -1)", "(/ "},
      {"(mod " + min + " -1)", "(mod "}};
  for (const auto& [src, op] : cases) {
    try {
      run(src);
      ADD_FAILURE() << src << " must overflow";
    } catch (const AlterError& e) {
      EXPECT_EQ(std::string(e.what()).rfind(op, 0), 0u) << e.what();
      EXPECT_NE(std::string(e.what()).find("integer overflow"),
                std::string::npos)
          << e.what();
    }
  }
  // The edges themselves still compute.
  EXPECT_EQ(run(min).as_int(), INT64_MIN);
  EXPECT_EQ(run("(abs (- " + max + "))").as_int(), INT64_MAX);
  EXPECT_EQ(run("(/ " + min + " 1)").as_int(), INT64_MIN);
  EXPECT_EQ(run("(mod " + min + " 1)").as_int(), 0);
}

TEST(BuiltinTest, FloatToIntOutOfRangeIsAnErrorNamingTheOperator) {
  // floor/ceiling of NaN or of a value outside int64 used to cast
  // unchecked (undefined; it printed INT64_MIN).
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"(floor 1e30)", "(floor 1e+30): integer overflow"},
      {"(ceiling -1e300)", "(ceiling -1e+300): integer overflow"},
      {"(floor 9223372036854775808.0)",
       "(floor 9.22337e+18): integer overflow"},
      {"(ceiling (/ 1.0 0.0))", "(ceiling inf): integer overflow"},
      {"(floor (/ 0.0 0.0))", "(floor "},
      {"(ceiling (/ 0.0 0.0))", "(ceiling "}};
  for (const auto& [src, prefix] : cases) {
    try {
      run(src);
      ADD_FAILURE() << src << " must fail";
    } catch (const AlterError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind(prefix, 0), 0u) << what;
      if (src.find("0.0 0.0") != std::string::npos) {
        EXPECT_NE(what.find("not a number"), std::string::npos) << what;
      }
    }
  }
  // The int64 edges themselves still round.
  EXPECT_EQ(run("(floor -9223372036854775808.0)").as_int(), INT64_MIN);
  EXPECT_EQ(run("(ceiling -9223372036854775808.5)").as_int(), INT64_MIN);
  EXPECT_EQ(run("(floor 9223372036854774784.0)").as_int(),
            9223372036854774784);
  EXPECT_EQ(run("(floor -2.5)").as_int(), -3);
  EXPECT_EQ(run("(ceiling -2.5)").as_int(), -2);
}

TEST(BuiltinTest, ErrorsAndAsserts) {
  EXPECT_THROW(run("(error \"bad \" 42)"), AlterError);
  EXPECT_TRUE(run("(assert #t)").as_bool());
  EXPECT_THROW(run("(assert (= 1 2) \"math broke\")"), AlterError);
}

TEST(BuiltinTest, PrintGoesToLog) {
  Interpreter interp;
  run(interp, "(print \"hello\" 42)");
  EXPECT_EQ(interp.print_log(), "hello 42\n");
}

// --- emit streams -----------------------------------------------------------------

TEST(EmitTest, StreamsAccumulateByName) {
  Interpreter interp;
  run(interp,
      "(set-output \"a.txt\")"
      "(emit-line \"alpha\")"
      "(set-output \"b.txt\")"
      "(emit \"beta\")"
      "(set-output \"a.txt\")"
      "(emit-line \"gamma\")");
  EXPECT_EQ(interp.outputs().at("a.txt"), "alpha\ngamma\n");
  EXPECT_EQ(interp.outputs().at("b.txt"), "beta");
  EXPECT_EQ(run(interp, "(current-output)").as_string(), "a.txt");
}

// --- model builtins ----------------------------------------------------------------

class ModelBuiltinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workspace_ = std::make_unique<model::Workspace>("t");
    model::ModelObject& app =
        model::add_application(workspace_->root(), "app");
    model::ModelObject& fn = model::add_function(app, "f1", "identity", 2);
    fn.set_property("param_gain", 1.5);
    model::add_port(fn, "out", model::PortDirection::kOut,
                    model::Striping::kStriped, "cfloat", {4, 4}, 0);
    interp_.attach_model(workspace_->root());
  }

  std::unique_ptr<model::Workspace> workspace_;
  Interpreter interp_;
};

TEST_F(ModelBuiltinTest, TraversalBasics) {
  EXPECT_EQ(run(interp_, "(object-type (model-root))").as_string(),
            "sage-model");
  EXPECT_EQ(run(interp_, "(object-name (model-root))").as_string(), "t");
  EXPECT_EQ(run(interp_,
                "(length (children-of-type (model-root) \"application\"))")
                .as_int(),
            1);
  EXPECT_EQ(
      run(interp_,
          "(object-name (first (descendants-of-type (model-root) "
          "\"function\")))")
          .as_string(),
      "f1");
  EXPECT_TRUE(run(interp_, "(null? (parent (model-root)))").as_bool());
  EXPECT_EQ(run(interp_,
                "(object-type (parent (first (descendants-of-type "
                "(model-root) \"port\"))))")
                .as_string(),
            "function");
}

TEST_F(ModelBuiltinTest, PropertiesThroughAlter) {
  const std::string fn_expr =
      "(first (descendants-of-type (model-root) \"function\"))";
  EXPECT_EQ(run(interp_, "(get-property " + fn_expr + " \"threads\")").as_int(),
            2);
  EXPECT_TRUE(
      run(interp_, "(has-property? " + fn_expr + " \"kernel\")").as_bool());
  EXPECT_EQ(run(interp_, "(get-property-or " + fn_expr + " \"nope\" 9)")
                .as_int(),
            9);
  run(interp_, "(set-property! " + fn_expr + " \"threads\" 8)");
  EXPECT_EQ(run(interp_, "(get-property " + fn_expr + " \"threads\")").as_int(),
            8);
  EXPECT_THROW(run(interp_, "(get-property " + fn_expr + " \"nope\")"),
               AlterError);
  // Property lists convert both ways.
  const std::string port_expr =
      "(first (descendants-of-type (model-root) \"port\"))";
  EXPECT_EQ(
      run(interp_, "(nth 1 (get-property " + port_expr + " \"dims\"))").as_int(),
      4);
}

TEST_F(ModelBuiltinTest, AppHelpers) {
  const std::string app_expr =
      "(first (children-of-type (model-root) \"application\"))";
  EXPECT_EQ(run(interp_, "(length (app-functions " + app_expr + "))").as_int(),
            1);
  EXPECT_EQ(run(interp_,
                "(length (function-ports (find-function " + app_expr +
                    " \"f1\")))")
                .as_int(),
            1);
  EXPECT_EQ(run(interp_, "(datatype-bytes (model-root) \"cfloat\")").as_int(),
            8);
  EXPECT_EQ(run(interp_,
                "(length (filter (lambda (k) (string-prefix? \"param_\" k)) "
                "(property-names (find-function " + app_expr +
                    " \"f1\"))))")
                .as_int(),
            1);
}

TEST_F(ModelBuiltinTest, SaveModelProducesRepositoryText) {
  const Value text = run(interp_, "(save-model (model-root))");
  ASSERT_TRUE(text.is_string());
  EXPECT_NE(text.as_string().find("openSAGE model repository"),
            std::string::npos);
  // Round-trips through the loader.
  const auto loaded = model::load_model(text.as_string());
  EXPECT_EQ(loaded->dump(), workspace_->root().dump());
}

TEST(ModelBuiltinErrorTest, NoModelAttached) {
  Interpreter interp;
  EXPECT_THROW(interp.eval_string("(model-root)"), AlterError);
}

}  // namespace
}  // namespace sage::alter
