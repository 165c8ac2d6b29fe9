// openSAGE -- the Alter global environment.
//
// The by-name table that builtins and top-level (define ...)s live in.
// Lexical variables never reach it: the compiler resolves them to frame
// slots (alter/chunk.hpp), and only names bound in no enclosing scope
// compile to by-name accesses here.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "alter/value.hpp"
#include "support/error.hpp"

namespace sage::alter {

class Environment {
 public:
  /// Introduces (or rebinds) a global.
  void define(std::string_view name, Value value) {
    bindings_.insert_or_assign(std::string(name), std::move(value));
  }

  /// Rebinds an existing global; throws when unbound.
  void set(std::string_view name, Value value) {
    auto it = bindings_.find(name);
    if (it == bindings_.end()) {
      raise<AlterError>("set!: unbound variable '", std::string(name), "'");
    }
    it->second = std::move(value);
  }

  /// Looks up a global; throws when unbound.
  const Value& lookup(std::string_view name) const {
    auto it = bindings_.find(name);
    if (it == bindings_.end()) {
      raise<AlterError>("unbound variable '", std::string(name), "'");
    }
    return it->second;
  }

 private:
  std::map<std::string, Value, std::less<>> bindings_;
};

}  // namespace sage::alter
