// Model-traversal Alter builtins: the "direct interface to the contents
// of a SAGE model". These let an Alter program walk the object graph,
// read and write properties, and resolve application-level concepts
// (functions, ports, arcs) without C++ help.
#include "alter/interp.hpp"
#include "model/app.hpp"
#include "model/hardware.hpp"
#include "model/object.hpp"
#include "model/serialize.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace sage::alter {

namespace {

void expect_args(const std::string& name, const ValueList& args,
                 std::size_t count) {
  SAGE_CHECK_AS(AlterError, args.size() == count, "(", name, " ...) takes ",
                count, " args, got ", args.size());
}

/// PropertyValue -> Alter value.
Value from_property(const model::PropertyValue& prop) {
  if (prop.is_nil()) return Value::nil();
  if (prop.is_bool()) return Value(prop.as_bool());
  if (prop.is_int()) return Value(prop.as_int());
  if (prop.is_double()) return Value(prop.as_double());
  if (prop.is_string()) return Value(prop.as_string());
  ValueList items;
  for (const model::PropertyValue& item : prop.as_list()) {
    items.push_back(from_property(item));
  }
  return Value::list(std::move(items));
}

/// Alter value -> PropertyValue.
model::PropertyValue to_property(const Value& value) {
  if (value.is_nil()) return model::PropertyValue();
  if (value.is_bool()) return model::PropertyValue(value.as_bool());
  if (value.is_int()) return model::PropertyValue(value.as_int());
  if (value.is_real()) return model::PropertyValue(value.as_real());
  if (value.is_string()) return model::PropertyValue(value.as_string());
  if (value.is_symbol()) return model::PropertyValue(value.as_symbol().name);
  if (value.is_list()) {
    model::PropertyList items;
    for (const Value& item : value.as_list()) {
      items.push_back(to_property(item));
    }
    return model::PropertyValue(std::move(items));
  }
  raise<AlterError>("value cannot be stored as a property: ",
                    value.to_string());
}

Value object_list(const std::vector<model::ModelObject*>& objects) {
  ValueList out;
  out.reserve(objects.size());
  for (model::ModelObject* obj : objects) out.emplace_back(obj);
  return Value::list(std::move(out));
}

void def(Environment& env, const std::string& name,
         std::function<Value(Interpreter&, ValueList&)> fn) {
  env.define(name, Value::builtin(name, std::move(fn)));
}

}  // namespace

void install_model_builtins(Environment& env) {
  def(env, "model-root", [](Interpreter& in, ValueList& args) {
    expect_args("model-root", args, 0);
    SAGE_CHECK_AS(AlterError, in.model_root() != nullptr,
                  "no model attached to the interpreter");
    return Value(in.model_root());
  });

  def(env, "object-type", [](Interpreter&, ValueList& args) {
    expect_args("object-type", args, 1);
    return Value(args[0].as_object()->type());
  });
  def(env, "object-name", [](Interpreter&, ValueList& args) {
    expect_args("object-name", args, 1);
    return Value(args[0].as_object()->name());
  });
  def(env, "object-id", [](Interpreter&, ValueList& args) {
    expect_args("object-id", args, 1);
    return Value(static_cast<std::int64_t>(args[0].as_object()->id()));
  });
  def(env, "object-path", [](Interpreter&, ValueList& args) {
    expect_args("object-path", args, 1);
    return Value(args[0].as_object()->path());
  });
  def(env, "parent", [](Interpreter&, ValueList& args) {
    expect_args("parent", args, 1);
    model::ModelObject* p = args[0].as_object()->parent();
    return p == nullptr ? Value::nil() : Value(p);
  });
  def(env, "children", [](Interpreter&, ValueList& args) {
    expect_args("children", args, 1);
    ValueList out;
    for (const auto& c : args[0].as_object()->children()) {
      out.emplace_back(c.get());
    }
    return Value::list(std::move(out));
  });
  def(env, "children-of-type", [](Interpreter&, ValueList& args) {
    expect_args("children-of-type", args, 2);
    return object_list(
        args[0].as_object()->children_of_type(args[1].as_string()));
  });
  def(env, "descendants-of-type", [](Interpreter&, ValueList& args) {
    expect_args("descendants-of-type", args, 2);
    return object_list(
        args[0].as_object()->descendants_of_type(args[1].as_string()));
  });
  def(env, "find-child", [](Interpreter&, ValueList& args) {
    expect_args("find-child", args, 2);
    model::ModelObject* child =
        args[0].as_object()->find_child(args[1].as_string());
    return child == nullptr ? Value::nil() : Value(child);
  });

  def(env, "has-property?", [](Interpreter&, ValueList& args) {
    expect_args("has-property?", args, 2);
    return Value(args[0].as_object()->has_property(args[1].as_string()));
  });
  def(env, "get-property", [](Interpreter&, ValueList& args) {
    expect_args("get-property", args, 2);
    return from_property(
        args[0].as_object()->property(args[1].as_string()));
  });
  def(env, "get-property-or", [](Interpreter&, ValueList& args) {
    expect_args("get-property-or", args, 3);
    const model::ModelObject* obj = args[0].as_object();
    const std::string& key = args[1].as_string();
    if (!obj->has_property(key)) return args[2];
    return from_property(obj->property(key));
  });
  def(env, "set-property!", [](Interpreter&, ValueList& args) {
    expect_args("set-property!", args, 3);
    args[0].as_object()->set_property(args[1].as_string(),
                                      to_property(args[2]));
    return Value::nil();
  });

  // Application-level conveniences (thin wrappers over sage::model).
  def(env, "app-functions", [](Interpreter&, ValueList& args) {
    expect_args("app-functions", args, 1);
    return object_list(model::functions(*args[0].as_object()));
  });
  def(env, "app-arcs", [](Interpreter&, ValueList& args) {
    expect_args("app-arcs", args, 1);
    return object_list(model::arcs(*args[0].as_object()));
  });
  def(env, "app-topological-order", [](Interpreter&, ValueList& args) {
    expect_args("app-topological-order", args, 1);
    return object_list(model::topological_order(*args[0].as_object()));
  });
  def(env, "find-function", [](Interpreter&, ValueList& args) {
    expect_args("find-function", args, 2);
    return Value(
        &model::find_function(*args[0].as_object(), args[1].as_string()));
  });
  def(env, "function-ports", [](Interpreter&, ValueList& args) {
    expect_args("function-ports", args, 1);
    return object_list(args[0].as_object()->children_of_type("port"));
  });
  def(env, "find-port", [](Interpreter&, ValueList& args) {
    expect_args("find-port", args, 2);
    return Value(&model::find_port(*args[0].as_object(), args[1].as_string()));
  });
  def(env, "property-names", [](Interpreter&, ValueList& args) {
    expect_args("property-names", args, 1);
    ValueList out;
    for (const auto& [key, value] : args[0].as_object()->properties()) {
      out.emplace_back(key);
    }
    return Value::list(std::move(out));
  });
  def(env, "string-prefix?", [](Interpreter&, ValueList& args) {
    expect_args("string-prefix?", args, 2);  // (string-prefix? prefix s)
    return Value(
        support::starts_with(args[1].as_string(), args[0].as_string()));
  });
  def(env, "processor-rank", [](Interpreter&, ValueList& args) {
    expect_args("processor-rank", args, 2);  // (processor-rank hw name)
    return Value(static_cast<std::int64_t>(
        model::processor_rank(*args[0].as_object(), args[1].as_string())));
  });
  def(env, "hardware-node-count", [](Interpreter&, ValueList& args) {
    expect_args("hardware-node-count", args, 1);
    return Value(static_cast<std::int64_t>(
        model::processors(*args[0].as_object()).size()));
  });
  def(env, "save-model", [](Interpreter&, ValueList& args) {
    expect_args("save-model", args, 1);
    return Value(model::save_model(*args[0].as_object()));
  });
  def(env, "datatype-bytes", [](Interpreter& in, ValueList& args) {
    expect_args("datatype-bytes", args, 2);
    // args: root object, datatype name.
    (void)in;
    return Value(static_cast<std::int64_t>(
        model::datatype_bytes(*args[0].as_object(), args[1].as_string())));
  });
}

}  // namespace sage::alter
