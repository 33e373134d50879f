#include "io/case_io.hpp"

#include "support/strings.hpp"

namespace mlsi::io {

using json::Array;
using json::Object;
using json::Value;
using synth::BindingPolicy;
using synth::ProblemSpec;

Result<ProblemSpec> spec_from_json(const Value& doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("case document must be a JSON object");
  }
  ProblemSpec spec;
  spec.name = doc.get_string("name", "unnamed");
  const auto pins_per_side =
      json::read_int(doc.find("pins_per_side"), "pins_per_side");
  if (!pins_per_side.ok()) return pins_per_side.status();
  spec.pins_per_side = *pins_per_side;
  spec.alpha = doc.get_number("alpha", 1.0);
  spec.beta = doc.get_number("beta", 100.0);
  const auto max_sets = json::read_int(doc.find("max_sets"), "max_sets");
  if (!max_sets.ok()) return max_sets.status();
  spec.max_sets = *max_sets;

  const Value* modules = doc.find("modules");
  if (modules == nullptr || !modules->is_array()) {
    return Status::InvalidArgument("case needs a 'modules' array");
  }
  for (const Value& m : modules->as_array()) {
    if (!m.is_string()) {
      return Status::InvalidArgument("module names must be strings");
    }
    spec.modules.push_back(m.as_string());
  }

  const Value* flows = doc.find("flows");
  if (flows == nullptr || !flows->is_array()) {
    return Status::InvalidArgument("case needs a 'flows' array");
  }
  for (const Value& f : flows->as_array()) {
    const std::string from = f.get_string("from", "");
    const std::string to = f.get_string("to", "");
    const int src = spec.module_index(from);
    const int dst = spec.module_index(to);
    if (src < 0 || dst < 0) {
      return Status::InvalidArgument(
          cat("flow references unknown module '", src < 0 ? from : to, "'"));
    }
    spec.flows.push_back(synth::FlowSpec{src, dst});
  }

  if (const Value* conflicts = doc.find("conflicts"); conflicts != nullptr) {
    if (!conflicts->is_array()) {
      return Status::InvalidArgument("'conflicts' must be an array of pairs");
    }
    for (const Value& c : conflicts->as_array()) {
      if (!c.is_array() || c.as_array().size() != 2) {
        return Status::InvalidArgument("each conflict must be a flow pair");
      }
      const auto a = json::read_int(&c.as_array()[0], "conflicts");
      if (!a.ok()) return a.status();
      const auto b = json::read_int(&c.as_array()[1], "conflicts");
      if (!b.ok()) return b.status();
      spec.conflicts.emplace_back(*a, *b);
    }
  }

  const auto policy =
      synth::binding_policy_from_string(doc.get_string("policy", "unfixed"));
  if (!policy.ok()) return policy.status();
  spec.policy = *policy;

  if (const Value* order = doc.find("clockwise_order"); order != nullptr) {
    if (!order->is_array()) {
      return Status::InvalidArgument(
          "'clockwise_order' must be an array of module names");
    }
    for (const Value& m : order->as_array()) {
      if (!m.is_string()) {
        return Status::InvalidArgument(
            "'clockwise_order' must be an array of module names");
      }
      const int idx = spec.module_index(m.as_string());
      if (idx < 0) {
        return Status::InvalidArgument(
            cat("clockwise_order references unknown module '", m.as_string(), "'"));
      }
      spec.clockwise_order.push_back(idx);
    }
  }
  if (const Value* binding = doc.find("fixed_binding"); binding != nullptr) {
    if (!binding->is_object()) {
      return Status::InvalidArgument("'fixed_binding' must map module -> pin");
    }
    for (const auto& [name, pin] : binding->as_object()) {
      const int idx = spec.module_index(name);
      if (idx < 0) {
        return Status::InvalidArgument(
            cat("fixed_binding references unknown module '", name, "'"));
      }
      const auto pin_index = json::read_int(&pin, "fixed_binding");
      if (!pin_index.ok()) return pin_index.status();
      spec.fixed_binding.push_back(synth::ModulePin{idx, *pin_index});
    }
  }

  const Status valid = spec.validate();
  if (!valid.ok()) return valid;
  return spec;
}

Result<ProblemSpec> load_spec(const std::string& path) {
  auto doc = json::parse_file(path);
  if (!doc.ok()) return doc.status();
  return spec_from_json(*doc);
}

Value spec_to_json(const ProblemSpec& spec) {
  Object obj;
  obj["name"] = Value{spec.name};
  obj["pins_per_side"] = Value{spec.pins_per_side};
  obj["alpha"] = Value{spec.alpha};
  obj["beta"] = Value{spec.beta};
  obj["max_sets"] = Value{spec.max_sets};
  Array modules;
  for (const auto& m : spec.modules) modules.emplace_back(m);
  obj["modules"] = Value{std::move(modules)};
  Array flows;
  for (const auto& f : spec.flows) {
    Object fo;
    fo["from"] = Value{spec.modules[static_cast<std::size_t>(f.src_module)]};
    fo["to"] = Value{spec.modules[static_cast<std::size_t>(f.dst_module)]};
    flows.emplace_back(std::move(fo));
  }
  obj["flows"] = Value{std::move(flows)};
  Array conflicts;
  for (const auto& [a, b] : spec.conflicts) {
    conflicts.emplace_back(Array{Value{a}, Value{b}});
  }
  obj["conflicts"] = Value{std::move(conflicts)};
  obj["policy"] = Value{std::string{to_string(spec.policy)}};
  if (!spec.clockwise_order.empty()) {
    Array order;
    for (const int m : spec.clockwise_order) {
      order.emplace_back(spec.modules[static_cast<std::size_t>(m)]);
    }
    obj["clockwise_order"] = Value{std::move(order)};
  }
  if (!spec.fixed_binding.empty()) {
    Object binding;
    for (const auto& mp : spec.fixed_binding) {
      binding[spec.modules[static_cast<std::size_t>(mp.module)]] =
          Value{mp.pin_index};
    }
    obj["fixed_binding"] = Value{std::move(binding)};
  }
  return Value{std::move(obj)};
}

Status save_spec(const std::string& path, const ProblemSpec& spec) {
  return json::write_file(path, spec_to_json(spec));
}

Value result_to_json(const arch::SwitchTopology& topo,
                     const ProblemSpec& spec,
                     const synth::SynthesisResult& result) {
  // Members in key order, so each one appends (see json::Object).
  Object obj;
  Object binding;
  for (int m = 0; m < spec.num_modules(); ++m) {
    const int pin = result.binding[static_cast<std::size_t>(m)];
    if (pin >= 0) {
      binding[spec.modules[static_cast<std::size_t>(m)]] =
          Value{topo.vertex(pin).name};
    }
  }
  obj["binding"] = Value{std::move(binding)};
  obj["case"] = Value{spec.name};
  obj["control_inlets"] = Value{result.num_pressure_groups};
  obj["cuts_applied"] = Value{static_cast<double>(result.stats.cuts_applied)};
  obj["cuts_dropped"] = Value{static_cast<double>(result.stats.cuts_dropped)};
  obj["cuts_generated"] =
      Value{static_cast<double>(result.stats.cuts_generated)};
  obj["engine"] = Value{result.stats.engine};
  obj["flow_length_mm"] = Value{result.flow_length_mm};

  Array flows;
  flows.reserve(result.routed.size());
  for (const synth::RoutedFlow& rf : result.routed) {
    Object fo;
    const synth::FlowSpec& fs = spec.flows[static_cast<std::size_t>(rf.flow)];
    fo["from"] = Value{spec.modules[static_cast<std::size_t>(fs.src_module)]};
    Array segs;
    segs.reserve(rf.path.segments.size());
    for (const int sid : rf.path.segments) {
      segs.emplace_back(topo.segment(sid).name);
    }
    fo["path"] = Value{std::move(segs)};
    fo["set"] = Value{rf.set};
    fo["to"] = Value{spec.modules[static_cast<std::size_t>(fs.dst_module)]};
    flows.push_back(Value{std::move(fo)});
  }
  obj["flows"] = Value{std::move(flows)};

  obj["lp_cold_starts"] = Value{static_cast<double>(result.stats.cold_starts)};
  obj["lp_factorizations"] =
      Value{static_cast<double>(result.stats.lp_factorizations)};
  obj["lp_iterations"] =
      Value{static_cast<double>(result.stats.lp_iterations)};
  obj["lp_warm_starts"] = Value{static_cast<double>(result.stats.warm_starts)};
  obj["nodes"] = Value{static_cast<double>(result.stats.nodes)};
  obj["num_sets"] = Value{result.num_sets};
  obj["num_valves"] = Value{result.num_valves()};
  obj["objective"] = Value{result.objective};
  obj["policy"] = Value{std::string{to_string(spec.policy)}};
  obj["proven_optimal"] = Value{result.stats.proven_optimal};
  obj["runtime_s"] = Value{result.stats.runtime_s};
  obj["switch"] = Value{topo.name()};

  Array valves;
  valves.reserve(result.essential_valves.size());
  for (std::size_t i = 0; i < result.essential_valves.size(); ++i) {
    Object vo;
    if (i < result.pressure_group.size()) {
      vo["pressure_group"] = Value{result.pressure_group[i]};
    }
    vo["segment"] = Value{topo.segment(result.essential_valves[i]).name};
    std::string states;
    for (const auto& per_set : result.valve_states) {
      states += to_char(per_set[i]);
    }
    vo["states"] = Value{std::move(states)};
    valves.push_back(Value{std::move(vo)});
  }
  obj["valves"] = Value{std::move(valves)};
  obj["version"] = Value{kResultSchemaVersion};
  return Value{std::move(obj)};
}

}  // namespace mlsi::io
