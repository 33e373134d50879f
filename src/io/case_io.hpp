#pragma once

/// \file case_io.hpp
/// \brief JSON serialization of switch-synthesis cases and results.
///
/// Case file format (all fields of ProblemSpec):
/// \code{.json}
/// {
///   "name": "chip_sw1",
///   "pins_per_side": 3,
///   "modules": ["i10", "i11", "M1", "M2", "M3", "M4"],
///   "flows": [{"from": "i10", "to": "M4"}, {"from": "i11", "to": "M1"}],
///   "conflicts": [[0, 1]],
///   "policy": "clockwise",
///   "clockwise_order": ["i10", "M1", "M2", "i11", "M3", "M4"],
///   "fixed_binding": {"i10": 0, "M4": 5},
///   "alpha": 1, "beta": 100, "max_sets": 0
/// }
/// \endcode
/// clockwise_order is required for the clockwise policy; fixed_binding
/// (module name -> clockwise pin index) for the fixed policy.

#include <string>

#include "support/json.hpp"
#include "synth/result.hpp"
#include "synth/spec.hpp"

namespace mlsi::io {

/// Parses a case from a JSON document / file. The returned spec is
/// validate()d.
Result<synth::ProblemSpec> spec_from_json(const json::Value& doc);
Result<synth::ProblemSpec> load_spec(const std::string& path);

/// Serializes a spec (round-trips through spec_from_json).
json::Value spec_to_json(const synth::ProblemSpec& spec);
Status save_spec(const std::string& path, const synth::ProblemSpec& spec);

/// Version of the machine-readable result schema emitted by
/// result_to_json() (the "version" field). Bump on any breaking change to
/// field names or meanings; the full schema is documented in README.md.
/// History: v1 original; v2 adds an optional "metrics" section (the
/// process metrics snapshot) when metrics collection is enabled for the
/// run; v3 adds the MILP cutting-plane counters "cuts_generated",
/// "cuts_applied" and "cuts_dropped" (additive — v2 consumers that ignore
/// unknown keys keep working); v4 adds the learning-CP counters
/// "nogoods_recorded", "nogood_hits" and "restarts" (additive likewise);
/// v5 removes those three again, with the learning search they counted;
/// v6 removes the "metrics" section: a result document is its result
/// alone, and the snapshot goes only where --metrics-out writes it.
inline constexpr int kResultSchemaVersion = 6;

/// Serializes a synthesis result (for EXPERIMENTS.md-style records): the
/// schedule, binding, per-flow paths by segment names, lengths, valves and
/// pressure groups. The document carries "version" = kResultSchemaVersion
/// so downstream consumers can detect schema changes. It depends on its
/// arguments only: the same result gives the same document whatever
/// process-wide observability is switched on.
json::Value result_to_json(const arch::SwitchTopology& topo,
                           const synth::ProblemSpec& spec,
                           const synth::SynthesisResult& result);

}  // namespace mlsi::io
