#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>

#include "arch/crossbar.hpp"
#include "sim/simulator.hpp"
#include "support/strings.hpp"
#include "synth/pressure.hpp"

namespace perfbench {

using mlsi::cat;
using mlsi::json::Object;
using mlsi::json::Value;

void MetricTable::add(const std::string& name, double value,
                      const std::string& unit) {
  rows_.push_back({name, value, unit});
}

void MetricTable::print_rows() const {
  for (const Row& r : rows_) {
    std::printf("  %-40s %16.6f %s\n", r.name.c_str(), r.value, r.unit.c_str());
  }
}

Value MetricTable::to_json() const {
  Object o;
  for (const Row& r : rows_) {
    Object m;
    m["value"] = Value{r.value};
    m["unit"] = Value{r.unit};
    o[r.name] = Value{std::move(m)};
  }
  return Value{std::move(o)};
}

void RunOutcome::fail(std::string what, long count) {
  failed += count;
  if (failures.size() < 10) failures.push_back(std::move(what));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double proc_status_mb(const std::string& field) {
  // Not getrusage(): ru_maxrss keeps the peak of the image this process
  // exec'd from (the Python wrapper).
  const std::string key = field + ":";
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind(key, 0) == 0) return std::stod(line.substr(key.size())) / 1024.0;
  }
  return 0.0;
}

namespace {

const double kHistLogMin = std::log(1e-4);
const double kHistLogMax = std::log(1e6);
const double kHistLogStep = std::log1p(1e-3);
const auto kHistBuckets =
    static_cast<std::size_t>((kHistLogMax - kHistLogMin) / kHistLogStep) + 1;

}  // namespace

void LatencyHistogram::add(double ms) {
  if (buckets_.empty()) buckets_.assign(kHistBuckets, 0);
  const double x = std::clamp(std::log(ms), kHistLogMin, kHistLogMax);
  const auto b = static_cast<std::size_t>((x - kHistLogMin) / kHistLogStep);
  ++buckets_[std::min(b, kHistBuckets - 1)];
  ++count_;
  log_sum_ += x;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.buckets_.empty()) return;
  if (buckets_.empty()) buckets_.assign(kHistBuckets, 0);
  for (std::size_t b = 0; b < kHistBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
  log_sum_ += other.log_sum_;
}

double LatencyHistogram::at_rank(long rank) const {
  long below = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const long in = buckets_[b];
    if (rank < below + in) {
      const double offset = (static_cast<double>(rank - below) + 0.5) /
                            static_cast<double>(in);
      return std::exp(kHistLogMin +
                      (static_cast<double>(b) + offset) * kHistLogStep);
    }
    below += in;
  }
  return std::exp(kHistLogMax);
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double pos = q * static_cast<double>(count_ - 1);
  const auto lo = static_cast<long>(std::floor(pos));
  const long hi = std::min(lo + 1, count_ - 1);
  const double a = at_rank(lo);
  return a + (pos - static_cast<double>(lo)) * (at_rank(hi) - a);
}

double LatencyHistogram::geomean() const {
  return count_ == 0 ? 0.0 : std::exp(log_sum_ / static_cast<double>(count_));
}

int SpanLog::begin(const char* name, long input) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, parent, input, now_ns(), 0});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLog::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  open_.pop_back();
}

std::map<std::string, double> SpanLog::self_ms(long first_input,
                                               long last_input) const {
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    self[i] += dur;
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= dur;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.input >= first_input && s.input < last_input) out[s.name] += self[i];
  }
  return out;
}

void write_trace(const std::string& path,
                 const std::vector<const SpanLog*>& logs,
                 std::size_t max_spans) {
  std::ofstream out(path);
  if (!out) return;
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t tid = 0; tid < logs.size(); ++tid) {
    const auto& spans = logs[tid]->spans();
    for (std::size_t i = 0; i < spans.size() && i < max_spans; ++i) {
      const SpanLog::Span& s = spans[i];
      out << (first ? "" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"input\":" << s.input << ",\"parent\":" << s.parent
          << "}}";
      first = false;
    }
  }
  out << "]}\n";
}

std::map<std::string, Verdict> load_reference(const std::string& dir,
                                              const std::string& workload,
                                              std::string* error) {
  const std::string path = cat(dir, "/", workload, ".json");
  auto doc = mlsi::json::parse_file(path);
  if (!doc.ok()) {
    *error = cat("cannot read ", path, ": ", doc.status().message());
    return {};
  }
  const Value* entries = doc->find("entries");
  if (entries == nullptr || !entries->is_array()) {
    *error = cat(path, ": no \"entries\" array");
    return {};
  }
  std::map<std::string, Verdict> out;
  for (const Value& e : entries->as_array()) {
    const std::string name = e.get_string("name", "");
    const std::string verdict = e.get_string("verdict", "");
    if (name.empty() || (verdict != "optimal" && verdict != "infeasible")) {
      *error = cat(path, ": malformed entry ", e.dump());
      return {};
    }
    out[name] = Verdict{verdict == "infeasible", e.get_number("objective", 0.0)};
  }
  return out;
}

std::string compare_verdict(const Verdict& expected, const Verdict& got) {
  if (expected.infeasible != got.infeasible) {
    return expected.infeasible ? "expected infeasible, got a design"
                               : "expected a design, got infeasible";
  }
  if (!expected.infeasible &&
      std::abs(expected.objective - got.objective) >
          1e-6 * std::max(1.0, std::abs(expected.objective))) {
    return cat("objective ", got.objective, ", expected ", expected.objective);
  }
  return "";
}

const DesignChecker::Model& DesignChecker::model_for(int pins_per_side) {
  Model& m = models_[pins_per_side];
  if (m.topo == nullptr) {
    m.topo = std::make_unique<mlsi::arch::SwitchTopology>(
        mlsi::arch::make_crossbar(pins_per_side));
    m.paths = std::make_unique<mlsi::arch::PathSet>(
        mlsi::arch::enumerate_paths(*m.topo));
  }
  return m;
}

std::string DesignChecker::check(const mlsi::synth::ProblemSpec& spec,
                                 const Value& doc, const Verdict& expected) {
  namespace synth = mlsi::synth;
  if (!doc.is_object()) return "result is not an object";
  const Verdict got{false, doc.get_number("objective", -1.0)};
  if (std::string v = compare_verdict(expected, got); !v.empty()) return v;
  if (!doc.get_bool("proven_optimal", false)) return "not proven optimal";

  const Model& model = model_for(spec.effective_pins_per_side());
  const mlsi::arch::SwitchTopology& topo = *model.topo;

  mlsi::sim::SwitchProgram program;
  program.topo = &topo;
  program.spec = &spec;
  program.num_sets = doc.get_int("num_sets", -1);
  if (program.num_sets < 1) return "bad num_sets";

  program.binding.assign(static_cast<std::size_t>(spec.num_modules()), -1);
  const Value* binding = doc.find("binding");
  if (binding == nullptr || !binding->is_object()) return "no binding";
  for (const auto& [module, pin] : binding->as_object()) {
    const int m = spec.module_index(module);
    const auto v = pin.is_string() ? topo.vertex_by_name(pin.as_string())
                                   : std::nullopt;
    if (m < 0 || !v) return cat("bad binding ", module);
    program.binding[static_cast<std::size_t>(m)] = *v;
  }
  // Every module sits on a pin the spec's policy allows; sim::validate only
  // checks that no two share one.
  std::vector<int> pin(program.binding.size());
  for (std::size_t m = 0; m < pin.size(); ++m) {
    pin[m] = topo.pin_index(program.binding[m]);
    if (pin[m] < 0) return cat("module ", spec.modules[m], " is not on a pin");
  }
  if (spec.policy == synth::BindingPolicy::kFixed) {
    for (const synth::ModulePin& mp : spec.fixed_binding) {
      if (pin[static_cast<std::size_t>(mp.module)] != mp.pin_index) {
        return cat("module ", spec.modules[static_cast<std::size_t>(mp.module)],
                   " is not on its fixed pin");
      }
    }
  } else if (spec.policy == synth::BindingPolicy::kClockwise) {
    // Pin indices along clockwise_order: one rotation of an increasing
    // sequence, so at most one cyclic descent.
    const std::vector<int>& order = spec.clockwise_order;
    int descents = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::size_t next = (i + 1) % order.size();
      descents += pin[static_cast<std::size_t>(order[i])] >
                  pin[static_cast<std::size_t>(order[next])];
    }
    if (descents > 1) return "binding breaks the clockwise order";
  }

  const Value* flows = doc.find("flows");
  if (flows == nullptr || !flows->is_array() ||
      flows->as_array().size() != spec.flows.size()) {
    return "flow list does not match the spec";
  }
  program.routed.resize(spec.flows.size());
  std::vector<bool> seen(spec.flows.size(), false);
  for (const Value& fo : flows->as_array()) {
    const int src = spec.module_index(fo.get_string("from", ""));
    const int dst = spec.module_index(fo.get_string("to", ""));
    int f = -1;
    for (int i = 0; i < spec.num_flows(); ++i) {
      const synth::FlowSpec& fs = spec.flows[static_cast<std::size_t>(i)];
      if (fs.src_module == src && fs.dst_module == dst) f = i;
    }
    if (f < 0 || seen[static_cast<std::size_t>(f)]) return "unknown or repeated flow";
    seen[static_cast<std::size_t>(f)] = true;
    std::vector<int> segments;
    const Value* path = fo.find("path");
    if (path == nullptr || !path->is_array()) return "flow without path";
    for (const Value& s : path->as_array()) {
      const auto id = s.is_string() ? topo.segment_by_name(s.as_string())
                                    : std::nullopt;
      if (!id) return "unknown path segment";
      segments.push_back(*id);
    }
    const int from_pin = program.binding[static_cast<std::size_t>(src)];
    const int to_pin = program.binding[static_cast<std::size_t>(dst)];
    if (from_pin < 0 || to_pin < 0) return "flow end is unbound";
    const mlsi::arch::Path* match = nullptr;
    for (const int pid : model.paths->between(from_pin, to_pin)) {
      if (model.paths->path(pid).segments == segments) {
        match = &model.paths->path(pid);
      }
    }
    if (match == nullptr) return "path is not a candidate between its pins";
    const int set = fo.get_int("set", -1);
    if (set < 0 || set >= program.num_sets) return "flow set out of range";
    program.routed[static_cast<std::size_t>(f)] = {f, set, *match};
  }
  program.used_segments = synth::union_segments(program.routed);

  const double length = synth::segments_length_mm(topo, program.used_segments);
  const double objective =
      spec.alpha * program.num_sets + spec.beta * length;
  if (std::abs(length - doc.get_number("flow_length_mm", -1.0)) > 1e-6 ||
      std::abs(objective - got.objective) > 1e-6) {
    return "length or objective does not recompute";
  }

  const Value* valves = doc.find("valves");
  if (valves == nullptr || !valves->is_array()) return "no valve list";
  synth::PressureGroups groups;
  program.valves.states.assign(static_cast<std::size_t>(program.num_sets), {});
  for (const Value& vo : valves->as_array()) {
    const auto id = topo.segment_by_name(vo.get_string("segment", ""));
    const std::string states = vo.get_string("states", "");
    if (!id || static_cast<int>(states.size()) != program.num_sets) {
      return "bad valve entry";
    }
    program.valves.valve_segments.push_back(*id);
    for (int s = 0; s < program.num_sets; ++s) {
      const char c = states[static_cast<std::size_t>(s)];
      if (c != 'O' && c != 'C' && c != 'X') return "bad valve state";
      program.valves.states[static_cast<std::size_t>(s)].push_back(
          static_cast<synth::ValveState>(c));
    }
    groups.group.push_back(vo.get_int("pressure_group", -1));
  }
  groups.num_groups = doc.get_int("control_inlets", -1);
  if (!synth::groups_valid(synth::valve_compatibility(program.valves.states),
                           groups)) {
    return "pressure groups share incompatible valves";
  }

  const mlsi::sim::ValidationReport report = mlsi::sim::validate(program);
  if (!report.ok()) return cat("flood simulation: ", report.summary());
  return "";
}

}  // namespace perfbench
