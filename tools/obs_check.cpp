/// \file obs_check.cpp
/// \brief Validator for the observability artifacts mlsi_synth and
/// mlsi_serve write.
///
/// Usage:
///   obs_check --trace FILE       Chrome trace-event JSON array
///   obs_check --metrics FILE --schema scripts/metrics_schema.json
///   obs_check --flight-rec FILE  flight-recorder JSONL dump
///
/// Any combination of the checks may be requested in one invocation; exit
/// status is 0 only when every requested check passes. scripts/check.sh
/// and the cli_obs_validates ctest case run this against a fresh mlsi_synth
/// run, so drift between the emitters and the documented formats fails CI
/// instead of surfacing in a Perfetto import error months later.
///
/// Checks, per artifact:
///  - trace: parses as a JSON array; every event carries name/cat/ph/ts/
///    pid/tid with the right types; ph is "X" (with a non-negative dur),
///    "i", or a "B"/"E" pair — B/E events must balance per thread (depth
///    never goes negative, every span is closed) and every thread's
///    timestamps must be monotonically non-decreasing; "args", when
///    present (the search-event instants carry their fields there), is an
///    object; at least one event is present.
///  - metrics: parses as an object whose "schema" is between 1 and the
///    checked-in schema's version (the schema only grows, so older
///    snapshots stay valid — additive-only) and whose counter/gauge/
///    histogram/series names are all declared there (unknown names mean
///    the schema file was not updated with the new instrument); histograms
///    must have coherent edges/counts arrays (counts.size == edges.size +
///    1) and, when present, ordered quantiles (p50 <= p95 <= p99).
///  - flight-rec: JSONL; each record carries a non-empty name and ph/ts/
///    dur/tid, with ph "B" or "E" (the recorder holds spans only) and
///    per-thread non-decreasing timestamps. Unlike --trace, B/E balance is
///    NOT enforced: ring wraparound legitimately drops a span's B, and a
///    wedged solve's span has no E — that trailing B is the evidence the
///    recorder exists to capture.

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace {

using mlsi::json::Value;

int g_failures = 0;

void fail(const std::string& what) {
  std::fprintf(stderr, "obs_check: FAIL: %s\n", what.c_str());
  ++g_failures;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fail("cannot open " + path);
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

bool is_integral_number(const Value& v) {
  if (!v.is_number()) return false;
  const double d = v.as_number();
  return d == static_cast<double>(static_cast<long long>(d));
}

// --- trace ----------------------------------------------------------------

void check_trace(const std::string& path) {
  std::string text;
  if (!read_file(path, text)) return;
  const auto doc = mlsi::json::parse(text);
  if (!doc.ok()) {
    fail("trace " + path + ": " + doc.status().to_string());
    return;
  }
  if (!doc->is_array()) {
    fail("trace " + path + ": top-level value is not a JSON array");
    return;
  }
  const auto& events = doc->as_array();
  if (events.empty()) {
    fail("trace " + path + ": no events recorded");
    return;
  }
  // Per-thread span depth (B increments, E decrements) and last-seen ts.
  std::map<long, long> depth;
  std::map<long, double> last_ts;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Value& ev = events[i];
    const std::string where = "trace " + path + " event " + std::to_string(i);
    if (!ev.is_object()) {
      fail(where + ": not a JSON object");
      continue;
    }
    const Value* name = ev.find("name");
    if (name == nullptr || !name->is_string() || name->as_string().empty()) {
      fail(where + ": missing or empty \"name\"");
    }
    const Value* cat = ev.find("cat");
    if (cat == nullptr || !cat->is_string()) {
      fail(where + ": missing \"cat\"");
    }
    std::string phase;
    const Value* ph = ev.find("ph");
    if (ph == nullptr || !ph->is_string()) {
      fail(where + ": missing \"ph\"");
    } else if (phase = ph->as_string(); phase == "X") {
      const Value* dur = ev.find("dur");
      if (dur == nullptr || !dur->is_number() || dur->as_number() < 0) {
        fail(where + ": complete event without a non-negative \"dur\"");
      }
    } else if (phase != "i" && phase != "B" && phase != "E") {
      fail(where + ": unexpected phase \"" + phase + "\"");
    }
    const Value* ts = ev.find("ts");
    if (ts == nullptr || !ts->is_number() || ts->as_number() < 0) {
      fail(where + ": missing or negative \"ts\"");
    }
    if (const Value* args = ev.find("args");
        args != nullptr && !args->is_object()) {
      fail(where + ": \"args\" is not an object");
    }
    const Value* pid = ev.find("pid");
    if (pid == nullptr || !is_integral_number(*pid)) {
      fail(where + ": missing integer \"pid\"");
    }
    const Value* tid = ev.find("tid");
    if (tid == nullptr || !is_integral_number(*tid)) {
      fail(where + ": missing integer \"tid\"");
      continue;
    }
    const long t = tid->as_int();
    if (ts != nullptr && ts->is_number()) {
      if (const auto it = last_ts.find(t);
          it != last_ts.end() && ts->as_number() < it->second) {
        fail(where + ": ts goes backwards on tid " + std::to_string(t));
      }
      last_ts[t] = ts->as_number();
    }
    if (phase == "B") {
      ++depth[t];
    } else if (phase == "E") {
      if (--depth[t] < 0) {
        fail(where + ": \"E\" without a matching \"B\" on tid " +
             std::to_string(t));
      }
    }
  }
  for (const auto& [t, d] : depth) {
    if (d > 0) {
      fail("trace " + path + ": " + std::to_string(d) +
           " unclosed \"B\" span(s) on tid " + std::to_string(t));
    }
  }
  std::fprintf(stderr, "obs_check: trace %s: %zu events across %zu threads\n",
               path.c_str(), events.size(), last_ts.size());
}

// --- metrics --------------------------------------------------------------

std::set<std::string> schema_names(const Value& schema, const char* section) {
  std::set<std::string> names;
  if (const Value* arr = schema.find(section);
      arr != nullptr && arr->is_array()) {
    for (const Value& v : arr->as_array()) {
      if (v.is_string()) names.insert(v.as_string());
    }
  }
  return names;
}

void check_metrics(const std::string& path, const std::string& schema_path) {
  std::string text;
  std::string schema_text;
  if (!read_file(path, text) || !read_file(schema_path, schema_text)) return;
  const auto doc = mlsi::json::parse(text);
  if (!doc.ok()) {
    fail("metrics " + path + ": " + doc.status().to_string());
    return;
  }
  const auto schema = mlsi::json::parse(schema_text);
  if (!schema.ok()) {
    fail("schema " + schema_path + ": " + schema.status().to_string());
    return;
  }
  if (!doc->is_object()) {
    fail("metrics " + path + ": top-level value is not a JSON object");
    return;
  }
  // Additive-only evolution: a snapshot from any schema version up to the
  // checked-in one stays valid, so old committed snapshots keep passing
  // when the schema grows.
  const Value* version = doc->find("schema");
  const Value* expected = schema->find("schema");
  if (version == nullptr || expected == nullptr ||
      !is_integral_number(*version) || version->as_int() < 1 ||
      version->as_int() > expected->as_int()) {
    fail("metrics " + path + ": \"schema\" must be in [1, " +
         (expected != nullptr && is_integral_number(*expected)
              ? std::to_string(expected->as_int())
              : std::string("?")) +
         "] per " + schema_path);
  }
  std::size_t instruments = 0;
  for (const char* section : {"counters", "gauges", "histograms", "series"}) {
    const std::set<std::string> known = schema_names(*schema, section);
    const Value* sec = doc->find(section);
    if (sec == nullptr || !sec->is_object()) {
      fail("metrics " + path + ": missing \"" + section + "\" object");
      continue;
    }
    for (const auto& [name, value] : sec->as_object()) {
      ++instruments;
      if (known.count(name) == 0) {
        fail("metrics " + path + ": " + section + " \"" + name +
             "\" not declared in " + schema_path +
             " (new instrument? add it to the schema)");
      }
      if (std::string_view{section} == "histograms") {
        const Value* edges = value.find("edges");
        const Value* counts = value.find("counts");
        if (edges == nullptr || counts == nullptr || !edges->is_array() ||
            !counts->is_array() ||
            counts->as_array().size() != edges->as_array().size() + 1) {
          fail("metrics " + path + ": histogram \"" + name +
               "\" needs counts.size == edges.size + 1");
        }
        // Quantiles are a schema-v2 addition; when present they must be
        // numbers in order (estimate_quantile is monotone in q).
        if (const Value* q = value.find("quantiles"); q != nullptr) {
          const Value* p50 = q->find("p50");
          const Value* p95 = q->find("p95");
          const Value* p99 = q->find("p99");
          if (p50 == nullptr || p95 == nullptr || p99 == nullptr ||
              !p50->is_number() || !p95->is_number() || !p99->is_number()) {
            fail("metrics " + path + ": histogram \"" + name +
                 "\" quantiles need numeric p50/p95/p99");
          } else if (p50->as_number() > p95->as_number() ||
                     p95->as_number() > p99->as_number()) {
            fail("metrics " + path + ": histogram \"" + name +
                 "\" quantiles out of order (need p50 <= p95 <= p99)");
          }
        }
      }
    }
  }
  std::fprintf(stderr, "obs_check: metrics %s: %zu instruments\n",
               path.c_str(), instruments);
}

// --- flight recorder dump ---------------------------------------------------

void check_flight_rec(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fail("cannot open " + path);
    return;
  }
  std::string line;
  std::size_t lineno = 0;
  std::size_t records = 0;
  std::map<long, double> last_ts;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::string where =
        "flight-rec " + path + " line " + std::to_string(lineno);
    const auto doc = mlsi::json::parse(line);
    if (!doc.ok()) {
      fail(where + ": " + doc.status().to_string());
      continue;
    }
    if (!doc->is_object()) {
      fail(where + ": not a JSON object");
      continue;
    }
    const Value* name = doc->find("name");
    if (name == nullptr || !name->is_string() || name->as_string().empty()) {
      fail(where + ": missing or empty \"name\"");
    }
    const Value* ph = doc->find("ph");
    if (ph == nullptr || !ph->is_string() ||
        (ph->as_string() != "B" && ph->as_string() != "E")) {
      fail(where + ": \"ph\" must be \"B\" or \"E\"");
    }
    const Value* dur = doc->find("dur");
    if (dur == nullptr || !dur->is_number() || dur->as_number() < 0) {
      fail(where + ": missing or negative \"dur\"");
    }
    const Value* ts = doc->find("ts");
    if (ts == nullptr || !ts->is_number() || ts->as_number() < 0) {
      fail(where + ": missing or negative \"ts\"");
    }
    const Value* tid = doc->find("tid");
    if (tid == nullptr || !is_integral_number(*tid)) {
      fail(where + ": missing integer \"tid\"");
      continue;
    }
    // Rings dump oldest-first per thread, so within a tid the timestamps
    // must never go backwards. B/E balance is deliberately NOT checked:
    // wraparound drops old B records and a wedged span never wrote its E.
    if (ts != nullptr && ts->is_number()) {
      const long t = tid->as_int();
      if (const auto it = last_ts.find(t);
          it != last_ts.end() && ts->as_number() < it->second) {
        fail(where + ": ts goes backwards on tid " + std::to_string(t));
      }
      last_ts[t] = ts->as_number();
    }
    ++records;
  }
  if (records == 0) {
    fail("flight-rec " + path + ": no records");
    return;
  }
  std::fprintf(stderr,
               "obs_check: flight-rec %s: %zu records across %zu threads\n",
               path.c_str(), records, last_ts.size());
}

int usage() {
  std::fprintf(
      stderr,
      "usage: obs_check [--trace FILE] [--metrics FILE --schema SCHEMA]\n"
      "                 [--flight-rec FILE]\n"
      "Validates mlsi_synth/mlsi_serve observability outputs; exits\n"
      "non-zero on any format violation.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string metrics_path;
  std::string schema_path;
  std::string flight_rec_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--trace") {
      if (const char* v = next()) trace_path = v; else return usage();
    } else if (arg == "--metrics") {
      if (const char* v = next()) metrics_path = v; else return usage();
    } else if (arg == "--schema") {
      if (const char* v = next()) schema_path = v; else return usage();
    } else if (arg == "--flight-rec") {
      if (const char* v = next()) flight_rec_path = v; else return usage();
    } else {
      return usage();
    }
  }
  if (trace_path.empty() && metrics_path.empty() && flight_rec_path.empty()) {
    return usage();
  }
  if (!metrics_path.empty() && schema_path.empty()) {
    std::fprintf(stderr, "obs_check: --metrics requires --schema\n");
    return 2;
  }
  if (!trace_path.empty()) check_trace(trace_path);
  if (!metrics_path.empty()) check_metrics(metrics_path, schema_path);
  if (!flight_rec_path.empty()) check_flight_rec(flight_rec_path);
  if (g_failures > 0) {
    std::fprintf(stderr, "obs_check: %d failure(s)\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "obs_check: OK\n");
  return 0;
}
