#include "serve/canonical.hpp"

#include <charconv>

#include "support/strings.hpp"

namespace mlsi::serve {

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

std::string fmt_exact(double v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, v,
                             std::chars_format::general, 17).ptr};
}

std::string_view reduction_name(synth::ValveReductionRule r) {
  return r == synth::ValveReductionRule::kNone ? "none" : "paper";
}

std::string_view pressure_name(synth::PressureMode p) {
  switch (p) {
    case synth::PressureMode::kOff: return "off";
    case synth::PressureMode::kGreedy: return "greedy";
    case synth::PressureMode::kIlp: return "ilp";
  }
  return "?";
}

}  // namespace

CanonicalRequest canonicalize(const synth::ProblemSpec& spec,
                              const synth::SynthesisOptions& options,
                              std::string_view code_version) {
  synth::CanonicalForm form = spec.canonical_form();
  CanonicalRequest req;
  req.module_to_canonical = std::move(form.module_to_canonical);
  req.flow_to_canonical = std::move(form.flow_to_canonical);
  req.key.text = cat(
      form.text, ";opt:engine=", options.engine,
      ",red=", reduction_name(options.reduction),
      ",press=", pressure_name(options.pressure),
      ",slack=", fmt_exact(options.path_options.slack_um),
      ",maxpp=", options.path_options.max_paths_per_pair,
      ";ver=", kCanonicalVersion, "/", code_version);
  req.key.hash = fnv1a64(req.key.text);
  return req;
}

}  // namespace mlsi::serve
