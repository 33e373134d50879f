// Reproduces Figure 4.3: the scalable (Columba-S-compatible) renderings of
// the synthesized ChIP switch under all three binding policies. The
// scalable variant shares the flow-layer netlist with Figure 4.1 — what
// changes is the control-layer drawing: every valve's control channel runs
// vertically to the chip edge so columns can be driven by multiplexers.

#include <cstdio>

#include "arch/crossbar.hpp"
#include "bench_util.hpp"
#include "cases/cases.hpp"

int main() {
  using namespace mlsi;
  using synth::BindingPolicy;

  std::printf("Figure 4.3 — scalable ChIP renderings "
              "(Columba-S-compatible control columns)\n\n");
  bool all_ok = true;
  for (const BindingPolicy policy :
       {BindingPolicy::kFixed, BindingPolicy::kClockwise,
        BindingPolicy::kUnfixed}) {
    const synth::ProblemSpec spec = cases::chip_sw1(policy);
    synth::Synthesizer synthesizer(spec);
    auto result = synthesizer.synthesize();
    if (!result.ok()) {
      std::printf("  %-9s: %s\n", to_string(policy).data(),
                  result.status().to_string().c_str());
      all_ok = false;
      continue;
    }
    (void)sim::harden(synthesizer.topology(), spec, *result);
    io::SvgOptions options;
    options.scalable_layout = true;
    const std::string path =
        bench::out_dir() + "/fig43_scalable_" +
        std::string{to_string(policy)} + ".svg";
    const Status written = io::write_svg(
        path,
        io::render_result(synthesizer.topology(), spec, *result, options));
    std::printf("  %-9s: L=%smm #v=%d #s=%d -> %s\n", to_string(policy).data(),
                fmt_double(result->flow_length_mm, 1).c_str(),
                result->num_valves(), result->num_sets, path.c_str());
    all_ok = all_ok && written.ok();
  }
  // Also emit the bare 8/12/16-pin structures (Figures 2.3-2.6).
  for (const int k : {2, 3, 4}) {
    const arch::SwitchTopology topo = arch::make_crossbar(k);
    io::SvgOptions scalable;
    scalable.scalable_layout = true;
    (void)io::write_svg(bench::out_dir() + cat("/structure_", 4 * k, "pin.svg"),
                        io::render_structure(topo));
    (void)io::write_svg(
        bench::out_dir() + cat("/structure_", 4 * k, "pin_scalable.svg"),
        io::render_structure(topo, scalable));
    std::printf("  %d-pin structure rendered (plain + scalable)\n", 4 * k);
  }
  return all_ok ? 0 : 1;
}
