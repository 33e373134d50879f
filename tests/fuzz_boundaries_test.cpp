// Deterministic mutation fuzz of the three input boundaries: case JSON
// (json::parse -> io::spec_from_json), serve request lines
// (Server::handle_line), and persistent-store replay followed by requests
// that hit the replayed entries. Seeds are the checked-in tests/data files,
// the lines of serve_requests.jsonl and a store written by a real Server;
// mutations are byte flips, inserts, deletes, splices between seeds and
// substituted extreme numbers. The seed and the iteration counts are fixed,
// so a failure reproduces exactly. Pass condition: every call returns a
// status or a response; nothing throws or aborts, and under the ASan/UBSan
// leg of scripts/check.sh nothing reads or writes memory it should not.
// Inputs that once crashed a boundary are kept below as named cases.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/case_io.hpp"
#include "serve/server.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace mlsi {
namespace {

const std::string kDataDir = MLSI_TEST_DATA_DIR;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::vector<std::string> case_seeds() {
  std::vector<std::string> seeds;
  for (const char* name :
       {"demo_case.json", "demo_clockwise.json", "chip_sw2_clockwise.json"}) {
    seeds.push_back(read_file(kDataDir + "/" + name));
  }
  return seeds;
}

std::vector<std::string> request_seeds() {
  return lines_of(read_file(kDataDir + "/serve_requests.jsonl"));
}

/// Applies one to three random edits to \p seed. \p pool supplies splice
/// material from the other seeds. A third of the edits swap in an extreme
/// number, which keeps the document parseable and so reaches the checks
/// behind the parser.
std::string mutate(std::string s, const std::vector<std::string>& pool,
                   Rng& rng) {
  static const char* const kExtremes[] = {"1e300", "-1", "2147483648", "0.5",
                                          "-1e300", "99999", "0"};
  static const char kBytes[] = "{}[]\",:-.0123456789eE \\n";
  const int edits = rng.next_int(1, 3);
  for (int e = 0; e < edits; ++e) {
    const auto pos = [&] {
      return static_cast<std::size_t>(rng.next_below(s.size() + 1));
    };
    switch (rng.next_int(0, 5)) {
      case 0:  // flip one bit
        if (!s.empty()) {
          const std::size_t i = pos() % s.size();
          s[i] = static_cast<char>(s[i] ^ (1 << rng.next_int(0, 7)));
        }
        break;
      case 1: {  // insert a byte, mostly JSON structure
        const char c = rng.next_bool(0.7)
                           ? kBytes[rng.next_below(sizeof(kBytes) - 1)]
                           : static_cast<char>(rng.next_below(256));
        s.insert(pos(), 1, c);
        break;
      }
      case 2: {  // delete up to 8 bytes
        const std::size_t i = pos();
        s.erase(i, static_cast<std::size_t>(rng.next_int(1, 8)));
        break;
      }
      case 3: {  // splice a chunk of another seed over a range of this one
        const std::string& other = pool[rng.next_below(pool.size())];
        const auto from = static_cast<std::size_t>(rng.next_below(other.size()));
        const auto len = static_cast<std::size_t>(rng.next_int(1, 64));
        s.replace(pos(), static_cast<std::size_t>(rng.next_int(0, 16)),
                  other.substr(from, len));
        break;
      }
      default: {  // replace one number with an extreme one
        std::vector<std::size_t> starts;
        for (std::size_t i = 0; i < s.size(); ++i) {
          const bool digit = s[i] >= '0' && s[i] <= '9';
          const bool prev_digit = i > 0 && s[i - 1] >= '0' && s[i - 1] <= '9';
          if (digit && !prev_digit) starts.push_back(i);
        }
        if (starts.empty()) break;
        const std::size_t i = starts[rng.next_below(starts.size())];
        std::size_t j = i;
        while (j < s.size() && ((s[j] >= '0' && s[j] <= '9') || s[j] == '.' ||
                                s[j] == 'e' || s[j] == 'E' || s[j] == '-' ||
                                s[j] == '+')) {
          ++j;
        }
        s.replace(i, j - i,
                  kExtremes[rng.next_below(sizeof(kExtremes) /
                                           sizeof(kExtremes[0]))]);
        break;
      }
    }
  }
  return s;
}

/// Runs \p call and reports an exception escaping it, with its input.
template <typename Call>
void expect_survives(const std::string& input, Call&& call) {
  try {
    call();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "threw " << e.what() << " on input:\n" << input;
  }
}

void parse_case(const std::string& text) {
  const auto doc = json::parse(text);
  if (!doc.ok()) return;
  const auto spec = io::spec_from_json(*doc);
  if (spec.ok()) (void)spec->validate();
}

/// A server whose every solve is bounded: the engine deadline is absolute
/// and starts now, so a mutated spec that still parses cannot run for long
/// whatever time limit its request line asks for.
serve::ServeOptions bounded_options(const std::string& persist_path) {
  serve::ServeOptions options;
  options.jobs = 1;
  options.queue_depth = 4;
  options.persist_path = persist_path;
  options.code_version = "fuzz";
  options.synth.engine_params.jobs = 1;
  options.synth.engine_params.deadline = Deadline::after(0.05);
  return options;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name + std::to_string(::getpid()) + ".jsonl";
}

TEST(FuzzBoundariesTest, CaseJsonParsesOrFailsWithAStatus) {
  const std::vector<std::string> seeds = case_seeds();
  Rng rng(0xC0FFEE);
  for (int i = 0; i < 50000; ++i) {
    const std::string input =
        mutate(seeds[rng.next_below(seeds.size())], seeds, rng);
    expect_survives(input, [&] { parse_case(input); });
  }
}

TEST(FuzzBoundariesTest, RequestLinesGetAResponse) {
  std::vector<std::string> seeds = request_seeds();
  ASSERT_FALSE(seeds.empty());
  Rng rng(0xFEED);
  for (int i = 0; i < 5000; ++i) {
    const std::string line =
        mutate(seeds[rng.next_below(seeds.size())], seeds, rng);
    expect_survives(line, [&] {
      serve::Server server(bounded_options(""));
      (void)server.handle_line(line);
    });
  }
}

TEST(FuzzBoundariesTest, StoreReplayThenHitsGetAResponse) {
  // The seed store: a real server answering every seed request.
  const std::vector<std::string> requests = request_seeds();
  const std::string seed_path = temp_path("fuzz_store_seed.");
  std::remove(seed_path.c_str());
  {
    serve::ServeOptions options = bounded_options(seed_path);
    options.synth.engine_params.deadline = Deadline{};
    serve::Server server(options);
    for (const std::string& line : requests) (void)server.handle_line(line);
  }
  const std::vector<std::string> store = lines_of(read_file(seed_path));
  std::remove(seed_path.c_str());
  ASSERT_GT(store.size(), 2u) << "the seed store holds no entries";

  const std::string path = temp_path("fuzz_store.");
  Rng rng(0x5707E);
  for (int i = 0; i < 1000; ++i) {
    // Mostly one mutated entry line; now and then the header too.
    std::vector<std::string> lines = store;
    const std::size_t target =
        rng.next_bool(0.1) ? 0 : 1 + rng.next_below(lines.size() - 1);
    lines[target] = mutate(lines[target], store, rng);
    std::string text;
    for (const std::string& line : lines) text += line + "\n";
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << text;
    }
    expect_survives(text, [&] {
      serve::Server server(bounded_options(path));
      for (const std::string& line : requests) (void)server.handle_line(line);
    });
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mlsi
