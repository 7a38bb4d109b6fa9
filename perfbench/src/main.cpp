// Executor half of the perfbench benchmark (run.py is the other half).
//
// Reads one command per line on stdin and answers each with one JSON
// line on stdout. run.py owns the workloads, the seed, the clock budget,
// the statistics and the output checks; this program only runs what it
// is told and times it, so all the policy stays in one testable place.
//
//   setup <spec>|<spec>|...   reset state, build inputs, run warm-up ops
//   pass <0|1> <spec>|...     one workload pass, traced (1) or not (0)
//   probe <layer> [args]      per-layer probe (see probes.hpp)
//   trace <path>              write the recorded spans as a Chrome trace
//   status                    peak RSS, peak thread count, optimised build
//   quit
//
// Nothing else is printed to stdout.

#include <sys/resource.h>

#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/timing.hpp"
#include "json.hpp"
#include "probes.hpp"
#include "runtime/thread_pool.hpp"
#include "spans.hpp"
#include "workload.hpp"

using namespace perfbench;
using syclport::WallTimer;

namespace {

#ifdef __OPTIMIZE__
constexpr bool kOptimised = true;
#else
constexpr bool kOptimised = false;
#endif

std::vector<OpSpec> parse_specs(const std::string& list) {
  std::vector<OpSpec> specs;
  std::istringstream in(list);
  std::string one;
  while (std::getline(in, one, '|'))
    if (one.find_first_not_of(' ') != std::string::npos)
      specs.push_back(parse_spec(one));
  return specs;
}

std::string join_ops(const std::vector<std::string>& ops) {
  std::string s = "[";
  for (std::size_t i = 0; i < ops.size(); ++i)
    s += (i ? "," : "") + ops[i];
  return s + "]";
}

std::string handle(Executor& ex, const std::string& line) {
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  std::string rest;
  std::getline(in, rest);

  if (cmd == "setup") {
    const auto specs = parse_specs(rest);
    WallTimer t;
    ex.reset();
    (void)syclport::rt::ThreadPool::global();
    std::vector<std::string> ops;
    for (const OpSpec& s : specs) {
      if (s.kind == "mgcfd") (void)ex.mesh(s.grid);
      ops.push_back(ex.run(s));
    }
    JsonObject j;
    j.num("setup_s", t.seconds()).raw("ops", join_ops(ops));
    return j.done();
  }
  if (cmd == "pass") {
    std::istringstream r(rest);
    int traced = 0;
    r >> traced;
    std::string list;
    std::getline(r, list);
    const auto specs = parse_specs(list);
    spans().enabled = traced != 0;
    std::vector<std::string> ops;
    std::string pp;
    WallTimer t;
    {
      Span span("pass", "bench");
      ex.begin_pass();
      for (const OpSpec& s : specs) ops.push_back(ex.run(s));
      pp = ex.end_pass();
    }
    const double wall = t.seconds();
    spans().enabled = false;
    JsonObject j;
    j.num("pass_s", wall).raw("ops", join_ops(ops)).raw("pp", pp);
    return j.done();
  }
  if (cmd == "probe") {
    std::istringstream r(rest);
    std::string layer;
    r >> layer;
    spans().enabled = true;
    std::string metrics;
    if (layer == "runtime" || layer == "ops" || layer == "machine") {
      std::size_t big_bytes = 0, dot_n = 0;
      r >> big_bytes >> dot_n;
      if (big_bytes == 0) throw std::invalid_argument("probe needs big_bytes");
      metrics = layer == "runtime" ? probe_runtime(big_bytes)
                : layer == "ops"   ? probe_ops(big_bytes, dot_n)
                                   : probe_machine(big_bytes);
    } else if (layer == "sycl") {
      metrics = probe_sycl();
    } else if (layer == "op2") {
      std::string spec;
      std::getline(r, spec);
      metrics = probe_op2(ex.mesh(parse_spec(spec).grid));
    } else if (layer == "study") {
      metrics = probe_study();
    } else {
      throw std::invalid_argument("unknown probe '" + layer + "'");
    }
    spans().enabled = false;
    JsonObject j;
    j.raw("metrics", metrics);
    return j.done();
  }
  if (cmd == "trace") {
    std::string path;
    std::istringstream(rest) >> path;
    JsonObject j;
    j.boolean("written", spans().write_chrome(path))
        .integer("spans", static_cast<long long>(spans().size()));
    return j.done();
  }
  if (cmd == "status") {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    JsonObject j;
    j.num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
        .integer("threads_peak", sample_threads_peak())
        .boolean("optimised", kOptimised);
    return j.done();
  }
  throw std::invalid_argument("unknown command '" + cmd + "'");
}

}  // namespace

int main() {
  std::ios::sync_with_stdio(false);
  Executor ex;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit") break;
    std::string reply;
    try {
      reply = handle(ex, line);
    } catch (const std::exception& e) {
      spans().enabled = false;
      JsonObject j;
      j.str("fatal", e.what());
      reply = j.done();
    }
    (void)sample_threads_peak();
    std::cout << reply << '\n' << std::flush;
  }
  return 0;
}
