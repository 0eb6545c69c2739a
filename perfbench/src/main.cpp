// perfbench: one benchmark run of one workload.
//
//   perfbench --workload <serve_lenet|capture_vgg9|physical_mc_lenet>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints one JSON object on its last stdout line: operation counts, metrics
// (end-to-end when untraced, per-layer when traced), named checks, values to
// compare against perfbench/recorded.json, and run info. perfbench/run.py
// wraps it into the benchmark's result line. Traced runs record through the
// program's own obs::TraceRecorder and write its trace to
// <out-dir>/trace_<workload>.json (chrome://tracing format).
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.traced = value == "1";
    } else if (key == "--out-dir") {
      a.out_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    using RunFn = void (*)(const Args&, Report&, Tracer*);
    RunFn run = nullptr;
    if (args.workload == "serve_lenet") run = &run_serve_lenet;
    if (args.workload == "capture_vgg9") run = &run_capture_vgg9;
    if (args.workload == "physical_mc_lenet") run = &run_physical_mc_lenet;
    if (run == nullptr) {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    const HostCpu host = HostCpu::now();
    Report r;
    Tracer* rec = args.traced ? &Tracer::global() : nullptr;
    add_simulated_stats(r, lt::core::LightatorSystem(
                               lt::core::ArchConfig::defaults()));
    if (rec != nullptr) rec->start();
    run(args, r, rec);
    if (rec != nullptr) {
      finish_trace(*rec, r, args.out_dir + "/trace_" + args.workload + ".json");
    } else {
      r.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    }
    add_host_info(r, host);
    std::printf("%s\n", r.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
