// The three workloads of the benchmark and the per-layer replays of traced
// runs. Every run function reports into a Report; `rec` is null for
// untraced runs (end-to-end metrics) and the started global trace recorder
// for traced runs (per-layer metrics).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/compressive_acquisitor.hpp"

namespace perfbench {

void run_serve_lenet(const Args& args, Report& r, Tracer* rec);
void run_capture_vgg9(const Args& args, Report& r, Tracer* rec);
void run_physical_mc_lenet(const Args& args, Report& r, Tracer* rec);

/// What report_serve_layers measured beyond the metrics it reports.
struct ServeLayers {
  double loaded_rps = 0.0;               // traced loaded-phase throughput
  std::vector<double> one_in_flight_ms;  // traced one-in-flight latencies
};

/// Runs the serve_lenet server phases traced for `seconds` on `frames` and
/// reports the serve.* per-layer metrics. Traced runs of the other
/// workloads call it on probe frames so every traced run reports them.
ServeLayers report_serve_layers(const Args& args, Report& r, Tracer& rec,
                                const std::vector<lt::tensor::Tensor>& frames,
                                double seconds);

/// Inputs a workload hands to the shared per-layer replays. Empty members
/// are replaced by seeded probe inputs of the same shape as the workload
/// that owns them.
struct LayerInputs {
  std::vector<lt::sensor::Image> scenes;
  std::optional<lt::core::CaOptions> ca;
  std::uint64_t sensor_seed = 1;
  std::vector<lt::tensor::Tensor> lenet_frames;  // [1, 1, 28, 28]
  std::vector<lt::tensor::Tensor> vgg9_frames;   // [1, 3, 32, 32]
};

/// Replays sensor, CA, the LeNet and VGG9 GEMM forwards, the physical
/// backend and one optical arm, reporting their per-layer metrics.
void report_layers(const Args& args, Report& r, Tracer& rec,
                   LayerInputs inputs);

/// Replays one one-scene capture_and_infer call layer by layer (sensor
/// capture, demosaic, CA, CompiledModel::run on `ctx`) under spans nested in
/// a "replay" span. Returns the summed layer seconds (the replay span's time
/// minus its self time); `logits` receives the replayed output row.
double replay_capture_call(const lt::core::LightatorSystem& sys,
                           const lt::sensor::Image& scene,
                           const lt::core::CaOptions& ca,
                           std::uint64_t sensor_seed,
                           const lt::core::CompiledModel& model,
                           lt::core::ExecutionContext& ctx, Tracer& rec,
                           std::uint64_t id, std::vector<float>& logits);

/// Reports compiler.compile_ms: the median of repeated Engine::compile calls
/// with default CompileOptions on `backend`.
void report_compile(Report& r, const lt::core::LightatorSystem& sys,
                    const lt::nn::Network& net, const std::string& backend,
                    int repeats);

/// Self-time coverage check: the traced end-to-end calls against what the
/// replayed layers explain. Both vectors hold one value per replayed call;
/// the median of explained/e2e must lie within 1 +- tolerance. `cpu` is the
/// CPU the calls and replays were pinned to (OneCpu::cpu()), for the run
/// info.
void check_coverage(Report& r, const std::string& name,
                    const std::vector<double>& e2e,
                    const std::vector<double>& explained, double tolerance,
                    int cpu);

/// Relative tolerance of the coverage checks.
inline constexpr double kCoverageTolerance = 0.25;

}  // namespace perfbench
