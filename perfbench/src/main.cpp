// Dump <-> restore benchmark: command line, timed loop and result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke]
//
// --trace 0 prints the end-to-end metrics of a steady stream of timed
// dump -> restore ops; --trace 1 prints the per-layer budget from the
// traced pass. Human-readable lines go first; the last line of stdout is
// one JSON object {"correct", "attempted", "failed", "metrics"}, followed
// by nothing. The exit code is non-zero when any op failed or broke the
// error bound. --smoke shrinks the fields for the benchmark's own test.

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.hpp"
#include "compress/simd/dispatch.hpp"
#include "support/timer.hpp"

namespace {

using perfbench::Env;
using perfbench::Metrics;
using perfbench::OpResult;

/// Setups per run; setup_s is their median.
constexpr int kSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      a.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 && (a.trace == 0 || a.trace == 1);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

/// Moves the calling thread to the next CPU of its affinity mask on each
/// step() and restores the mask on destruction. The vCPUs of a shared
/// guest differ in speed: on a 4-vCPU KVM guest, restore_latest pinned to
/// each vCPU in turn read 59-86 MB/s, and the same vCPU was fastest in two
/// rounds. The scheduler keeps a single-threaded process on one vCPU, so
/// each run measured the vCPU it landed on; stepping op by op makes every
/// run sample all of them alike. Only single-threaded work may step: a
/// thread started while pinned inherits the one-CPU mask.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        cpus_.push_back(cpu);
      }
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) {
      (void)sched_setaffinity(0, sizeof(saved_), &saved_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void step() {
    if (cpus_.empty()) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

struct EndToEnd {
  Metrics metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// One setup: field generation, pool start, the store's first generation
/// and an untimed warm-up of every op kind the run times. Returns nullptr
/// on failure.
std::unique_ptr<Env> set_up(const perfbench::WorkloadSpec& spec,
                            const Args& args, bool traced) {
  const bool stream_kind = spec.kind == perfbench::OpKind::kStream;
  // The traced pass keeps one field so its probes and ops see the same slabs.
  const std::size_t fields =
      stream_kind && !traced ? perfbench::kStreamFields : 1;
  auto env = std::make_unique<Env>(spec, args.seed, args.smoke, fields,
                                   traced || stream_kind,
                                   traced || !stream_kind);
  std::string error;
  if (env->store && !perfbench::seed_store(*env, &error)) {
    std::fprintf(stderr, "setup: %s\n", error.c_str());
    return nullptr;
  }
  std::vector<OpResult> warm{perfbench::run_op(*env)};
  if (traced) {
    warm.push_back(stream_kind ? perfbench::incremental_op(*env)
                               : perfbench::stream_op(*env));
  }
  for (const auto& w : warm) {
    if (!w.ok) {
      std::fprintf(stderr, "setup warm-up: %s\n", w.error.c_str());
      return nullptr;
    }
  }
  return env;
}

EndToEnd end_to_end(const perfbench::WorkloadSpec& spec, const Args& args) {
  EndToEnd out;
  const bool stream = spec.kind == perfbench::OpKind::kStream;
  // The incremental set-up and op run on this thread alone; a stream op's
  // pool worker and writer thread spread it over the CPUs by themselves.
  CpuRotation rotation;
  std::vector<double> setups;
  std::unique_ptr<Env> env;
  for (int i = 0; i < kSetups; ++i) {
    env.reset();
    if (!stream) {
      rotation.step();
    }
    perfbench::CpuTimer t;
    env = set_up(spec, args, false);
    setups.push_back(t.seconds());
    if (!env) {
      out.attempted = out.failed = 1;
      return out;
    }
  }

  std::vector<double> dump_s;
  std::vector<double> restore_s;
  std::vector<double> fmax_j;
  std::vector<double> eqn3_j;
  double exact_coded = 0, exact_payload = 0, exact_wire = 0, exact_raw = 0;
  std::vector<std::uint8_t> first_dump;
  std::size_t first_field = 0;
  lcp::Timer clock;
  while (out.attempted < perfbench::kMinOps ||
         clock.elapsed().seconds() < args.seconds) {
    if (!stream) {
      rotation.step();
    }
    const bool keep = stream && out.attempted == 0;
    if (keep) {
      first_field = env->stream_ops % env->fields.size();
    }
    const OpResult r =
        stream ? perfbench::stream_op(*env, keep ? &first_dump : nullptr)
               : perfbench::incremental_op(*env);
    ++out.attempted;
    if (!r.ok) {
      ++out.failed;
      std::fprintf(stderr, "op %zu failed: %s\n", out.attempted,
                   r.error.c_str());
      continue;
    }
    if (out.attempted <= perfbench::kMinOps) {
      exact_coded += r.coded_raw_bytes;
      exact_payload += r.payload_bytes;
      exact_wire += r.wire_bytes;
      exact_raw += r.raw_bytes;
    }
    dump_s.push_back(r.dump_s);
    restore_s.push_back(r.restore_s);
    const auto e = perfbench::dump_energy(r, spec.codec);
    fmax_j.push_back(e.fmax_j_per_gb);
    eqn3_j.push_back(e.eqn3_j_per_gb);
  }

  // The streamed bytes must be exactly what the serial writer produces.
  if (stream) {
    auto serial = lcp::compress::write_checkpoint(env->fields[first_field],
                                                  env->checkpoint);
    if (!serial || *serial != first_dump) {
      ++out.failed;
      std::fprintf(stderr,
                   "first streamed dump differs from write_checkpoint\n");
    }
  }

  std::printf("timed ops: %zu in %.3f s\n", dump_s.size(),
              clock.elapsed().seconds());
  const double raw_mb =
      static_cast<double>(env->fields[0].size_bytes().bytes()) / 1e6;
  auto& m = out.metrics;
  m["setup_s"] = {perfbench::median(setups), "s"};
  m["dump_mbps"] = {raw_mb / perfbench::median(dump_s), "MB/s"};
  m["restore_mbps"] = {raw_mb / perfbench::median(restore_s), "MB/s"};
  if (dump_s.size() >= perfbench::kMinOps) {  // only failed ops can leave fewer
    m["dump_ms_p90"] = {1e3 * perfbench::percentile(dump_s, 0.9), "ms"};
    m["restore_ms_p90"] = {1e3 * perfbench::percentile(restore_s, 0.9), "ms"};
  }
  m["compression_ratio"] = {
      exact_payload > 0 ? exact_coded / exact_payload : 0.0, "x"};
  m["wire_bytes_per_raw_byte"] = {exact_raw > 0 ? exact_wire / exact_raw : 0.0,
                                  "B/B"};
  m["dump_j_per_gb_fmax"] = {perfbench::median(fmax_j), "J/GB"};
  m["dump_j_per_gb_eqn3"] = {perfbench::median(eqn3_j), "J/GB"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  return out;
}

void print_result(const Metrics& metrics, std::size_t attempted,
                  std::size_t failed) {
  for (const auto& [name, metric] : metrics) {
    std::printf("%-40s %16.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {",
      failed == 0 ? "true" : "false", attempted, failed);
  const char* sep = "";
  for (const auto& [name, metric] : metrics) {
    // JSON has no NaN/Inf; a non-finite value can only come from a failed
    // run, which is already reported as incorrect.
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), v, metric.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--smoke]\n");
    return 2;
  }
  const auto* spec = perfbench::find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Provenance the wrapper stamps on the appended record.
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  std::printf(
      "provenance compiler=\"%s\" build_type=%s simd=%s pool_workers=%zu\n",
              compiler, PERFBENCH_BUILD_TYPE,
              lcp::simd::simd_level_name(lcp::simd::simd_level()),
              perfbench::kPoolWorkers);

  Metrics metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  if (args.trace == 0) {
    auto e2e = end_to_end(*spec, args);
    metrics = std::move(e2e.metrics);
    attempted = e2e.attempted;
    failed = e2e.failed;
  } else {
    auto env = set_up(*spec, args, true);
    if (env) {
      auto traced = perfbench::traced_pass(*env, args.seconds);
      metrics = std::move(traced.metrics);
      attempted = traced.attempted;
      failed = traced.failed;
    } else {
      attempted = failed = 1;
    }
  }
  print_result(metrics, attempted, failed);
  return failed == 0 ? 0 : 1;
}
