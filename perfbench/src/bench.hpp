#pragma once
// Dump <-> restore benchmark: shared types for the entry point (main.cpp), the
// workload ops (ops.cpp) and the traced per-layer pass (layers.cpp).
//
// The benchmark times the library's public entry points from outside; the
// program under test receives nothing but the generated field.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compress/common/checkpoint.hpp"
#include "core/incremental_checkpoint.hpp"
#include "data/field.hpp"
#include "io/nfs_client.hpp"
#include "io/nfs_server.hpp"
#include "io/replica_set.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

/// Pool workers for the streaming dump. ThreadPool::parallel_for also runs
/// slabs on the calling thread, so this gives two compressing threads; with
/// the writer that is three busy threads, which leaves one CPU of a 4-CPU
/// host to the rest of the machine. At two workers (four busy threads) the
/// run-to-run spread of dump_mbps more than doubles.
inline constexpr std::size_t kPoolWorkers = 1;
/// Threads that compress slabs during a streaming dump.
inline constexpr std::size_t kCompressThreads = kPoolWorkers + 1;
/// Replicas behind the incremental store (default majority quorum).
inline constexpr std::size_t kReplicas = 3;
/// Share of the field one incremental generation touches.
inline constexpr double kDirtyFraction = 0.05;
/// Incremental ops between drop_generation + gc passes.
inline constexpr std::size_t kGcEvery = 4;
/// Fields a stream workload's untimed run cycles its ops through. The
/// field's content moves SZ and ZFP speed by up to ~10% between seeds;
/// taking every run's median over several seeded fields keeps that
/// variation inside the run instead of between runs.
inline constexpr std::size_t kStreamFields = 4;
/// Timed ops per run, at least: p90 then has ten samples beyond it, and
/// the exact-count metrics are summed over this many leading ops.
inline constexpr std::size_t kMinOps = 100;

enum class OpKind { kStream, kIncremental };

struct WorkloadSpec {
  std::string name;
  OpKind kind = OpKind::kStream;
  std::string codec;
  std::string dataset;  ///< "nyx" or "cesm"
};

/// The three workloads; nullptr for an unknown name.
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

/// Generates the workload's field from the seed (tiny grids under smoke).
[[nodiscard]] lcp::data::Field make_field(const WorkloadSpec& spec,
                                          std::uint64_t seed, bool smoke);

/// Everything one workload's ops run against. Not movable: the servers
/// hold mutexes and the clients and store keep references into them.
struct Env {
  /// `field_count` fields are generated from (seed, index); stream ops
  /// cycle through them, everything else uses fields[0].
  Env(const WorkloadSpec& spec, std::uint64_t seed, bool smoke,
      std::size_t field_count, bool with_stream, bool with_store);
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  WorkloadSpec spec;
  std::uint64_t seed = 0;
  std::vector<lcp::data::Field> fields;
  lcp::compress::CheckpointOptions checkpoint;
  std::size_t stream_ops = 0;

  // Streaming dump -> one NFS server.
  std::unique_ptr<lcp::ThreadPool> pool;
  lcp::io::NfsServer server;
  lcp::io::NfsClient client{server};

  // Incremental store over kReplicas in-memory servers.
  std::array<lcp::io::NfsServer, kReplicas> replica_servers;
  std::unique_ptr<lcp::io::ReplicaSet> replicas;
  std::unique_ptr<lcp::core::IncrementalCheckpointStore> store;
  std::uint64_t generations_dumped = 0;  ///< drives the seeded dirty window
  std::size_t ops_since_gc = 0;
};

/// One dump -> restore op as seen from outside the library.
struct OpResult {
  bool ok = true;
  std::string error;  ///< first failure, empty when ok
  double dump_s = 0.0;        ///< CPU seconds of the dump
  double restore_s = 0.0;     ///< CPU seconds of the restore
  double compress_s = 0.0;    ///< share of dump_s priced as compression
  double transit_s = 0.0;     ///< share of dump_s priced as transit
  double raw_bytes = 0.0;     ///< field bytes the op dumped and restored
  double coded_raw_bytes = 0.0;  ///< raw bytes that went through the codec
  double payload_bytes = 0.0;    ///< stored codec payload
  double wire_bytes = 0.0;       ///< every byte put on the wire
  // Streaming-dump engine and NFS counters (stream ops).
  double stream_compress_s = 0.0;
  double stream_write_s = 0.0;
  double stream_wall_s = 0.0;
  double queue_pushes = 0.0;
  double rpcs = 0.0;
  double bytes_sent = 0.0;
  double read_file_s = 0.0;  ///< CPU seconds of NfsServer::read_file
  // Incremental store counters (incremental ops).
  double dirty_slabs = 0.0;
  double written_slabs = 0.0;
  double journal_bytes = 0.0;
  double replicated_bytes = 0.0;
  double restore_slab_failovers = 0.0;
  double replica_read_failovers = 0.0;
  double gc_s = 0.0;  ///< drop_generation + gc, when the op ran them

  void fail(std::string why) {
    if (ok) {
      error = std::move(why);
    }
    ok = false;
  }
};

/// Streaming dump of the next field into Env::server, then read_file +
/// read_checkpoint. `keep` receives a copy of the stored bytes when
/// non-null.
OpResult stream_op(Env& env, std::vector<std::uint8_t>* keep = nullptr);

/// Touches the next seeded window of fields[0], dumps a generation and
/// restores the latest. Runs drop_generation + gc every kGcEvery ops, or
/// on every op when `gc_now` is set.
OpResult incremental_op(Env& env, bool gc_now = false);

/// The workload's own op.
OpResult run_op(Env& env);

/// Seeds an Env's store with its first (full) generation.
[[nodiscard]] bool seed_store(Env& env, std::string* error);

/// Modeled package energy of one dump at f_max and at the Eqn 3
/// frequencies, priced on the Broadwell chip from the op's compress and
/// transit seconds. Joules per raw GB.
struct DumpEnergy {
  double fmax_j_per_gb = 0.0;
  double eqn3_j_per_gb = 0.0;
  double eqn3_compress_j_per_gb = 0.0;
  double eqn3_transit_j_per_gb = 0.0;
};
[[nodiscard]] DumpEnergy dump_energy(const OpResult& op,
                                     const std::string& codec);

/// Ordered metric name -> (value, unit) for the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Traced pass: per-layer metrics from traced ops of the workload and the
/// layer probes, run for `seconds` of wall time and interleaved with
/// untraced ops for the overhead figure.
struct TracedRun {
  Metrics metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};
[[nodiscard]] TracedRun traced_pass(Env& env, double seconds);

// --- small statistics helpers -------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile q in (0, 1).
[[nodiscard]] double percentile(std::vector<double> v, double q);
/// Process CPU seconds (user + system, all threads) so far.
[[nodiscard]] double process_cpu_seconds();

/// Stopwatch on the process CPU clock, which every reported time uses.
/// The host is a paravirtualized guest whose CPU clocks exclude hypervisor
/// steal; wall-clock medians moved by up to a third between runs when
/// neighbours were busy. Threads that block use no CPU, so a parallel op
/// reads the sum of its threads' busy time.
class CpuTimer {
 public:
  CpuTimer() : start_(process_cpu_seconds()) {}
  void reset() { start_ = process_cpu_seconds(); }
  [[nodiscard]] double seconds() const {
    return process_cpu_seconds() - start_;
  }

 private:
  double start_;
};

}  // namespace perfbench
