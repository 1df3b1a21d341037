// The benchmark's workloads over the PCR data plane. Each one drives
// the public APIs of src/loader (LoaderPipeline) or src/serve (PcrDaemon,
// PcrClient) with the program's default options, except the budgets named
// below, checks every delivered batch against the oracle, and reads the
// counters the layers already expose.
//
//   local_full   in-process LoaderPipeline over PosixEnv, full fidelity,
//                caches off: decode-bound.
//   remote_full  the same pipeline over the dataset imported into a SimEnv
//                on the real clock with the paper-calibrated storage
//                profile: storage-bound.
//   serve_compressed
//                PcrDaemon with all defaults; 4 clients on the compressed
//                plane of one dataset, full / group 5 / group 1 / full,
//                each decoding what it receives. The compressed bytes fit
//                the prefix cache.
//   serve_mixed  PcrDaemon with all defaults; 4 clients on one dataset:
//                decoded full / group 5 / group 1 over shm, and compressed
//                full, decoded by the client. The decoded working set
//                exceeds the cache share; the compressed bytes fit the
//                prefix cache. 12 MiB decoded records exceed the default
//                4 MiB shm slot, so decoded batches fall back to the socket.
//   serve_warm   PcrDaemon with a decode cache of 4x the decoded epoch, all
//                of it for this dataset, warmed by one epoch in set-up; 4
//                identical decoded full-fidelity clients over shm.
//
// serve_mixed and serve_warm run by name but are not in BENCHMARK.json: the
// socket plane's fresh 12 MiB replies make them too unsteady (README.md).
//
// Load shape: closed loop. In-process workloads have one consumer calling
// Next(); daemon clients are one thread and one connection each, keeping 2
// NextBatch requests outstanding. Every stream is one epoch long, so
// exactly-once delivery is checked exactly; consumers open a new stream per
// epoch until the deadline.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "oracle.h"
#include "trace.h"
#include "util/result.h"

namespace perfbench {

struct Fixture {
  std::string name;     // The DatasetSpec's name.
  std::string pcr_dir;  // Absolute path of the PCR dataset directory.
  int num_records = 0;
  int num_images = 0;
  int num_scan_groups = 0;
  const Oracle* oracle = nullptr;
  /// RecordReadBytes(record, group) at [record * num_scan_groups + group - 1]:
  /// the storage bytes a read of the record at that group spans.
  std::vector<uint64_t> read_bytes;

  uint64_t ReadBytes(int record, int scan_group) const {
    const size_t i = static_cast<size_t>(record) * num_scan_groups +
                     static_cast<size_t>(scan_group) - 1;
    return record >= 0 && scan_group >= 1 && scan_group <= num_scan_groups &&
                   i < read_bytes.size()
               ? read_bytes[i]
               : 0;
  }
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // Sockets live here.
};

/// Everything a run measured, by metric name; main selects what it reports.
struct RunReport {
  std::map<std::string, double> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_error;
  int64_t full_checks = 0;
  std::vector<double> setup_seconds;
  std::string io_backend;  // As the I/O stage reported it ("" if unseen).
  /// One line per consumer: class, images, wall and rate.
  std::vector<std::string> consumers;
  /// Traced runs: the serial replay's per-layer budget.
  std::vector<LayerBudget> budget;
  double replay_seconds = 0;
};

const std::vector<std::string>& WorkloadNames();

/// Scan groups the oracle must cover for every workload.
std::vector<int> OracleScanGroups(int num_scan_groups);

pcr::Result<RunReport> RunWorkload(const RunOptions& options,
                                   const Fixture& fixture);

}  // namespace perfbench
