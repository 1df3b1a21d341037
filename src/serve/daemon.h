// PcrDaemon: the long-running serving node — one process owning the shared
// storage/decode resources (Env + FdCache via the process Env, one big
// DecodeCache and PrefixCache), feeding many trainer clients over a
// unix-domain socket speaking the serve/protocol.h frame protocol.
//
// Resource model per client stream:
//
//   - Each OpenStream admits (or rejects — admission control) one stream
//     backed by its OWN LoaderPipeline: private epoch/shuffle/scan-group
//     state, but the shared caches underneath. Two clients streaming the
//     same dataset therefore share decoded entries: the daemon derives the
//     cache namespace server-side from (canonical path, manifest
//     fingerprint), so the same dataset + writer generation maps to the
//     same id regardless of which client opened it first, and a rewritten
//     dataset gets a fresh id instead of colliding with stale entries.
//   - Admission control: at most `max_streams` live streams, at most
//     `max_inflight_per_stream` queued NextBatch requests per stream
//     (excess requests get ResourceExhausted instead of unbounded daemon
//     memory), and each open dataset is capped to a byte-budget share of
//     the decode cache (DecodeCache::SetDatasetByteCap) so one tenant's
//     working set cannot evict everyone else's.
//   - Fairness: batch deliveries run on a pool of `serve_tokens` serve
//     workers. A free worker takes the eligible stream (one with a queued
//     request, not already being served, and not waiting on a shm slot)
//     with the most unspent deficit-round-robin deficit, and charges it the
//     actual reply bytes it served — so a greedy client pipelining large
//     batches cannot starve a modest one.
//
// Threading: one accept thread, one reader thread per connection
// (demultiplexing Hello/OpenStream/NextBatch/Stats/Close), and the
// `serve_tokens` serve workers shared by every stream (NextBatch queue ->
// DRR pick -> pipeline -> reply). Each stream is served by at most one
// worker at a time, in request order. A worker never blocks on a client's
// shm slot credit: it parks the batch on the stream and moves on, and the
// client's ReleaseSlot makes the stream eligible again. Stop() is bounded
// even with clients blocked in NextBatch: it shuts the sockets down and
// stops every pipeline, which unblocks the serve workers.
//
// Observability: a Stats reply names every metric a stream registered in
// its StreamMetrics, then its pipeline's I/O-stage metrics under "io.", so
// a new metric reaches clients with no protocol change.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/pcr_dataset.h"
#include "loader/decode_cache.h"
#include "loader/pipeline.h"
#include "loader/prefix_cache.h"
#include "serve/protocol.h"
#include "storage/env.h"
#include "util/metrics.h"
#include "util/result.h"

namespace pcr::serve {

struct DaemonOptions {
  /// Unix-domain socket path the daemon listens on (unlinked on Stop()).
  /// Must fit sockaddr_un (~100 bytes).
  std::string socket_path;
  std::string server_name = "pcrd";

  // Admission control.
  int max_streams = 16;
  int max_inflight_per_stream = 8;
  /// Serve workers, i.e. concurrent batch deliveries across all streams;
  /// each free worker takes the waiting stream with the most DRR deficit.
  int serve_tokens = 4;
  /// Deficit added per DRR round (bytes); a stream's deliveries are charged
  /// against it at actual reply size.
  uint64_t drr_quantum_bytes = 4ull << 20;
  /// Each open dataset's byte-budget share of the decode cache, as a
  /// fraction of capacity (0 disables per-dataset caps).
  double dataset_cache_share = 0.5;

  // Shared caches (one of each per daemon).
  uint64_t decode_cache_bytes = 256ull << 20;
  uint64_t prefix_cache_bytes = 64ull << 20;

  /// Decode workers in each stream's LoaderPipeline. The rest of the
  /// per-stream pipeline shape is fixed: one I/O worker with four reads in
  /// flight on the auto-resolved I/O backend.
  int decode_threads = 2;

  // Shared-memory data plane (decoded streams only; negotiated per stream).
  /// Offer the shm plane to capable clients that ask for it.
  bool shm_plane = true;
  /// Slots in each stream's ring; 0 derives the granted in-flight cap + 2,
  /// so a well-behaved client never stalls on slot credits.
  int shm_slots_per_stream = 0;
  /// Per-slot capacity. A batch that does not fit falls back to a socket
  /// BatchReply for just that batch. Clamped to >= 4 KiB.
  uint64_t shm_slot_bytes = 4ull << 20;
  /// Deterministic fault injection for tests: pretend the SCM_RIGHTS pass
  /// failed (the daemon withdraws the plane and the stream stays on the
  /// socket), or create the segment at half the advertised size (the client
  /// must reject it at fstat validation and fall back cleanly).
  bool shm_fail_fd_pass_for_test = false;
  bool shm_undersize_segment_for_test = false;
};

/// One stream's serve-stage metrics, each declared and registered here
/// once. Latencies are recorded in nanoseconds and reported in seconds.
struct StreamMetrics {
  MetricSet set;
  Counter& served_batches = set.AddCounter("served_batches");
  Counter& served_images = set.AddCounter("served_images");
  /// Reply frame bytes plus, on the shm plane, the pixels placed in a slot.
  Counter& served_bytes = set.AddCounter("served_bytes");
  /// Request receipt -> service start, and receipt -> reply written.
  Histogram& queue_wait = set.AddHistogram("queue_wait_sec", 1e-9);
  Histogram& batch = set.AddHistogram("batch_sec", 1e-9);
  Counter& shm_batches = set.AddCounter("shm_batches");
  /// Deliveries parked because the client held every shm slot.
  Counter& shm_slot_waits = set.AddCounter("shm_slot_waits");
  /// Payload bytes memcpy'd: once into a slot on the shm plane, twice
  /// (wire struct, then frame) on the socket plane.
  Counter& bytes_copied = set.AddCounter("bytes_copied");
};

class PcrDaemon {
 public:
  /// Binds the socket and starts the accept loop. The returned daemon is
  /// serving; destroy it (or Stop()) to shut down.
  static Result<std::unique_ptr<PcrDaemon>> Start(Env* env,
                                                  DaemonOptions options);

  ~PcrDaemon();
  PcrDaemon(const PcrDaemon&) = delete;
  PcrDaemon& operator=(const PcrDaemon&) = delete;

  /// Stops accepting, disconnects every client (in-flight NextBatch
  /// requests unblock with Aborted), joins all threads, and unlinks the
  /// socket. Bounded and idempotent.
  void Stop();

  const std::string& socket_path() const { return options_.socket_path; }

  /// Live stream count (admission gauge).
  int active_streams() const;

  /// The shared decoded-batch cache (test/diagnostic access).
  const std::shared_ptr<DecodeCache>& decode_cache() const {
    return decode_cache_;
  }

  /// The server-side cache namespace for a dataset directory: a hash of the
  /// canonical path and the metadata manifest's fingerprint (size + CRC).
  /// Same dataset + same writer generation => same id (clients share cache
  /// entries); a rewritten dataset changes the fingerprint, so stale keys
  /// from the old generation can never serve the new one.
  static Result<uint64_t> DeriveCacheDatasetId(Env* env,
                                               const std::string& dataset_dir);

 private:
  struct Connection;
  struct Stream;
  struct DatasetEntry;

  /// What one delivery attempt leaves for its serve worker to settle.
  struct ServeOutcome {
    uint64_t charge = 0;  // DRR charge: the bytes actually served.
    Status failure;       // Fatal: every later request gets this error.
  };

  PcrDaemon(Env* env, DaemonOptions options);

  Status Listen();
  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   const Frame& frame);
  void HandleHello(const std::shared_ptr<Connection>& conn, Slice payload);
  void HandleOpenStream(const std::shared_ptr<Connection>& conn,
                        Slice payload);
  void HandleNextBatch(const std::shared_ptr<Connection>& conn,
                       Slice payload);
  void HandleShmAck(const std::shared_ptr<Connection>& conn, Slice payload);
  void HandleReleaseSlot(const std::shared_ptr<Connection>& conn,
                         Slice payload);
  void HandleStats(const std::shared_ptr<Connection>& conn, Slice payload);
  void HandleCloseStream(const std::shared_ptr<Connection>& conn,
                         Slice payload);
  /// One serve worker: takes the DRR winner, delivers one batch, repeats
  /// until Stop().
  void ServeWorkerLoop();
  /// The eligible stream with the most deficit, topping every eligible
  /// stream up by one quantum ("a round") when the best is overdrawn. Null
  /// if none is eligible; `more` says whether another one is. Caller holds
  /// serve_mu_.
  std::shared_ptr<Stream> PickStreamLocked(bool* more);
  /// Delivers the stream's next batch for the request received at
  /// `receipt` (steady nanoseconds). Caller marked the stream in service.
  ServeOutcome ServeBatch(Stream* stream, int64_t receipt);

  /// Serializes + writes one frame under the connection's write lock.
  Status WriteFrame(Connection& conn, MessageType type, Slice payload);
  /// Like WriteFrame, but attaches `fd` to the frame's first byte as
  /// SCM_RIGHTS ancillary data (the shm segment pass at OpenStream).
  Status WriteFrameWithFd(Connection& conn, MessageType type, Slice payload,
                          int fd);
  void SendError(const std::shared_ptr<Connection>& conn,
                 const Status& status, uint64_t stream_id);

  /// Opens (or refs) the dataset registry entry for `dir`, deriving the
  /// shared cache id and installing its byte share.
  Result<std::shared_ptr<DatasetEntry>> AcquireDataset(
      const std::string& dir);
  void ReleaseDataset(const std::shared_ptr<DatasetEntry>& entry);

  /// Tears one stream down: unpublishes it, stops its pipeline, waits until
  /// no worker serves it, and releases its admission slot and dataset ref.
  void TeardownStream(uint64_t stream_id);
  /// Disconnect path: tears down every stream the connection owns.
  void TeardownConnection(const std::shared_ptr<Connection>& conn);

  StatsReply BuildStats(uint64_t stream_id);
  /// The published stream with this id, or null.
  std::shared_ptr<Stream> FindStream(uint64_t id) const;

  Env* env_;
  DaemonOptions options_;
  std::shared_ptr<DecodeCache> decode_cache_;
  std::shared_ptr<PrefixCache> prefix_cache_;

  int listen_fd_ = -1;
  /// True once Listen() bound the socket path; gates the unlink on Stop()
  /// so a daemon that lost the bind race cannot remove the winner's socket.
  bool bound_ = false;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;

  /// Guards the stream table, admission, and every stream's serve state
  /// (request queue, DRR deficit, in-service and slot-wait flags, failure).
  mutable std::mutex serve_mu_;
  /// Wakes a serve worker: a stream may have become eligible.
  std::condition_variable work_cv_;
  /// A stream left service (TeardownStream waits for that).
  std::condition_variable idle_cv_;
  std::unordered_map<uint64_t, std::shared_ptr<Stream>> streams_;
  /// Reserved admission slots. Streams count from the moment
  /// HandleOpenStream reserves an id (before the fully built stream is
  /// published in streams_) until TeardownStream erases it, so concurrent
  /// opens cannot over-admit during initialization.
  int admitted_streams_ = 0;
  uint64_t next_stream_id_ = 1;
  std::vector<std::thread> serve_workers_;

  std::mutex datasets_mu_;
  std::unordered_map<std::string, std::shared_ptr<DatasetEntry>> datasets_;
};

}  // namespace pcr::serve
