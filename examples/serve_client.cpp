// Serving-daemon quickstart: build a tiny PCR dataset, stream an epoch from
// a PcrDaemon over a unix socket, and print the daemon-side serving stats.
//
//   ./serve_client                      # in-process daemon on a tmp socket
//   ./serve_client <socket> <dataset>   # against an already-running daemon
//
// The second form is what the CI daemon-integration job uses: it launches
// examples/serve_daemon separately and points this client (and the test
// suite) at its socket.
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/pcr_dataset.h"
#include "data/dataset_spec.h"
#include "jpeg/codec.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "storage/env.h"
#include "util/logging.h"
#include "util/metrics.h"

using namespace pcr;

namespace {
// Builds a small synthetic PCR dataset (procedural images, like quickstart).
std::string BuildTinyDataset(Env* env, const std::string& dir) {
  PcrWriterOptions options;
  options.images_per_record = 8;
  auto writer = PcrDatasetWriter::Create(env, dir, options);
  PCR_CHECK(writer.ok()) << writer.status();
  DatasetSpec spec = DatasetSpec::TestTiny();
  spec.base_width = 160;
  spec.base_height = 120;
  for (int i = 0; i < 32; ++i) {
    const int label = i % spec.num_classes;
    const Image img = GenerateImage(spec, label, /*instance_seed=*/i);
    jpeg::EncodeOptions encode_options;
    encode_options.quality = 90;
    auto bytes = jpeg::Encode(img, encode_options);
    PCR_CHECK(bytes.ok()) << bytes.status();
    PCR_CHECK((*writer)->AddImage(Slice(*bytes), label).ok());
  }
  PCR_CHECK((*writer)->Finish().ok());
  return dir;
}
}  // namespace

int main(int argc, char** argv) {
  Env* env = Env::Default();
  std::unique_ptr<serve::PcrDaemon> local_daemon;
  std::string socket_path, dataset_dir;
  if (argc >= 3) {
    socket_path = argv[1];
    dataset_dir = argv[2];
  } else {
    const std::string pid = std::to_string(::getpid());
    dataset_dir = BuildTinyDataset(env, "/tmp/pcr_serve_demo_" + pid);
    socket_path = "/tmp/pcrd_demo_" + pid + ".sock";
    serve::DaemonOptions options;
    options.socket_path = socket_path;
    local_daemon = serve::PcrDaemon::Start(env, options).MoveValue();
    printf("== started in-process daemon on %s\n", socket_path.c_str());
  }

  auto client =
      serve::PcrClient::Connect(socket_path, "serve-client-demo").MoveValue();
  printf("== connected to %s (max %u streams, %u in-flight/stream)\n",
         client->server().server_name.c_str(), client->server().max_streams,
         client->server().max_inflight_per_stream);

  serve::OpenStreamRequest open;
  open.dataset_dir = dataset_dir;
  open.max_epochs = 1;
  open.shuffle = true;
  open.seed = 7;
  auto stream = client->OpenStream(open).MoveValue();
  printf("== stream %llu: %u records, %u images, serving scan group %u/%u "
         "(cache namespace %llx)\n",
         static_cast<unsigned long long>(stream.stream_id),
         stream.num_records, stream.num_images, stream.scan_group,
         stream.num_scan_groups,
         static_cast<unsigned long long>(stream.cache_dataset_id));

  int64_t images = 0;
  uint64_t pixel_bytes = 0;
  for (;;) {
    auto batch = client->NextBatch(stream.stream_id).MoveValue();
    if (batch.end_of_stream) break;
    for (const serve::WireImage& wire : batch.images) {
      const Image img = serve::PcrClient::ToImage(wire).MoveValue();
      pixel_bytes += img.size_bytes();
      ++images;
    }
  }
  printf("== epoch complete: %lld images, %.1f MiB of decoded pixels\n",
         static_cast<long long>(images), pixel_bytes / (1024.0 * 1024.0));

  auto stats = client->GetStats(stream.stream_id).MoveValue();
  const auto print_entries = [](const std::vector<MetricEntry>& entries) {
    for (const MetricEntry& e : entries) {
      printf("   %-28s %.6g\n", e.name.c_str(), e.value);
    }
  };
  printf("== daemon stats:\n");
  print_entries(stats.entries);
  for (const serve::StreamStats& s : stats.streams) {
    printf("== stream %llu (%s) stats:\n",
           static_cast<unsigned long long>(s.stream_id),
           s.client_name.c_str());
    print_entries(s.entries);
  }
  client->CloseStream(stream.stream_id).MoveValue();
  printf("done.\n");
  return 0;
}
