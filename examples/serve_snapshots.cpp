// Snapshot query server demo — the serving counterpart of stream_ingest.
//
// The measurement plant seals demand tensors into columnar snapshots; this
// example puts a query server in front of them:
//
//   1. a writer seals a study snapshot (matrix + windows + coverage) and a
//      seal hook republishes the file into a SnapshotRegistry — every
//      durability barrier becomes a hot snapshot swap;
//   2. an epoll reactor serves zero-copy queries from the mapped snapshot to
//      a client over the length-prefixed binary protocol (the same queries
//      `tools/icn_query` issues from the shell);
//   3. the writer then seals generation 2 *while the client stays
//      connected*: the pinned client keeps reading generation 1 until it
//      re-pins, demonstrating that a swap never disturbs in-flight readers.
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "store/snapshot.h"

int main() {
  using namespace icn;
  const std::string path = "serve_snapshots_demo.snap";
  const std::size_t antennas = 6, services = 4;
  const std::int64_t hours = 48;

  // --- 1. Seal generation 1, publishing on every durability barrier. ------
  serve::SnapshotRegistry registry;

  // Analytics would normally come from core::analyze_traffic; the demo
  // fabricates two clusters (heavy-video vs messaging-led antennas) so the
  // cluster/shap queries have something to serve.
  serve::ServedAnalytics analytics;
  analytics.num_clusters = 2;
  for (std::size_t i = 0; i < antennas; ++i) {
    analytics.labels.push_back(i < antennas / 2 ? 0 : 1);
  }
  analytics.shap.resize(2);
  analytics.shap[0] = {{0, 0.91, 0.88, 410.0}, {2, 0.22, -0.41, 35.0}};
  analytics.shap[1] = {{3, 0.74, 0.79, 120.0}, {0, 0.31, -0.52, 90.0}};

  store::SnapshotWriter writer(path);
  writer.set_seal_hook([&](const store::SealEvent& event) {
    const std::uint64_t generation =
        registry.publish_file(event.path, analytics);
    std::printf("seal #%llu (%zu section(s)) -> published generation %llu\n",
                static_cast<unsigned long long>(event.seals),
                event.sections_sealed,
                static_cast<unsigned long long>(generation));
  });

  std::vector<std::uint32_t> ids(antennas);
  for (std::size_t i = 0; i < antennas; ++i) {
    ids[i] = static_cast<std::uint32_t>(1000 + i);
  }
  writer.append_stream_meta(ids, services, hours);

  // A diurnal-ish synthetic tensor: video (service 0) dominates the first
  // half of the antennas, messaging (service 3) the second half.
  ml::Matrix totals(antennas, services);
  std::vector<double> cells(antennas * services);
  for (std::int64_t h = 0; h < hours; ++h) {
    for (std::size_t a = 0; a < antennas; ++a) {
      for (std::size_t s = 0; s < services; ++s) {
        const double base = (a < antennas / 2) == (s == 0) ? 40.0 : 6.0;
        const double diurnal = 1.0 + 0.5 * static_cast<double>(h % 24) / 23.0;
        const double mb = base * diurnal + static_cast<double>(a + s);
        cells[a * services + s] = mb;
        totals(a, s) += mb;
      }
    }
    writer.append_window(h, cells);
  }
  writer.append_matrix(totals);
  writer.sync();  // Barrier: the hook above publishes generation 1.

  // --- 2. Serve it. -------------------------------------------------------
  serve::ServeConfig config = serve::ServeConfig::from_env();
  serve::Server server(config, registry);
  // The port and the tick count vary run to run, so they go to stderr and
  // stdout stays byte-identical across runs.
  std::printf("serving %s\n", path.c_str());
  std::fprintf(stderr, "listening on 127.0.0.1:%u\n", server.port());
  std::thread reactor([&server] { server.run(); });

  serve::QueryClient client(server.port());
  std::uint32_t request_id = 1;

  auto info = client.call(serve::Opcode::kInfo, {}, request_id++);
  std::printf("info: generation %llu, %zu-byte body\n",
              static_cast<unsigned long long>(info.generation),
              info.body.size());

  const auto slice_body = serve::make_slice_body(
      2, serve::kAllServices, serve::kTotalsHours, serve::kTotalsHours);
  auto slice = client.call(serve::Opcode::kSlice, slice_body, request_id++);
  std::printf("slice totals for antenna 2: status %u, %zu-byte body\n",
              static_cast<unsigned>(slice.status), slice.body.size());

  auto cluster = client.call(serve::Opcode::kCluster,
                             serve::make_cluster_body(5), request_id++);
  std::printf("cluster of antenna 5: status %u\n",
              static_cast<unsigned>(cluster.status));

  auto shap =
      client.call(serve::Opcode::kShap, serve::make_shap_body(0, 2),
                  request_id++);
  std::printf("shap ranking of cluster 0: status %u, %zu-byte body\n",
              static_cast<unsigned>(shap.status), shap.body.size());

  // --- 3. Hot swap under a pinned reader. ---------------------------------
  for (std::int64_t h = hours; h < hours + 24; ++h) {
    writer.append_window(h % hours, cells);
  }
  writer.sync();  // Barrier: generation 2 goes live for *new* pins.

  auto pinned = client.call(serve::Opcode::kPing, {}, request_id++);
  std::printf("after swap, pinned client still sees generation %llu\n",
              static_cast<unsigned long long>(pinned.generation));

  auto repin = client.call(serve::Opcode::kRepin, {}, request_id++);
  std::printf("after repin, client sees generation %llu\n",
              static_cast<unsigned long long>(repin.generation));

  server.stop();
  reactor.join();
  writer.close();
  std::remove(path.c_str());
  std::printf("done: %llu frame(s) served\n",
              static_cast<unsigned long long>(server.stats().frames_served));
  std::fprintf(stderr, "reactor ran %llu tick(s)\n",
               static_cast<unsigned long long>(server.stats().ticks));
  return 0;
}
