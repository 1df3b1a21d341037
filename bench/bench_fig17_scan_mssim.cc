// Figure 17: "The reconstruction quality (measured with MSSIM) of using
// various amounts of scans." Per dataset: mean + IQR MSSIM per scan group.
// Paper checks: monotone increase, diminishing returns after ~scan 5, scan
// groups >= 5 at MSSIM ~0.95+.
#include <cstdio>

#include "bench_common.h"
#include "tune/static_tuner.h"
#include "util/string_util.h"

using namespace pcr;
using namespace pcr::bench;

int main(int argc, char** argv) {
  pcr::bench::InitBench(argc, argv);
  printf("Figure 17: MSSIM per scan group\n\n");
  for (const DatasetSpec& spec :
       {DatasetSpec::ImageNetLike(), DatasetSpec::Ham10000Like(),
        DatasetSpec::CarsLike(), DatasetSpec::CelebAHqLike()}) {
    DatasetHandle handle = GetDataset(spec);

    StaticTunerOptions options;
    options.sample_images = 24;
    auto profile = ProfileScanGroups(handle.pcr.get(), options);
    PCR_CHECK(profile.ok()) << profile.status();

    printf("-- %s --\n", spec.name.c_str());
    TablePrinter table({"scan", "mean MSSIM", "p25", "p75", "mean KiB/img"});
    for (const auto& q : *profile) {
      ReportMetric(spec.name + "/group_" + std::to_string(q.scan_group) +
                       "/mean_mssim",
                   options.sample_images, 0, q.mean_bytes_per_image,
                   q.mean_mssim, "ms-ssim");
      table.AddRow({StrFormat("%d", q.scan_group),
                    StrFormat("%.4f", q.mean_mssim),
                    StrFormat("%.4f", q.p25_mssim),
                    StrFormat("%.4f", q.p75_mssim),
                    StrFormat("%.1f", q.mean_bytes_per_image / 1024.0)});
    }
    table.Print();
    const int pick = PickFromProfile(*profile, 0.95);
    printf("static tuner pick (MSSIM >= 0.95): scan group %d\n\n", pick);
  }
  return 0;
}
