// Table 1: PCR dataset size and record count information.
// Paper row format: Dataset | Record Count | Image Count | Dataset Size |
// JPEG Quality | Classes. Our datasets are scaled-down synthetic analogues;
// the checkable properties are record-count bookkeeping, the ~5% PCR space
// parity with the record baseline, and per-dataset relative sizes (HAM
// images largest, CelebA smallest resolution).
#include <cstdio>

#include "bench_common.h"
#include "util/string_util.h"

using namespace pcr;
using namespace pcr::bench;

int main(int argc, char** argv) {
  pcr::bench::InitBench(argc, argv);
  printf("Table 1: PCR dataset size and record count information\n");
  printf("(synthetic analogues; paper values in EXPERIMENTS.md)\n\n");

  TablePrinter table({"Dataset", "Records", "Images", "PCR Size",
                      "Record-format Size", "PCR/Record", "JPEG Quality",
                      "Classes", "Mean img bytes"});

  Env* env = Env::Default();
  for (const DatasetSpec& spec :
       {DatasetSpec::ImageNetLike(), DatasetSpec::Ham10000Like(),
        DatasetSpec::CarsLike(), DatasetSpec::CelebAHqLike()}) {
    DatasetHandle handle = GetDataset(spec, /*with_record_format=*/true);
    auto record = RecordDataset::Open(env, handle.built.record_dir);
    PCR_CHECK(record.ok()) << record.status();

    const uint64_t pcr_bytes = handle.pcr->total_bytes();
    const uint64_t rec_bytes = (*record)->total_bytes();
    ReportMetric(spec.name + "/pcr_total_bytes", handle.pcr->num_images(), 0,
                 static_cast<double>(pcr_bytes), 0);
    ReportMetric(spec.name + "/pcr_vs_record_ratio",
                 handle.pcr->num_records(), 0,
                 static_cast<double>(rec_bytes),
                 static_cast<double>(pcr_bytes) /
                     static_cast<double>(rec_bytes),
                 "ratio");
    table.AddRow({spec.name,
                  StrFormat("%d", handle.pcr->num_records()),
                  StrFormat("%d", handle.pcr->num_images()),
                  HumanBytes(static_cast<double>(pcr_bytes)),
                  HumanBytes(static_cast<double>(rec_bytes)),
                  StrFormat("%.3f", static_cast<double>(pcr_bytes) /
                                        static_cast<double>(rec_bytes)),
                  StrFormat("%d%%", spec.jpeg_quality),
                  StrFormat("%d", spec.num_classes),
                  StrFormat("%.1f KiB",
                            handle.pcr->MeanImageBytes(10) / 1024.0)});
  }
  table.Print();
  printf("\nPaper check: PCR size within 5%% of the record baseline "
         "(\"no space overhead\"), HAM10000 has the largest images, "
         "CelebAHQ-Smile is binary.\n");
  return 0;
}
