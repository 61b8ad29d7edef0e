// Out-of-core columnar study: read_columnar(write_columnar(ds)) reproduces
// every StudyReport figure bitwise, run_study_columnar equals materialize +
// run_study (including ingest accounting), and the streaming sweep is
// bitwise identical at every thread width — also under block corruption.
#include "core/study.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "cdr/columnar.h"
#include "core/load_view.h"
#include "test_helpers.h"
#include "util/csv.h"

namespace ccms::core {
namespace {

const sim::Study& fixture_study() {
  return test::cached_study(
      {.seed = 9, .fleet = 120, .days = 10, .grid = 8, .quick = true});
}

StudyOptions columnar_options() {
  StudyOptions options;
  options.threads = 1;
  options.ingest.mode = cdr::ParseMode::kLenient;
  // The dataset is already screened; natural exact duplicates made adjacent
  // by the finalize sort must survive the round trip.
  options.ingest.check_duplicates = false;
  return options;
}

/// CCDR2 bytes of the fixture's raw dataset with deliberately small blocks,
/// so the streaming sweep sees many blocks (and several executor chunks)
/// even at test scale. A block closes at the first car boundary after
/// `block_records` records.
std::string small_block_buffer(std::size_t block_records = 512) {
  static std::map<std::size_t, std::string> cache;
  auto [it, fresh] = cache.try_emplace(block_records);
  if (fresh) {
    const sim::Study& study = fixture_study();
    std::ostringstream out(std::ios::binary);
    cdr::ColumnarWriter writer(out, study.raw.fleet_size(),
                               study.raw.study_days(), block_records);
    for (const cdr::Connection& c : study.raw.all()) writer.add(c);
    writer.finish();
    it->second = out.str();
  }
  return it->second;
}

TEST(ColumnarStudyTest, RoundTripReproducesEveryFigureBitwise) {
  const sim::Study& study = fixture_study();
  const CellLoad load = CellLoad::from_background(study.background);
  const StudyOptions options = columnar_options();

  const StudyReport direct =
      run_study(study.raw, study.topology.cells(), load, options);

  cdr::IngestReport ingest;
  const cdr::Dataset round = cdr::read_columnar_buffer(
      cdr::write_columnar_buffer(study.raw), options.ingest, ingest);
  ASSERT_TRUE(ingest.clean());
  const StudyReport via_round =
      run_study(round, study.topology.cells(), load, options);

  std::string why;
  EXPECT_TRUE(study_reports_identical(direct, via_round, &why)) << why;
}

TEST(ColumnarStudyTest, SweepEqualsMaterializedStudy) {
  const sim::Study& study = fixture_study();
  const CellLoad load = CellLoad::from_background(study.background);
  const StudyOptions options = columnar_options();
  const std::string bytes = small_block_buffer();

  cdr::IngestReport ingest;
  const cdr::Dataset round =
      cdr::read_columnar_buffer(bytes, options.ingest, ingest);
  StudyReport materialized =
      run_study(round, study.topology.cells(), load, options);
  materialized.ingest = ingest;

  const StudyReport swept = run_study_columnar_buffer(
      bytes, study.topology.cells(), load, options);
  std::string why;
  EXPECT_TRUE(study_reports_identical(materialized, swept, &why)) << why;
  EXPECT_EQ(swept.ingest.rows_read, study.raw.size());
  EXPECT_EQ(swept.ingest.records_accepted, study.raw.size());
}

TEST(ColumnarStudyTest, PathEntryPointEqualsBufferEntryPoint) {
  const sim::Study& study = fixture_study();
  const CellLoad load = CellLoad::from_background(study.background);
  const StudyOptions options = columnar_options();
  const std::string bytes = small_block_buffer();

  const std::string path =
      (std::filesystem::temp_directory_path() / "ccms_columnar_study.ccdr2")
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }
  const StudyReport from_path =
      run_study_columnar(path, study.topology.cells(), load, options);
  std::remove(path.c_str());

  const StudyReport from_buffer = run_study_columnar_buffer(
      bytes, study.topology.cells(), load, options);
  // The two entry points differ only in the ingested byte source; the label
  // is not part of the report.
  std::string why;
  EXPECT_TRUE(study_reports_identical(from_path, from_buffer, &why)) << why;
}

TEST(ColumnarStudyTest, ThreadWidthsProduceIdenticalReports) {
  const sim::Study& study = fixture_study();
  const CellLoad load = CellLoad::from_background(study.background);
  const std::string bytes = small_block_buffer();

  StudyOptions options = columnar_options();
  options.threads = 1;
  const StudyReport golden = run_study_columnar_buffer(
      bytes, study.topology.cells(), load, options);

  for (const int width : {2, 8}) {
    options.threads = width;
    const StudyReport report = run_study_columnar_buffer(
        bytes, study.topology.cells(), load, options);
    std::string why;
    EXPECT_TRUE(study_reports_identical(golden, report, &why))
        << "width " << width << ": " << why;
  }
}

TEST(ColumnarStudyTest, LenientSweepMatchesMaterializedUnderCorruption) {
  const sim::Study& study = fixture_study();
  const CellLoad load = CellLoad::from_background(study.background);
  const StudyOptions options = columnar_options();
  std::string bytes = small_block_buffer();

  // Flip one payload byte in a middle block: both paths must drop exactly
  // that block and agree on everything else.
  {
    cdr::IngestReport probe;
    const cdr::ColumnarFile file =
        cdr::ColumnarFile::from_buffer(bytes, options.ingest, probe);
    ASSERT_GE(file.blocks().size(), 3u);
    const std::uint64_t offset = file.blocks()[1].offset + 5;
    bytes[static_cast<std::size_t>(offset)] ^= 0x10;
  }

  cdr::IngestReport ingest;
  const cdr::Dataset round =
      cdr::read_columnar_buffer(bytes, options.ingest, ingest);
  EXPECT_EQ(ingest.count(cdr::FaultClass::kChecksumMismatch), 1u);
  EXPECT_GT(ingest.records_dropped, 0u);
  StudyReport materialized =
      run_study(round, study.topology.cells(), load, options);
  materialized.ingest = ingest;

  for (const int width : {1, 8}) {
    StudyOptions wide = options;
    wide.threads = width;
    const StudyReport swept = run_study_columnar_buffer(
        bytes, study.topology.cells(), load, wide);
    std::string why;
    EXPECT_TRUE(study_reports_identical(materialized, swept, &why))
        << "width " << width << ": " << why;
  }
}

TEST(ColumnarStudyTest, StrictModeThrowsOnCorruptBlock) {
  const sim::Study& study = fixture_study();
  const CellLoad load = CellLoad::from_background(study.background);
  std::string bytes = small_block_buffer();
  {
    StudyOptions probe_options = columnar_options();
    cdr::IngestReport probe;
    const cdr::ColumnarFile file =
        cdr::ColumnarFile::from_buffer(bytes, probe_options.ingest, probe);
    bytes[static_cast<std::size_t>(file.blocks()[0].offset + 3)] ^= 0x08;
  }
  StudyOptions options = columnar_options();
  options.ingest.mode = cdr::ParseMode::kStrict;
  EXPECT_THROW(run_study_columnar_buffer(bytes, study.topology.cells(), load,
                                         options),
               util::CsvError);
}

TEST(ColumnarStudyTest, StrictModeNamesTheFirstCorruptBlockAtEveryWidth) {
  // Two adjacent corrupt blocks in one fold window, so on a wide pool they
  // fail at about the same time on different threads: whichever fails
  // first, the sweep must throw the first block's fault, as a sequential
  // read does.
  const sim::Study& study = fixture_study();
  const CellLoad load = CellLoad::from_background(study.background);
  std::string bytes = small_block_buffer();
  {
    StudyOptions probe_options = columnar_options();
    cdr::IngestReport probe;
    const cdr::ColumnarFile file =
        cdr::ColumnarFile::from_buffer(bytes, probe_options.ingest, probe);
    ASSERT_GE(file.blocks().size(), 8u);
    bytes[static_cast<std::size_t>(file.blocks()[3].offset + 3)] ^= 0x08;
    bytes[static_cast<std::size_t>(file.blocks()[4].offset + 3)] ^= 0x08;
  }
  StudyOptions options = columnar_options();
  options.ingest.mode = cdr::ParseMode::kStrict;
  for (const int width : {1, 2, 8}) {
    options.threads = width;
    for (int round = 0; round < 5; ++round) {
      try {
        (void)run_study_columnar_buffer(bytes, study.topology.cells(), load,
                                        options);
        ADD_FAILURE() << "no throw at width " << width;
      } catch (const util::CsvError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("block 3 "), std::string::npos)
            << "width " << width << ": " << what;
      }
    }
  }
}

TEST(ColumnarStudyTest, MultiWindowSweepEqualsMaterializedStudy) {
  // More than two 32-block fold windows, at widths below, at and above the
  // window's tree levels; then again with a lenient corrupt block in the
  // second window.
  const sim::Study& study = fixture_study();
  const CellLoad load = CellLoad::from_background(study.background);
  const StudyOptions options = columnar_options();
  std::string bytes = small_block_buffer(/*block_records=*/64);

  const auto check_all_widths = [&](const std::string& buffer) {
    cdr::IngestReport ingest;
    const cdr::Dataset round =
        cdr::read_columnar_buffer(buffer, options.ingest, ingest);
    StudyReport materialized =
        run_study(round, study.topology.cells(), load, options);
    materialized.ingest = ingest;
    for (const int width : {1, 2, 3, 8}) {
      StudyOptions wide = options;
      wide.threads = width;
      const StudyReport swept = run_study_columnar_buffer(
          buffer, study.topology.cells(), load, wide);
      std::string why;
      EXPECT_TRUE(study_reports_identical(materialized, swept, &why))
          << "width " << width << ": " << why;
    }
    return ingest;
  };

  cdr::IngestReport probe;
  const cdr::ColumnarFile file =
      cdr::ColumnarFile::from_buffer(bytes, options.ingest, probe);
  ASSERT_GT(file.blocks().size(), 64u);
  const std::uint64_t offset = file.blocks()[40].offset + 5;
  check_all_widths(bytes);

  bytes[static_cast<std::size_t>(offset)] ^= 0x10;
  const cdr::IngestReport corrupt = check_all_widths(bytes);
  EXPECT_EQ(corrupt.count(cdr::FaultClass::kChecksumMismatch), 1u);
  EXPECT_GT(corrupt.records_dropped, 0u);
}

TEST(ColumnarStudyTest, ComparatorReportsFirstDivergence) {
  const sim::Study& study = fixture_study();
  const CellLoad load = CellLoad::from_background(study.background);
  const StudyOptions options = columnar_options();
  const StudyReport a =
      run_study(study.raw, study.topology.cells(), load, options);

  StudyOptions other = options;
  other.truncation_cap = 300;  // changes connected-time truncation
  const StudyReport b =
      run_study(study.raw, study.topology.cells(), load, other);
  std::string why;
  EXPECT_FALSE(study_reports_identical(a, b, &why));
  EXPECT_FALSE(why.empty());
}

}  // namespace
}  // namespace ccms::core
