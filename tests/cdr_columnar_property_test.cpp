// Property tests for the CCDR2 codec (cdr/columnar.h). Seeded random
// finalized datasets, written at block sizes {1, 7, 4096, default}, must
// satisfy:
//   - decode(encode(d)) returns d's records, fleet size and study days;
//   - equal datasets encode to equal bytes;
//   - after any single-byte flip or truncation of an encoding, a lenient
//     read never throws and its report tiles (rows_read == accepted +
//     dropped + repaired duplicates);
//   - a strict read of the same bytes returns or throws util::CsvError,
//     never any other exception.
// Every case derives from one util::Rng seed; a failure names the seed,
// the block size and the damaged byte, which reproduces it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cdr/columnar.h"
#include "test_helpers.h"
#include "util/csv.h"
#include "util/rng.h"

namespace ccms::cdr {
namespace {

constexpr std::size_t kBlockSizes[] = {1, 7, 4096, kColumnarBlockRecords};
constexpr std::uint64_t kSeeds = 24;

std::int32_t random_duration(util::Rng& rng) {
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int32_t kEdges[] = {kMin, kMin + 1, -1, 0, 1, 3600, kMax};
  if (rng.bernoulli(0.3)) {
    return kEdges[rng.uniform_int(0, std::ssize(kEdges) - 1)];
  }
  return static_cast<std::int32_t>(rng.uniform_int(1, 86400));
}

/// A random finalized dataset: sparse or dense car ids, every car starting
/// from its own base time (so car boundaries carry negative start deltas),
/// cells across the whole uint32 range and int32 duration extremes.
Dataset random_dataset(util::Rng& rng) {
  const bool sparse = rng.bernoulli(0.5);
  const auto cars = rng.uniform_int(0, 24);
  std::vector<Connection> records;
  auto car =
      static_cast<std::uint32_t>(rng.uniform_int(0, sparse ? 1 << 30 : 2));
  for (std::int64_t k = 0; k < cars; ++k) {
    time::Seconds start = rng.uniform_int(-86400, 120 * 86400);
    for (auto n = rng.uniform_int(1, 8); n > 0; --n) {
      const auto cell = static_cast<std::uint32_t>(
          rng.bernoulli(0.1) ? std::numeric_limits<std::uint32_t>::max()
                             : rng.uniform_int(0, sparse ? 1 << 30 : 40));
      records.push_back(test::conn(car, cell, start, random_duration(rng)));
      start += rng.uniform_int(0, 7200);
    }
    car += static_cast<std::uint32_t>(sparse ? rng.uniform_int(1, 1 << 20)
                                             : 1);
  }
  rng.shuffle(records);  // finalize() must restore the order
  return test::make_dataset(
      std::move(records), static_cast<std::uint32_t>(rng.uniform_int(0, 64)),
      static_cast<int>(rng.uniform_int(0, 120)));
}

std::string encode(const Dataset& d, std::size_t block_records) {
  std::ostringstream out(std::ios::binary);
  ColumnarWriter writer(out, d.fleet_size(), d.study_days(), block_records);
  for (const Connection& c : d.all()) writer.add(c);
  writer.finish();
  return out.str();
}

/// Every record of every block, in file order, straight from the codec
/// (no record screening, so negative durations survive).
std::vector<Connection> decode_blocks(const ColumnarFile& file) {
  std::vector<Connection> out;
  ColumnBlock block;
  for (std::size_t b = 0; b < file.blocks().size(); ++b) {
    EXPECT_EQ(file.decode_block(b, block), ColumnarFile::DecodeStatus::kOk);
    for (std::size_t i = 0; i < block.size(); ++i) {
      out.push_back(test::conn(block.car[i], block.cell[i], block.start[i],
                               block.duration[i]));
    }
  }
  return out;
}

IngestOptions mode(ParseMode m) {
  IngestOptions options;
  options.mode = m;
  return options;
}

/// The damage contract for one corrupted encoding; returns the first
/// violation, or nothing.
std::optional<std::string> damage_violation(std::string_view bytes) {
  IngestReport report;
  try {
    (void)read_columnar_buffer(bytes, mode(ParseMode::kLenient), report);
  } catch (const std::exception& e) {
    return std::string("lenient read threw: ") + e.what();
  }
  if (report.rows_read != report.records_accepted + report.records_dropped +
                              report.count(FaultClass::kDuplicateRecord)) {
    return "lenient report does not tile: rows_read " +
           std::to_string(report.rows_read);
  }
  try {
    IngestReport strict_report;
    (void)read_columnar_buffer(bytes, mode(ParseMode::kStrict), strict_report);
  } catch (const util::CsvError&) {
  } catch (const std::exception& e) {
    return std::string("strict read threw a non-CsvError: ") + e.what();
  }
  return std::nullopt;
}

TEST(ColumnarProperty, DecodeOfEncodeIsIdentity) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    util::Rng rng(seed);
    const Dataset d = random_dataset(rng);
    for (const std::size_t block_records : kBlockSizes) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", block_records " +
                   std::to_string(block_records));
      const std::string bytes = encode(d, block_records);
      IngestReport report;
      const ColumnarFile file = ColumnarFile::from_buffer(bytes, {}, report);
      EXPECT_TRUE(report.clean());
      EXPECT_EQ(file.fleet_size(), d.fleet_size());
      EXPECT_EQ(file.study_days(), d.study_days());
      EXPECT_EQ(file.record_count(), d.size());
      const std::vector<Connection> decoded = decode_blocks(file);
      EXPECT_TRUE(std::equal(decoded.begin(), decoded.end(), d.all().begin(),
                             d.all().end()));

      // The full reader returns the same records, less the negative
      // durations its value screen quarantines.
      IngestOptions options = mode(ParseMode::kLenient);
      options.check_duplicates = false;
      const Dataset loaded = read_columnar_buffer(bytes, options, report);
      std::vector<Connection> expected;
      for (const Connection& c : d.all()) {
        if (c.duration_s >= 0) expected.push_back(c);
      }
      EXPECT_TRUE(std::equal(loaded.all().begin(), loaded.all().end(),
                             expected.begin(), expected.end()));
      EXPECT_EQ(report.count(FaultClass::kNegativeDuration),
                d.size() - expected.size());
      EXPECT_EQ(loaded.fleet_size(), d.fleet_size());
      EXPECT_EQ(loaded.study_days(), d.study_days());
    }
  }
}

TEST(ColumnarProperty, EqualDatasetsEncodeToEqualBytes) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    util::Rng rng(seed);
    const Dataset first = random_dataset(rng);
    // The same records and metadata, inserted in reverse order.
    std::vector<Connection> reversed(first.all().rbegin(), first.all().rend());
    const Dataset second = test::make_dataset(
        std::move(reversed), first.fleet_size(), first.study_days());
    for (const std::size_t block_records : kBlockSizes) {
      EXPECT_EQ(encode(first, block_records), encode(second, block_records))
          << "seed " << seed << ", block_records " << block_records;
    }
  }
}

TEST(ColumnarProperty, EverySingleByteFlipHonoursTheDamageContract) {
  for (std::uint64_t seed = 1; seed <= kSeeds / 3; ++seed) {
    util::Rng rng(seed);
    const Dataset d = random_dataset(rng);
    for (const std::size_t block_records : kBlockSizes) {
      std::string bytes = encode(d, block_records);
      for (std::size_t at = 0; at < bytes.size(); ++at) {
        const char mask = static_cast<char>(rng.uniform_int(1, 255));
        bytes[at] = static_cast<char>(bytes[at] ^ mask);
        const auto violation = damage_violation(bytes);
        bytes[at] = static_cast<char>(bytes[at] ^ mask);
        if (violation) {
          ADD_FAILURE() << *violation << " (seed " << seed
                        << ", block_records " << block_records << ", byte "
                        << at << " ^ " << int{static_cast<unsigned char>(mask)}
                        << ")";
          break;
        }
      }
    }
  }
}

TEST(ColumnarProperty, EveryTruncationHonoursTheDamageContract) {
  for (std::uint64_t seed = 1; seed <= kSeeds / 3; ++seed) {
    util::Rng rng(seed);
    const Dataset d = random_dataset(rng);
    for (const std::size_t block_records : kBlockSizes) {
      const std::string bytes = encode(d, block_records);
      for (std::size_t len = 0; len < bytes.size(); ++len) {
        const auto violation =
            damage_violation(std::string_view(bytes).substr(0, len));
        if (violation) {
          ADD_FAILURE() << *violation << " (seed " << seed
                        << ", block_records " << block_records
                        << ", truncated to " << len << " bytes)";
          break;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ccms::cdr
