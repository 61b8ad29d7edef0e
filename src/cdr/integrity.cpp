#include "cdr/integrity.h"

#include <iterator>

namespace ccms::cdr {

const char* name(FaultClass fault) {
  switch (fault) {
    case FaultClass::kTruncatedLine:
      return "truncated-line";
    case FaultClass::kBadField:
      return "bad-field";
    case FaultClass::kNegativeDuration:
      return "negative-duration";
    case FaultClass::kOverflowDuration:
      return "overflow-duration";
    case FaultClass::kClockSkew:
      return "clock-skew";
    case FaultClass::kUnknownCell:
      return "unknown-cell";
    case FaultClass::kDuplicateRecord:
      return "duplicate-record";
    case FaultClass::kOutOfOrderRecord:
      return "out-of-order-record";
    case FaultClass::kBadHeader:
      return "bad-header";
    case FaultClass::kTruncatedPayload:
      return "truncated-payload";
    case FaultClass::kHourArtifact:
      return "hour-artifact";
    case FaultClass::kChecksumMismatch:
      return "checksum-mismatch";
    case FaultClass::kCheckpointMismatch:
      return "checkpoint-mismatch";
    case FaultClass::kCount:
      break;
  }
  return "unknown";
}

std::uint64_t IngestReport::total_faults() const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counters) total += c;
  return total;
}

void merge_ingest(IngestReport& into, IngestReport&& from,
                  std::size_t quarantine_cap) {
  into.rows_read += from.rows_read;
  into.records_accepted += from.records_accepted;
  into.records_dropped += from.records_dropped;
  into.records_repaired += from.records_repaired;
  into.bom_stripped = into.bom_stripped || from.bom_stripped;
  for (std::size_t i = 0; i < kFaultClassCount; ++i) {
    into.counters[i] += from.counters[i];
  }
  into.quarantine.insert(into.quarantine.end(),
                         std::make_move_iterator(from.quarantine.begin()),
                         std::make_move_iterator(from.quarantine.end()));
  into.quarantine_overflow += from.quarantine_overflow;
  if (into.quarantine.size() > quarantine_cap) {
    into.quarantine_overflow += into.quarantine.size() - quarantine_cap;
    into.quarantine.resize(quarantine_cap);
  }
}

}  // namespace ccms::cdr
