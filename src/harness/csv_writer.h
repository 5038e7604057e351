// Minimal RFC-4180-style CSV output for experiment results (plotting-ready
// dumps from the benchmark binaries and the harnesses).
#ifndef COPART_HARNESS_CSV_WRITER_H_
#define COPART_HARNESS_CSV_WRITER_H_

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace copart {

// Quotes a field when it contains a comma, quote, or newline; embedded
// quotes are doubled.
std::string CsvEscape(const std::string& field);

class CsvWriter {
 public:
  // Opens `path` for writing (truncating). Check ok() before use.
  explicit CsvWriter(const std::string& path);
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  bool ok() const { return file_ != nullptr; }
  const Status& status() const { return status_; }

  // Writes one row; fields are escaped. CHECK-fails if the writer is bad.
  void WriteRow(std::span<const std::string> fields);
  void WriteRow(std::initializer_list<std::string> fields);

  // Convenience: formats doubles with %.6g.
  void WriteNumericRow(const std::string& label,
                       std::span<const double> values);

  size_t rows_written() const { return rows_written_; }

 private:
  std::FILE* file_ = nullptr;
  Status status_;
  size_t rows_written_ = 0;
};

}  // namespace copart

#endif  // COPART_HARNESS_CSV_WRITER_H_
