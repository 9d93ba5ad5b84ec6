#include "ptilu/sparse/mm_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>

#include "ptilu/support/check.hpp"

namespace ptilu {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

}  // namespace

Csr read_matrix_market(std::istream& in) {
  std::string line;
  PTILU_CHECK(std::getline(in, line), "empty Matrix Market stream");

  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  PTILU_CHECK(banner == "%%MatrixMarket", "missing %%MatrixMarket banner");
  object = lower(object);
  format = lower(format);
  field = lower(field);
  symmetry = lower(symmetry);
  PTILU_CHECK(object == "matrix", "unsupported object '" << object << "'");
  PTILU_CHECK(format == "coordinate", "only coordinate format is supported");
  PTILU_CHECK(field == "real" || field == "integer" || field == "pattern",
              "unsupported field '" << field << "'");
  PTILU_CHECK(symmetry == "general" || symmetry == "symmetric" || symmetry == "skew-symmetric",
              "unsupported symmetry '" << symmetry << "'");

  // Skip comments.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  long long rows = 0, cols = 0, entries = 0;
  {
    std::istringstream sizes(line);
    PTILU_CHECK(static_cast<bool>(sizes >> rows >> cols >> entries), "malformed size line");
    PTILU_CHECK(rows > 0 && cols > 0 && entries >= 0, "invalid matrix dimensions");
    constexpr long long kMaxDim = std::numeric_limits<idx>::max();
    PTILU_CHECK(rows <= kMaxDim && cols <= kMaxDim,
                "matrix dimensions " << rows << " x " << cols
                                     << " exceed the index type's " << kMaxDim);
  }

  CooBuilder builder(static_cast<idx>(rows), static_cast<idx>(cols));
  // The header's entry count is untrusted: reserve at most kMaxReserve up
  // front and let a short body fail as a truncated entry, not a bad_alloc.
  constexpr long long kMaxReserve = 1LL << 20;
  builder.reserve(static_cast<std::size_t>(std::min(entries, kMaxReserve)) *
                  (symmetry == "general" ? 1 : 2));
  for (long long e = 0; e < entries; ++e) {
    long long i = 0, j = 0;
    real v = 1.0;
    PTILU_CHECK(static_cast<bool>(in >> i >> j), "truncated entry " << e);
    if (field != "pattern") PTILU_CHECK(static_cast<bool>(in >> v), "truncated value " << e);
    PTILU_CHECK(i >= 1 && i <= rows && j >= 1 && j <= cols,
                "entry (" << i << "," << j << ") out of range");
    const idx zi = static_cast<idx>(i - 1);
    const idx zj = static_cast<idx>(j - 1);
    builder.add(zi, zj, v);
    if (zi != zj) {
      if (symmetry == "symmetric") builder.add(zj, zi, v);
      if (symmetry == "skew-symmetric") builder.add(zj, zi, -v);
    }
  }
  return builder.to_csr();
}

Csr read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  PTILU_CHECK(in.is_open(), "cannot open '" << path << "'");
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const Csr& a) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << a.n_rows << ' ' << a.n_cols << ' ' << a.nnz() << '\n';
  out.precision(17);
  for (idx i = 0; i < a.n_rows; ++i) {
    for (nnz_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      out << (i + 1) << ' ' << (a.col_idx[k] + 1) << ' ' << a.values[k] << '\n';
    }
  }
}

void write_matrix_market_file(const std::string& path, const Csr& a) {
  std::ofstream out(path);
  PTILU_CHECK(out.is_open(), "cannot open '" << path << "' for writing");
  write_matrix_market(out, a);
  PTILU_CHECK(static_cast<bool>(out), "write to '" << path << "' failed");
}

}  // namespace ptilu
