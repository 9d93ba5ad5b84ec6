#include "ptilu/sparse/mm_io.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
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

/// Parse one value token in full: a decimal or scientific literal with an
/// optional sign, whose magnitude a double holds. Hexadecimal literals,
/// trailing characters, NaN and infinities are rejected, each naming the
/// entry (0-based) and its 1-based coordinates.
real parse_value(const std::string& token, long long e, long long i, long long j) {
  const char* first = token.data();
  const char* last = first + token.size();
  // from_chars takes no leading '+', which a stream extraction accepts.
  if (token.size() > 1 && token[0] == '+' && token[1] != '-') ++first;
  real v = 0.0;
  const auto [end, ec] = std::from_chars(first, last, v);
  PTILU_CHECK(ec != std::errc::result_out_of_range,
              "value '" << token << "' of entry " << e << " (" << i << "," << j
                        << ") is out of the range of a double");
  PTILU_CHECK(ec == std::errc() && end == last,
              "unparseable value '" << token << "' in entry " << e << " (" << i << ","
                                    << j << ")");
  PTILU_CHECK(std::isfinite(v), "non-finite value '" << token << "' in entry " << e
                                                     << " (" << i << "," << j << ")");
  return v;
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
  std::string token;
  for (long long e = 0; e < entries; ++e) {
    long long i = 0, j = 0;
    real v = 1.0;
    PTILU_CHECK(static_cast<bool>(in >> i >> j), "truncated entry " << e);
    if (field != "pattern") {
      PTILU_CHECK(static_cast<bool>(in >> token), "truncated value " << e);
      v = parse_value(token, e, i, j);
    }
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
  // Finite entries can still sum to a non-finite value where duplicates
  // are assembled.
  Csr a = builder.to_csr();
  for (idx r = 0; r < a.n_rows; ++r) {
    for (nnz_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      PTILU_CHECK(std::isfinite(a.values[k]),
                  "entry (" << r + 1 << "," << a.col_idx[k] + 1
                            << ") assembles to the non-finite value " << a.values[k]);
    }
  }
  return a;
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
