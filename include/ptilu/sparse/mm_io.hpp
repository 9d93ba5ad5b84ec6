// Matrix Market (.mtx) I/O so users can run the library on their own
// matrices (the paper's G0/TORSO inputs are distributed in this format).
#pragma once

#include <iosfwd>
#include <string>

#include "ptilu/sparse/csr.hpp"

namespace ptilu {

/// Read a Matrix Market coordinate file. Supports real/integer/pattern
/// fields and general/symmetric/skew-symmetric symmetry (symmetric entries
/// are mirrored; pattern values become 1.0). Throws ptilu::Error on
/// malformed input, naming the entry: a truncated or unparseable entry, a
/// value out of a double's range or non-finite, or duplicate entries that
/// assemble to a non-finite value.
Csr read_matrix_market(std::istream& in);
Csr read_matrix_market_file(const std::string& path);

/// Write a general real coordinate Matrix Market file.
void write_matrix_market(std::ostream& out, const Csr& a);
void write_matrix_market_file(const std::string& path, const Csr& a);

}  // namespace ptilu
