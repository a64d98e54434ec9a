#include "tensor/tensor_io.h"

#include <fstream>
#include <limits>
#include <sstream>

#include "util/string_util.h"

namespace haten2 {

namespace {

std::string HeaderLine(const SparseTensor& tensor) {
  std::string dims;
  for (int m = 0; m < tensor.order(); ++m) {
    if (m > 0) dims += "x";
    dims += StrFormat("%lld", (long long)tensor.dim(m));
  }
  return StrFormat("# haten2 tensor order=%d dims=%s", tensor.order(),
                   dims.c_str());
}

// Parses the dims of a "# haten2 tensor order=N dims=AxBxC" header (line
// `line_no`): every size must be positive, and `order=`, when present, must
// count them. Anything else is InvalidArgument naming the line.
Result<std::vector<int64_t>> ParseHeaderDims(std::string_view line,
                                             int64_t line_no) {
  auto bad = [line_no](const std::string& what) {
    return Status::InvalidArgument(
        StrFormat("line %lld: tensor header %s", (long long)line_no,
                  what.c_str()));
  };
  size_t pos = line.find("dims=");
  if (pos == std::string_view::npos) return bad("has no dims=");
  std::string_view spec = Trim(line.substr(pos + 5));
  std::vector<int64_t> dims;
  for (const std::string& part : Split(spec, 'x')) {
    Result<int64_t> v = ParseInt64(part);
    if (!v.ok() || *v <= 0) {
      return bad("dims '" + std::string(spec) + "' are not positive sizes");
    }
    dims.push_back(*v);
  }
  pos = line.find("order=");
  if (pos != std::string_view::npos) {
    std::string_view rest = line.substr(pos + 6);
    std::string token(rest.substr(0, rest.find_first_of(" \t")));
    Result<int64_t> order = ParseInt64(token);
    if (!order.ok() || *order != static_cast<int64_t>(dims.size())) {
      return bad(StrFormat("order=%s does not match its %zu dims",
                           token.c_str(), dims.size()));
    }
  }
  return dims;
}

Result<SparseTensor> ParseFromStream(std::istream& in,
                                     const TensorTextOptions& options) {
  std::vector<int64_t> dims;
  bool have_header = false;
  // Records retained when inferring dims (header absent).
  std::vector<std::vector<int64_t>> pending_indices;
  std::vector<double> pending_values;
  SparseTensor tensor;
  std::string line;
  int64_t line_no = 0;
  int order = -1;
  std::vector<int64_t> max_index;

  while (std::getline(in, line)) {
    ++line_no;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    if (trimmed[0] == '#') {
      // Only a comment that starts as HeaderLine writes it is the header;
      // free text that mentions "haten2 tensor" stays a comment.
      if (!have_header && trimmed.starts_with("# haten2 tensor ")) {
        HATEN2_ASSIGN_OR_RETURN(dims, ParseHeaderDims(trimmed, line_no));
        // Switching to the header's dims would drop the records read so
        // far, so the header must come before every record.
        if (order != -1) {
          return Status::InvalidArgument(
              StrFormat("line %lld: tensor header after the first record",
                        (long long)line_no));
        }
        HATEN2_ASSIGN_OR_RETURN(tensor, SparseTensor::Create(dims));
        order = tensor.order();
        have_header = true;
      }
      continue;
    }
    std::vector<std::string> fields = SplitWhitespace(trimmed);
    if (fields.size() < 2) {
      return Status::InvalidArgument(
          StrFormat("line %lld: need at least one index and a value",
                    (long long)line_no));
    }
    int rec_order = static_cast<int>(fields.size()) - 1;
    if (order == -1) {
      order = rec_order;
      max_index.assign(static_cast<size_t>(order), -1);
    } else if (rec_order != order) {
      return Status::InvalidArgument(
          StrFormat("line %lld: record arity %d != tensor order %d",
                    (long long)line_no, rec_order, order));
    }
    std::vector<int64_t> idx(static_cast<size_t>(order));
    for (int m = 0; m < order; ++m) {
      Result<int64_t> v = ParseInt64(fields[static_cast<size_t>(m)]);
      if (!v.ok()) {
        return Status::InvalidArgument(
            StrFormat("line %lld: bad index '%s'", (long long)line_no,
                      fields[static_cast<size_t>(m)].c_str()));
      }
      // Compare before subtracting, and keep room for the inferred mode
      // size (max index + 1): both would overflow on hostile indices.
      if (*v < options.index_base) {
        return Status::InvalidArgument(StrFormat(
            "line %lld: index below the %d-based minimum",
            (long long)line_no, options.index_base));
      }
      const int64_t shifted = *v - options.index_base;
      if (shifted == std::numeric_limits<int64_t>::max()) {
        return Status::InvalidArgument(
            StrFormat("line %lld: index '%s' leaves no room for a mode size",
                      (long long)line_no,
                      fields[static_cast<size_t>(m)].c_str()));
      }
      idx[static_cast<size_t>(m)] = shifted;
    }
    Result<double> val = ParseDouble(fields.back());
    if (!val.ok()) {
      return Status::InvalidArgument(StrFormat(
          "line %lld: bad value '%s'", (long long)line_no,
          fields.back().c_str()));
    }
    if (have_header) {
      HATEN2_RETURN_IF_ERROR(tensor.Append(idx.data(), order, *val));
    } else {
      for (int m = 0; m < order; ++m) {
        max_index[static_cast<size_t>(m)] =
            std::max(max_index[static_cast<size_t>(m)],
                     idx[static_cast<size_t>(m)]);
      }
      pending_indices.push_back(std::move(idx));
      pending_values.push_back(*val);
    }
  }

  if (!have_header) {
    if (order == -1) {
      return Status::InvalidArgument(
          "tensor file has no header and no records");
    }
    std::vector<int64_t> inferred(static_cast<size_t>(order));
    for (int m = 0; m < order; ++m) {
      inferred[static_cast<size_t>(m)] = max_index[static_cast<size_t>(m)] + 1;
    }
    HATEN2_ASSIGN_OR_RETURN(tensor, SparseTensor::Create(inferred));
    tensor.Reserve(static_cast<int64_t>(pending_values.size()));
    for (size_t e = 0; e < pending_values.size(); ++e) {
      tensor.AppendUnchecked(pending_indices[e].data(), pending_values[e]);
    }
  }
  tensor.Canonicalize();
  return tensor;
}

}  // namespace

Status WriteTensorText(const SparseTensor& tensor, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open for writing: " + path);
  }
  out << FormatTensorText(tensor);
  out.flush();
  if (!out) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

Result<SparseTensor> ReadTensorText(const std::string& path) {
  return ReadTensorText(path, TensorTextOptions{});
}

Result<SparseTensor> ReadTensorText(const std::string& path,
                                    const TensorTextOptions& options) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open for reading: " + path);
  }
  return ParseFromStream(in, options);
}

Result<SparseTensor> ParseTensorText(const std::string& text) {
  return ParseTensorText(text, TensorTextOptions{});
}

Result<SparseTensor> ParseTensorText(const std::string& text,
                                     const TensorTextOptions& options) {
  std::istringstream in(text);
  return ParseFromStream(in, options);
}

std::string FormatTensorText(const SparseTensor& tensor) {
  std::string out = HeaderLine(tensor);
  out += "\n";
  for (int64_t e = 0; e < tensor.nnz(); ++e) {
    for (int m = 0; m < tensor.order(); ++m) {
      out += StrFormat("%lld ", (long long)tensor.index(e, m));
    }
    out += StrFormat("%.17g\n", tensor.value(e));
  }
  return out;
}

}  // namespace haten2

namespace haten2 {

namespace {

// Parses "<key>N" (e.g. "rows=3") from a header line; -1 when absent or not
// a non-negative integer.
int64_t HeaderCount(std::string_view line, std::string_view key) {
  const size_t pos = line.find(key);
  if (pos == std::string_view::npos) return -1;
  std::string_view value = line.substr(pos + key.size());
  value = value.substr(0, value.find_first_of(" \t"));
  Result<int64_t> n = ParseInt64(value);
  return n.ok() && *n >= 0 ? *n : -1;
}

}  // namespace

Status WriteMatrixText(const DenseMatrix& matrix, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open for writing: " + path);
  }
  out << StrFormat("# haten2 matrix rows=%lld cols=%lld\n",
                   (long long)matrix.rows(), (long long)matrix.cols());
  for (int64_t i = 0; i < matrix.rows(); ++i) {
    for (int64_t j = 0; j < matrix.cols(); ++j) {
      if (j > 0) out << ' ';
      out << StrFormat("%.17g", matrix(i, j));
    }
    out << '\n';
  }
  out.flush();
  if (!out) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

Result<DenseMatrix> ReadMatrixText(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open for reading: " + path);
  }
  std::string line;
  std::vector<std::vector<double>> rows;
  int64_t line_no = 0;
  // The "# haten2 matrix rows=R cols=C" header WriteMatrixText writes, if
  // the file has one: a file that lost rows or columns must not load as a
  // smaller matrix.
  bool have_header = false;
  int64_t header_rows = 0;
  int64_t header_cols = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    if (trimmed[0] == '#') {
      if (!have_header && trimmed.find("haten2 matrix") != std::string::npos) {
        header_rows = HeaderCount(trimmed, "rows=");
        header_cols = HeaderCount(trimmed, "cols=");
        if (header_rows < 0 || header_cols < 0) {
          return Status::InvalidArgument(
              StrFormat("%s: line %lld: malformed matrix header",
                        path.c_str(), (long long)line_no));
        }
        have_header = true;
      }
      continue;
    }
    std::vector<double> row;
    for (const std::string& field : SplitWhitespace(trimmed)) {
      Result<double> v = ParseDouble(field);
      if (!v.ok()) {
        return Status::InvalidArgument(
            StrFormat("line %lld: bad value '%s'", (long long)line_no,
                      field.c_str()));
      }
      row.push_back(*v);
    }
    if (!rows.empty() && row.size() != rows[0].size()) {
      return Status::InvalidArgument(
          StrFormat("line %lld: ragged row", (long long)line_no));
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) {
    return Status::InvalidArgument("matrix file has no data rows");
  }
  if (have_header &&
      (static_cast<int64_t>(rows.size()) != header_rows ||
       static_cast<int64_t>(rows[0].size()) != header_cols)) {
    return Status::InvalidArgument(StrFormat(
        "%s: %zu rows x %zu cols, but its header says rows=%lld cols=%lld",
        path.c_str(), rows.size(), rows[0].size(), (long long)header_rows,
        (long long)header_cols));
  }
  return DenseMatrix::FromRows(rows);
}

}  // namespace haten2
