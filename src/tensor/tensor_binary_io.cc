#include "tensor/tensor_binary_io.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "tensor/binary_codec.h"
#include "tensor/tensor_io.h"

namespace haten2 {

namespace {

constexpr char kMagic[8] = {'H', 'A', 'T', 'E', 'N', '2', 'T', '\0'};
constexpr uint32_t kVersion = 1;
// Refuse to allocate for absurd headers (corrupted/hostile files).
constexpr int64_t kMaxReasonableNnz = int64_t{1} << 40;

using internal::Checksum;
using internal::Get;
using internal::Put;

}  // namespace

Status WriteTensorBinary(const SparseTensor& tensor,
                         const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open for writing: " + path);
  }
  std::string header;
  internal::PutHeader(&header, kMagic, kVersion, tensor.dims());
  Put<int64_t>(&header, tensor.nnz());
  out.write(header.data(), static_cast<std::streamsize>(header.size()));

  std::string body;
  body.reserve(static_cast<size_t>(tensor.nnz()) *
               (static_cast<size_t>(tensor.order()) * 8 + 8));
  for (int64_t e = 0; e < tensor.nnz(); ++e) {
    for (int m = 0; m < tensor.order(); ++m) {
      Put<int64_t>(&body, tensor.index(e, m));
    }
    Put<double>(&body, tensor.value(e));
  }
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  uint64_t checksum = Checksum(body.data(), body.size());
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out.flush();
  if (!out) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

Result<SparseTensor> ReadTensorBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open for reading: " + path);
  }
  HATEN2_ASSIGN_OR_RETURN(
      std::vector<int64_t> dims,
      internal::GetHeader(in, path, kMagic, kVersion, "binary tensor"));
  const int order = static_cast<int>(dims.size());
  int64_t nnz = 0;
  if (!Get(in, &nnz) || nnz < 0 || nnz > kMaxReasonableNnz) {
    return Status::InvalidArgument(path + ": implausible nnz");
  }
  // Check the claimed entries against what the file holds before
  // allocating for them: a forged nnz must not drive the allocation.
  const size_t entry_bytes = static_cast<size_t>(order) * 8 + 8;
  const size_t header_bytes = sizeof(kMagic) + sizeof(uint32_t) +
                              sizeof(int32_t) + dims.size() * 8 + sizeof(nnz);
  std::error_code size_error;
  const uintmax_t file_bytes = std::filesystem::file_size(path, size_error);
  if (size_error || file_bytes < header_bytes ||
      static_cast<uintmax_t>(nnz) > (file_bytes - header_bytes) / entry_bytes) {
    return Status::InvalidArgument(path + ": truncated entries");
  }

  HATEN2_ASSIGN_OR_RETURN(SparseTensor tensor, SparseTensor::Create(dims));
  tensor.Reserve(nnz);
  std::string body(static_cast<size_t>(nnz) * entry_bytes, '\0');
  in.read(body.data(), static_cast<std::streamsize>(body.size()));
  if (in.gcount() != static_cast<std::streamsize>(body.size())) {
    return Status::InvalidArgument(path + ": truncated entries");
  }
  uint64_t stored_checksum = 0;
  if (!Get(in, &stored_checksum) ||
      stored_checksum != Checksum(body.data(), body.size())) {
    return Status::InvalidArgument(path + ": checksum mismatch");
  }

  std::vector<int64_t> idx(static_cast<size_t>(order));
  const char* cursor = body.data();
  for (int64_t e = 0; e < nnz; ++e) {
    for (int m = 0; m < order; ++m) {
      std::memcpy(&idx[static_cast<size_t>(m)], cursor, 8);
      cursor += 8;
    }
    double value;
    std::memcpy(&value, cursor, 8);
    cursor += 8;
    HATEN2_RETURN_IF_ERROR(tensor.Append(idx.data(), order, value));
  }
  tensor.Canonicalize();
  return tensor;
}

Result<SparseTensor> ReadTensorAuto(const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) {
    return Status::IOError("cannot open for reading: " + path);
  }
  char magic[sizeof(kMagic)];
  probe.read(magic, sizeof(magic));
  probe.close();
  if (probe.gcount() == sizeof(magic) &&
      std::memcmp(magic, kMagic, sizeof(kMagic)) == 0) {
    return ReadTensorBinary(path);
  }
  return ReadTensorText(path);
}

}  // namespace haten2
