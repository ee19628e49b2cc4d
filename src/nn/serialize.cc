#include "nn/serialize.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>

#include "common/string_util.h"

namespace m2g::nn {
namespace {

constexpr uint32_t kMagic = 0x4D324757;  // "M2GW"

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool WriteBytes(std::FILE* f, const void* data, size_t n) {
  return std::fwrite(data, 1, n, f) == n;
}

bool ReadBytes(std::FILE* f, void* data, size_t n) {
  return std::fread(data, 1, n, f) == n;
}

}  // namespace

Status SaveModule(const Module& module, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IoError("cannot open for write: " + path);
  auto named = module.NamedParameters();
  uint32_t count = static_cast<uint32_t>(named.size());
  if (!WriteBytes(f.get(), &kMagic, sizeof(kMagic)) ||
      !WriteBytes(f.get(), &count, sizeof(count))) {
    return Status::IoError("short write: " + path);
  }
  for (const auto& [name, p] : named) {
    uint32_t name_len = static_cast<uint32_t>(name.size());
    int32_t rows = p.value().rows();
    int32_t cols = p.value().cols();
    if (!WriteBytes(f.get(), &name_len, sizeof(name_len)) ||
        !WriteBytes(f.get(), name.data(), name.size()) ||
        !WriteBytes(f.get(), &rows, sizeof(rows)) ||
        !WriteBytes(f.get(), &cols, sizeof(cols)) ||
        !WriteBytes(f.get(), p.value().data(),
                    sizeof(float) * static_cast<size_t>(p.value().size()))) {
      return Status::IoError("short write: " + path);
    }
  }
  return Status::Ok();
}

Status LoadModule(Module* module, const std::string& path) {
  // All-or-nothing: every record is read and checked against the module
  // before any parameter is assigned, so a bad file leaves the module
  // exactly as it was. Sizes come from an untrusted header, so each
  // record's byte count is bounded by what is left in the file before
  // anything is allocated for it.
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IoError("cannot open for read: " + path);
  std::error_code ec;
  const uint64_t file_size = std::filesystem::file_size(path, ec);
  if (ec) return Status::IoError("cannot stat: " + path);
  uint64_t left = file_size;
  auto read = [&](void* data, uint64_t n) {
    if (n > left || !ReadBytes(f.get(), data, static_cast<size_t>(n))) {
      return false;
    }
    left -= n;
    return true;
  };
  uint32_t magic = 0, count = 0;
  if (!read(&magic, sizeof(magic)) || magic != kMagic) {
    return Status::InvalidArgument("not an m2g weights file: " + path);
  }
  if (!read(&count, sizeof(count))) {
    return Status::IoError("truncated file: " + path);
  }
  std::map<std::string, Matrix> loaded;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    if (!read(&name_len, sizeof(name_len)) || name_len > 4096) {
      return Status::IoError("corrupt record in: " + path);
    }
    std::string name(name_len, '\0');
    int32_t rows = 0, cols = 0;
    if (!read(name.data(), name_len) || !read(&rows, sizeof(rows)) ||
        !read(&cols, sizeof(cols)) || rows < 0 || cols < 0) {
      return Status::IoError("corrupt record in: " + path);
    }
    // rows, cols < 2^31, so the byte count fits in 64 bits.
    const uint64_t bytes = static_cast<uint64_t>(rows) *
                           static_cast<uint64_t>(cols) * sizeof(float);
    if (bytes > left) {
      return Status::IoError(StrFormat(
          "record %s claims %d x %d floats but only %llu bytes remain in: %s",
          name.c_str(), rows, cols, static_cast<unsigned long long>(left),
          path.c_str()));
    }
    Matrix m = Matrix::Uninit(rows, cols);
    if (!read(m.data(), bytes)) {
      return Status::IoError("truncated tensor data in: " + path);
    }
    // Finite weights are an invariant the kernels rely on (the dense
    // row kernels' zero-term argument in tensor/matrix.cc).
    for (size_t t = 0; t < m.size(); ++t) {
      if (!std::isfinite(m[t])) {
        return Status::InvalidArgument("non-finite value in parameter " +
                                       name + " in: " + path);
      }
    }
    if (!loaded.emplace(name, std::move(m)).second) {
      return Status::InvalidArgument("duplicate parameter in file: " + name);
    }
  }

  auto named = module->NamedParameters();
  if (named.size() != loaded.size()) {
    return Status::InvalidArgument(StrFormat(
        "parameter count mismatch: module has %zu, file has %zu",
        named.size(), loaded.size()));
  }
  for (const auto& [name, p] : named) {
    auto it = loaded.find(name);
    if (it == loaded.end()) {
      return Status::InvalidArgument("missing parameter in file: " + name);
    }
    if (!it->second.SameShape(p.value())) {
      return Status::InvalidArgument(StrFormat(
          "shape mismatch for %s: module (%d,%d), file (%d,%d)",
          name.c_str(), p.value().rows(), p.value().cols(),
          it->second.rows(), it->second.cols()));
    }
  }
  for (auto& [name, p] : named) {
    p.node()->value = std::move(loaded.at(name));
  }
  return Status::Ok();
}

}  // namespace m2g::nn
