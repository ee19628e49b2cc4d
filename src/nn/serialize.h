#ifndef M2G_NN_SERIALIZE_H_
#define M2G_NN_SERIALIZE_H_

#include <string>

#include "common/status.h"
#include "nn/module.h"

namespace m2g::nn {

/// Writes every named parameter of `module` to `path` in a simple binary
/// format (magic + per-tensor name/shape/data records).
Status SaveModule(const Module& module, const std::string& path);

/// Loads parameters into `module` by name. Every parameter in the module
/// must be present in the file with a matching shape; extra or duplicate
/// records in the file are an error too, so a round-trip is exact. The
/// load is all-or-nothing: every record is validated before any
/// parameter is assigned, so on error the module is unchanged. Records
/// whose header claims more bytes than the file has left are rejected
/// before anything is allocated for them, and a NaN or infinite value is
/// an InvalidArgument naming the parameter.
Status LoadModule(Module* module, const std::string& path);

}  // namespace m2g::nn

#endif  // M2G_NN_SERIALIZE_H_
