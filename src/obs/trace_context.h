#ifndef M2G_OBS_TRACE_CONTEXT_H_
#define M2G_OBS_TRACE_CONTEXT_H_

#include <cstdint>

namespace m2g::obs {

/// Id of the request trace this thread is serving (0 when none). Log
/// lines print it as `trace=<id>`, so a wide event, its span tree and its
/// logs join on one id.
uint64_t CurrentTraceId();

}  // namespace m2g::obs

#endif  // M2G_OBS_TRACE_CONTEXT_H_
