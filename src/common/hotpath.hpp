// Hot-path implementation selector.
//
// The compressor's prediction/quantization walk and the Huffman decoder
// have two implementations: a straightforward reference path (the code
// the formats were validated against) and a specialized fast path
// (dimension-specialized kernels, table-driven decoding) that stays
// bit-identical to the reference stream.  Both modes write the same
// bytes; the mode only selects how they are computed.
//
// The mode is PER-CALL state: it travels on ExecPolicy
// (common/exec_policy.hpp) and is passed as a plain argument into every
// layer that branches on it — kernels, Huffman coder, bit I/O, quantizer.
// Concurrent calls with different modes are correct by construction; a
// call that leaves the mode unset runs kFast.
#pragma once

namespace sz14 {

enum class HotPathMode {
  kFast,       // dimension-specialized kernels + table-driven Huffman decode
  kReference,  // generic CoordWalker walk + bit-by-bit Huffman decode
};

}  // namespace sz14
