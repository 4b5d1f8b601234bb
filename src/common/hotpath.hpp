// Hot-path implementation selector.
//
// The compressor's prediction/quantization walk and the Huffman decoder
// have three implementations: a straightforward reference path (the code
// the formats were validated against), a specialized fast path
// (dimension-specialized kernels, table-driven decoding) that stays
// bit-identical to the reference stream, and a turbo path that trades the
// bit-identity guarantee for speed — the compress-side FP divide becomes a
// precomputed reciprocal multiply, so quantization decisions near interval
// boundaries can differ from the reference stream by one interval.  Turbo
// streams remain fully error-bound conformant (|x - x'| <= eb for every
// reconstructed point, enforced by a per-point demotion guard in the
// kernels and by tests/test_conformance.cpp) and decode through the
// ordinary decompressor.
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
  kTurbo,      // kFast kernels with reciprocal-multiply quantization:
               // bound-conformant but not bit-identical to the seed stream
};

}  // namespace sz14
