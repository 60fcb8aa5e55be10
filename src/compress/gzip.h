#ifndef DSTORE_COMPRESS_GZIP_H_
#define DSTORE_COMPRESS_GZIP_H_

#include "common/bytes.h"
#include "common/status.h"
#include "compress/deflate.h"

namespace dstore {

// gzip container (RFC 1952) around a DEFLATE stream: 10-byte header,
// compressed body, CRC-32 and length trailer. This is the compression format
// the paper's enhanced clients use (Fig. 21).
Bytes GzipCompress(const Bytes& input,
                   DeflateLevel level = DeflateLevel::kDefault);

// Decompresses a gzip stream, verifying the CRC-32 and ISIZE trailer.
// `max_output` bounds the decompressed size (0 = unlimited). When the body
// is too small for ISIZE (mod 2^32) to have wrapped, a body that inflates
// past ISIZE fails with Corruption as soon as it does.
StatusOr<Bytes> GzipDecompress(const Bytes& input, size_t max_output = 0);

}  // namespace dstore

#endif  // DSTORE_COMPRESS_GZIP_H_
